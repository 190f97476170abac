# Runs one CLI on one malformed input and checks that it fails cleanly:
# exit code 1 (the tools' "malformed input" code), not a signal, and
# exactly one line on stderr (so a sanitizer report or a crash message
# fails the check too).
#
#   cmake -DTOOL=<binary> [-DSUBCOMMAND=diff] -DINPUT=<kind> -DWORK=<dir>
#         -P cli_malformed.cmake
#
# INPUT kinds:
#   deep_nesting  2,000,000 nested '[' (unbounded recursion in a parser)
#   negative_pid  a trace whose meta line lists pid -3 as correct
#   pid_beyond_n  a trace whose meta line lists pid 5000 with n = 4
if(INPUT STREQUAL "deep_nesting")
  string(REPEAT "[" 2000000 content)
elseif(INPUT STREQUAL "negative_pid")
  set(content "{\"k\":\"meta\",\"v\":1,\"n\":4,\"correct\":[-3]}\n")
elseif(INPUT STREQUAL "pid_beyond_n")
  set(content "{\"k\":\"meta\",\"v\":1,\"n\":4,\"correct\":[0,5000]}\n")
else()
  message(FATAL_ERROR "unknown INPUT '${INPUT}'")
endif()

get_filename_component(tool_name "${TOOL}" NAME)
set(file "${WORK}/${tool_name}.${INPUT}.json")
file(WRITE "${file}" "${content}")

if(SUBCOMMAND)
  set(command "${TOOL}" ${SUBCOMMAND} "${file}" "${file}")
else()
  set(command "${TOOL}" "${file}")
endif()
execute_process(COMMAND ${command}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(REMOVE "${file}")

if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${tool_name} ${INPUT}: exit '${rc}', want 1\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "\n$")
  message(FATAL_ERROR
    "${tool_name} ${INPUT}: want a one-line diagnostic, got ${lines} lines:\n${err}")
endif()
message(STATUS "${tool_name} ${INPUT}: exit ${rc}: ${err}")
