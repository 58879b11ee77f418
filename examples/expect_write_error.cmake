# Runs COMMAND with the arguments ARG0, ARG1 and, if given, ARG2 and passes
# only if it exits with status 1 and prints "FLAG: cannot write PATH" on
# stderr: an output file that cannot be written fails the process with one
# message. An abort, a crash or a silent exit 0 fails.
#
#   cmake -DCOMMAND=<exe> -DARG0=<arg> -DARG1=<arg> [-DARG2=<arg>]
#         -DFLAG=<flag> -DPATH=<path> -P expect_write_error.cmake
set(args "${ARG0}" "${ARG1}")
if(DEFINED ARG2)
  list(APPEND args "${ARG2}")
endif()
execute_process(
  COMMAND "${COMMAND}" ${args}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  TIMEOUT 120)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "'${args}': expected exit status 1, got '${status}'; stderr: ${stderr}")
endif()
string(FIND "${stderr}" "${FLAG}: cannot write ${PATH}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "'${args}': stderr does not say '${FLAG}: cannot write ${PATH}': "
    "${stderr}")
endif()
string(FIND "${stderr}" "terminate called" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "'${args}': terminated: ${stderr}")
endif()
