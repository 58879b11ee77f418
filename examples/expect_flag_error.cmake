# Runs COMMAND with the single argument ARG and passes only if it exits
# with status 2 and names FLAG (as "FLAG:") on stderr: the structured
# flag-error contract of the harness binaries and example CLIs. An abort, a
# crash or a silently accepted value fails.
#
#   cmake -DCOMMAND=<exe> -DARG=<arg> -DFLAG=<flag> -P expect_flag_error.cmake
execute_process(
  COMMAND "${COMMAND}" "${ARG}"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  TIMEOUT 60)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
    "'${ARG}': expected exit status 2, got '${status}'; stderr: ${stderr}")
endif()
string(FIND "${stderr}" "${FLAG}:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${ARG}': stderr does not name ${FLAG}: ${stderr}")
endif()
