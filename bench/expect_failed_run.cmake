# Runs COMMAND with the arguments ARG0 and ARG1 and passes only if it exits
# with status 1 and prints a "RUN FAILED" row on stdout: a grid bench whose
# runs fail must fail its process. Exit 0, an abort or a crash fails.
#
#   cmake -DCOMMAND=<exe> -DARG0=<arg> -DARG1=<arg> -P expect_failed_run.cmake
execute_process(
  COMMAND "${COMMAND}" "${ARG0}" "${ARG1}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE stdout
  ERROR_QUIET
  TIMEOUT 120)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "'${ARG0} ${ARG1}': expected exit status 1, got '${status}'; "
    "stdout: ${stdout}")
endif()
string(FIND "${stdout}" "RUN FAILED" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${ARG0} ${ARG1}': no RUN FAILED row: ${stdout}")
endif()
