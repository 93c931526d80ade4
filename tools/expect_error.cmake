# Passes when a command rejects its input cleanly: a non-zero exit status
# (not a signal such as SIGABRT), exactly STATUS when given, and an `error:`
# line on stderr matching EXPECT.
#
#   cmake "-DCOMMAND=<program>;<arg>;..." -DEXPECT=<regex> [-DSTATUS=<n>]
#         -P expect_error.cmake
execute_process(COMMAND ${COMMAND}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got '${status}':\n${out}${err}")
endif()
if(DEFINED STATUS AND NOT status EQUAL STATUS)
  message(FATAL_ERROR "expected exit ${STATUS}, got ${status}:\n${out}${err}")
endif()
if(NOT err MATCHES "error: [^\n]*${EXPECT}")
  message(FATAL_ERROR "expected an 'error: ...${EXPECT}' line:\n${err}")
endif()
message(STATUS "exit ${status}: ${err}")
