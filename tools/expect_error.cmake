# Passes when a command rejects its input cleanly: a non-zero exit status
# (not a signal such as SIGABRT), exactly STATUS when given, and an `error:`
# line on stderr matching EXPECT. Leading VAR=value elements of COMMAND are
# set in the environment; the program itself runs directly, so a signal
# still reads as one.
#
#   cmake "-DCOMMAND=[VAR=value;...]<program>;<arg>;..." -DEXPECT=<regex>
#         [-DSTATUS=<n>] -P expect_error.cmake
while(COMMAND)
  list(GET COMMAND 0 first)
  if(NOT first MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
    break()
  endif()
  set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
  list(REMOVE_AT COMMAND 0)
endwhile()
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
