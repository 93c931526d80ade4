# Pins what one command prints: its exit status and the size and 64-bit
# FNV-1a hash of its stdout, and optionally of one artifact it writes. The
# pins hold a program's visible behaviour fixed while its code changes.
#
#   cmake -DPROGRAM=<binary> -DWORK_DIR=<scratch dir>
#         "-DRUN_ARGS=<flag>;<flag>;..." -DPIN=<size>:<fnv>
#         [-DSTATUS=<exit status, default 0>] [-DLINES=<regex>]
#         [-DARTIFACT=<file name> -DARTIFACT_PIN=<size>:<fnv>]
#         -P stdout_pin.cmake
#
# `@DIR@` in RUN_ARGS stands for WORK_DIR. Before hashing, stdout is
# normalised: WORK_DIR reads as `<dir>`, so artifact paths do not enter the
# hash, and the flight recorder's `... ms wall` lines (wall-clock time) are
# dropped. With LINES, only each match of LINES through the end of its line
# is hashed. ARTIFACT is a
# file under WORK_DIR, hashed as written.
include(${CMAKE_CURRENT_LIST_DIR}/fnv1a64.cmake)

if(NOT DEFINED STATUS)
  set(STATUS 0)
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "@DIR@" "${WORK_DIR}" args "${RUN_ARGS}")
string(REPLACE "\\;" ";" args "${args}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL STATUS)
  message(FATAL_ERROR "${PROGRAM} ${args} exited ${status}, expected ${STATUS}:\n"
                      "${out}${err}")
endif()

string(REPLACE "${WORK_DIR}" "<dir>" out "${out}")
string(REGEX REPLACE "[^\n]* ms wall\n" "" out "${out}")
if(DEFINED LINES)
  string(REGEX MATCHALL "${LINES}[^\n]*\n" kept "${out}")
  string(REPLACE ";" "" out "${kept}")
endif()
set(normalised "${WORK_DIR}/stdout.normalised")
file(WRITE "${normalised}" "${out}")

# check_pin(<what> <path> <size>:<fnv>)
function(check_pin what path pin)
  file(SIZE "${path}" size)
  fnv1a64(fnv "${path}")
  if(NOT "${size}:${fnv}" STREQUAL "${pin}")
    message(FATAL_ERROR "${what} drifted: ${size}:${fnv} (pinned ${pin})\n"
                        "${PROGRAM} ${args}\n${out}")
  endif()
  message(STATUS "${what}: ${size}:${fnv}")
endfunction()

check_pin(stdout "${normalised}" "${PIN}")
if(DEFINED ARTIFACT)
  check_pin("${ARTIFACT}" "${WORK_DIR}/${ARTIFACT}" "${ARTIFACT_PIN}")
endif()
