# Checks on the per-transmission CSV that `addc_sim --trace=FILE` writes.
#
#   cmake -DADDC_SIM=<addc_sim binary> -DWORK_DIR=<scratch dir> -DCHECK=pin \
#         -P trace_csv.cmake
#     The CSV of `--scale=0.05 --seed=41 --algorithm=addc` has the pinned
#     size and 64-bit FNV-1a hash: the bytes stay the same as the MAC's
#     event plumbing changes.
#
#   cmake -DADDC_SIM=... -DWORK_DIR=... -DCHECK=rows -DRUN_ARGS="a;b" \
#         -P trace_csv.cmake
#     `--trace` traces the same run as the plain command: the CSV has one
#     data row per attempt the plain run reports on its ADDC line.
set(csv "${WORK_DIR}/trace_csv_${CHECK}.csv")
file(REMOVE "${csv}")

function(run_addc_sim out_var)
  execute_process(COMMAND "${ADDC_SIM}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "addc_sim ${ARGN} exited ${status}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

include(${CMAKE_CURRENT_LIST_DIR}/fnv1a64.cmake)

if(CHECK STREQUAL "pin")
  run_addc_sim(out --scale=0.05 --seed=41 --algorithm=addc --trace=${csv})
  file(SIZE "${csv}" size)
  fnv1a64(fnv "${csv}")
  set(expected_size 17122)
  set(expected_fnv "ee3c0d0e5ff34b99")
  if(NOT size EQUAL expected_size OR NOT fnv STREQUAL expected_fnv)
    message(FATAL_ERROR "trace CSV drifted: ${size} bytes, fnv1a64 ${fnv} "
                        "(pinned ${expected_size} bytes, ${expected_fnv})")
  endif()
  message(STATUS "trace CSV: ${size} bytes, fnv1a64 ${fnv}")
elseif(CHECK STREQUAL "rows")
  run_addc_sim(plain ${RUN_ARGS})
  string(REGEX MATCH "ADDC: [^\n]* ([0-9]+) attempts" line "${plain}")
  if(line STREQUAL "")
    message(FATAL_ERROR "plain run printed no ADDC line:\n${plain}")
  endif()
  set(attempts ${CMAKE_MATCH_1})
  run_addc_sim(traced ${RUN_ARGS} --trace=${csv})
  file(STRINGS "${csv}" lines)
  list(LENGTH lines rows)
  math(EXPR rows "${rows} - 1")  # the header
  if(NOT rows EQUAL attempts)
    message(FATAL_ERROR "--trace wrote ${rows} rows but the same run without "
                        "it reports ${attempts} attempts")
  endif()
  message(STATUS "${rows} rows = ${attempts} attempts")
else()
  message(FATAL_ERROR "CHECK must be pin or rows, got '${CHECK}'")
endif()
