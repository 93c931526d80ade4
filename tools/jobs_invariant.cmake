# One figure's BENCH json must not depend on the worker count: runs
# crn_figures at --jobs=1 and --jobs=4 (CRN_SCALE=0.1, CRN_REPS=2) and
# compares the two artifacts with same_bench_json.py, which drops only
# wall-clock and scheduling diagnostics.
#
#   cmake -DPROGRAM=<crn_figures binary> -DFIGURE=<name>
#         -DPYTHON=<python3> -DCOMPARE=<same_bench_json.py>
#         -DWORK_DIR=<scratch dir> -P jobs_invariant.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{CRN_SCALE} 0.1)
set(ENV{CRN_REPS} 2)
foreach(jobs 1 4)
  set(json "${WORK_DIR}/${FIGURE}_jobs${jobs}.json")
  file(REMOVE "${json}")
  execute_process(COMMAND "${PROGRAM}" --figure=${FIGURE} --jobs=${jobs}
                          --json-out=${json}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} --figure=${FIGURE} --jobs=${jobs} exited "
                        "${status}:\n${out}${err}")
  endif()
endforeach()
execute_process(COMMAND "${PYTHON}" "${COMPARE}"
                        "${WORK_DIR}/${FIGURE}_jobs1.json"
                        "${WORK_DIR}/${FIGURE}_jobs4.json"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${out}${err}")
endif()
message(STATUS "${out}")
