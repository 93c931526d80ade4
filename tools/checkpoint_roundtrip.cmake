# CRNCKPT1 round trip through the addc_sim CLI: a run that writes
# checkpoints, then a run restored from the last one, must print the same
# `digest:` line.
#
#   cmake -DADDC_SIM=<addc_sim binary> -DWORK_DIR=<scratch dir> \
#         -P checkpoint_roundtrip.cmake
set(blob "${WORK_DIR}/checkpoint_roundtrip.ckpt")
file(REMOVE "${blob}")
set(run_args --scale=0.05 --seed=41 --algorithm=addc --reps=1 --jobs=1)

function(run_digest out_var)
  execute_process(COMMAND "${ADDC_SIM}" ${run_args} ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "addc_sim ${ARGN} exited ${status}:\n${out}${err}")
  endif()
  string(REGEX MATCH "digest: [^\n]*" digest "${out}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "addc_sim ${ARGN} printed no digest line:\n${out}")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

run_digest(written --checkpoint-out=${blob} --checkpoint-every-events=2000)
if(NOT EXISTS "${blob}")
  message(FATAL_ERROR "the checkpointed run wrote no ${blob}")
endif()
run_digest(restored --restore=${blob})
if(NOT written STREQUAL restored)
  message(FATAL_ERROR "restored run diverged:\n  written:  ${written}\n"
                      "  restored: ${restored}")
endif()
message(STATUS "${restored}")
