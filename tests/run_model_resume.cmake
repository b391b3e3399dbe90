# run_model checkpoint/resume checks:
#   cmake -DRUN_MODEL=<run_model> -DCHECK=resume|mismatch -P run_model_resume.cmake
# resume:   40 steps straight end on the same `done:` fingerprint as 20 steps,
#           --checkpoint-out, --checkpoint-in and 20 more steps.
# mismatch: resuming a --dynamic checkpoint with --static exits non-zero and
#           names the config mismatch.
set(ckpt run_model_${CHECK}.ckpt)

function(run_model out_var)
  execute_process(COMMAND ${RUN_MODEL} slope:120 ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "done: [^\n]* fingerprint ([0-9a-f]+)")
    message(FATAL_ERROR "run_model ${ARGN} exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "resume")
  run_model(straight --dynamic --steps 40)
  run_model(first_half --dynamic --steps 20 --checkpoint-out ${ckpt})
  run_model(resumed --dynamic --steps 20 --checkpoint-in ${ckpt})
  if(NOT straight STREQUAL resumed)
    message(FATAL_ERROR "resumed run ends on ${resumed}, straight run on ${straight}")
  endif()
elseif(CHECK STREQUAL "mismatch")
  run_model(written --dynamic --steps 2 --checkpoint-out ${ckpt})
  execute_process(COMMAND ${RUN_MODEL} slope:120 --static --steps 2 --checkpoint-in ${ckpt}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "config differs from snapshot")
    message(FATAL_ERROR "--static resume of a --dynamic checkpoint exited ${rc}: ${err}")
  endif()
else()
  message(FATAL_ERROR "CHECK must be resume or mismatch, not '${CHECK}'")
endif()
file(REMOVE ${ckpt})
