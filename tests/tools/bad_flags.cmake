# Bad flag values fail fast: each run below must exit with status 2 and
# print one stderr line naming the accepted values, before any dataset,
# vocabulary or pretraining work (a quick exit, far under the timeout).
# ctest runs it as
#   cmake -DDIAL_CLI=<dial_cli> -DDIAL_SERVE=<dial_serve> -P bad_flags.cmake

function(expect_flag_error expected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  list(JOIN ARGN " " command)
  if(NOT result STREQUAL "2")
    message(FATAL_ERROR "`${command}` ended with '${result}', want exit 2:\n${err}")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "`${command}` stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

set(backends "flat\\|ivf\\|lsh\\|pq\\|ivfpq\\|sq\\|hnsw\\|matmul")
expect_flag_error("unknown index backend 'nope' \\(expected ${backends}\\)"
                  ${DIAL_CLI} run --backend nope)
expect_flag_error("unknown index backend 'nope' \\(expected ${backends}\\)"
                  ${DIAL_SERVE} --backend nope)
expect_flag_error("unknown negative source 'labelled' \\(expected random\\|labeled\\)"
                  ${DIAL_CLI} run --negatives labelled)
expect_flag_error("--resume requires --checkpoint" ${DIAL_CLI} run --resume)
expect_flag_error("unknown pruning scheme 'nope'" ${DIAL_CLI} jedai --pruning nope)
expect_flag_error("unknown dataset 'nope'" ${DIAL_SERVE} --dataset nope)
expect_flag_error("Unknown flag --nope" ${DIAL_CLI} run --nope)
# A removed flag stops a script that still passes it with one error line
# instead of a run.
expect_flag_error("Unknown flag --precision" ${DIAL_CLI} run --precision int8)
expect_flag_error("Unknown flag --precision" ${DIAL_SERVE} --precision int8)
