# Included from the top-level CMakeLists so that ${CMAKE_BINARY_DIR}/bench
# contains ONLY the bench executables (a plain `for b in build/bench/*`
# must not trip over CMake bookkeeping files).

function(gdda_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE gdda)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

gdda_bench(bench_table1_preconditioners)
gdda_bench(bench_fig10_spmv)
gdda_bench(bench_table2_case1)
gdda_bench(bench_table3_case2)
gdda_bench(bench_class_divergence)
gdda_bench(bench_broadphase)
gdda_bench(bench_ablation_hsbcsr)
gdda_bench(bench_trace_overhead)
gdda_bench(bench_metrics_overhead)
gdda_bench(bench_pipeline_reuse)
gdda_bench(bench_sched_throughput)
gdda_bench(bench_solver_scaling)
gdda_bench(bench_step_scaling)
gdda_bench(bench_checkpoint_overhead)
