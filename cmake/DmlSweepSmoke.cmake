# End-to-end smoke for the sweep engine:
#   cmake -DDRIVER=<sweep_grid binary> -DCSV=<output path> -P DmlSweepSmoke.cmake
# Runs a shrunk paper grid serially and on 4 threads, fails unless the two
# CSVs are byte-identical (the sweep's determinism contract), then asserts
# the CSV header and that at least one data row came out ok. The threaded
# run exercises the full parallel path (ThreadPool fan-out, shared eval
# cache, per-cell seeding), which is why the TSan job runs this entry too.
if(NOT DRIVER OR NOT CSV)
  message(FATAL_ERROR "DmlSweepSmoke.cmake requires -DDRIVER=... and -DCSV=...")
endif()

set(SERIAL_CSV ${CSV}.threads1)
foreach(threads 4 1)
  set(path ${CSV})
  if(threads EQUAL 1)
    set(path ${SERIAL_CSV})
  endif()
  execute_process(
    COMMAND ${DRIVER} --threads=${threads} --max-nodes=16 --sim-supersteps=2
            --csv=${path}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${DRIVER} --threads=${threads} exited with ${rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT EXISTS ${path})
    message(FATAL_ERROR "${DRIVER} --threads=${threads} did not write ${path}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${SERIAL_CSV} ${CSV}
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "--threads=1 and --threads=4 CSVs differ: "
                      "${SERIAL_CSV} vs ${CSV}")
endif()

file(STRINGS ${CSV} csv_lines)
list(LENGTH csv_lines num_lines)
if(num_lines LESS 2)
  message(FATAL_ERROR "expected a header plus >= 1 data row in ${CSV}, "
                      "got ${num_lines} line(s)")
endif()
list(GET csv_lines 0 header)
if(NOT header STREQUAL "cell,scenario,hardware,options,comm,status,t_ref_s,optimal_nodes,first_local_peak,peak_speedup,peak_efficiency,scalable,q1_nodes,q2_nodes,mape_pct,measured_mape_pct,availability,expected_slowdown,serving_utilization,serving_quantile_latency_s,q3_replicas,q3_max_qps")
  message(FATAL_ERROR "unexpected CSV header in ${CSV}: ${header}")
endif()
set(found_ok_row FALSE)
set(found_contended_row FALSE)
foreach(line IN LISTS csv_lines)
  if(line MATCHES ",ok,")
    set(found_ok_row TRUE)
    # The grid's topology ablation decorates contended comm labels with
    # "@<topology>/<queue>"; at least one such cell must have priced ok.
    if(line MATCHES "@fat-tree")
      set(found_contended_row TRUE)
    endif()
  endif()
endforeach()
if(NOT found_ok_row)
  message(FATAL_ERROR "no ok data row in ${CSV}:\n${csv_lines}")
endif()
# Only the paper grid carries the topology ablation; opt in per driver.
if(REQUIRE_CONTENDED AND NOT found_contended_row)
  message(FATAL_ERROR "no ok contended (fat-tree) row in ${CSV}:\n${csv_lines}")
endif()
message(STATUS "sweep-smoke OK: ${num_lines} CSV lines from ${DRIVER}, "
               "byte-identical at 1 and 4 threads")
