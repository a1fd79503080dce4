# CTest smoke script: `swft_bench --list` must enumerate the experiment
# registry and the canonical traffic-pattern names, and a small real run
# with --phase-timers must label every simulated point's timers.
#
#   cmake -DSWFT_BENCH=<path-to-binary> -P smoke_swft_bench.cmake
if(NOT SWFT_BENCH)
  message(FATAL_ERROR "pass -DSWFT_BENCH=<path to swft_bench>")
endif()

execute_process(
  COMMAND ${SWFT_BENCH} --list
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swft_bench --list exited with ${rc}\nstderr: ${err}")
endif()

if(NOT out MATCHES "([0-9]+) registered experiments:")
  message(FATAL_ERROR "missing experiment count line:\n${out}")
endif()
set(count ${CMAKE_MATCH_1})
if(count LESS 11)
  message(FATAL_ERROR "expected >= 11 registered experiments, got ${count}:\n${out}")
endif()

foreach(name fig3 fig4 fig5 fig6 fig7 model_vs_sim abl_buffer_depth
        abl_reinjection_overhead abl_vc_partition scan_radix faultscape)
  if(NOT out MATCHES "  ${name} ")
    message(FATAL_ERROR "experiment '${name}' missing from --list:\n${out}")
  endif()
endforeach()

if(NOT out MATCHES "traffic patterns: uniform transpose bitcomp bitrev shuffle tornado hotspot")
  message(FATAL_ERROR "traffic pattern footer missing or drifted:\n${out}")
endif()

# Unknown experiment names must fail loudly, not silently no-op.
execute_process(
  COMMAND ${SWFT_BENCH} --run no_such_experiment
  RESULT_VARIABLE rc2
  OUTPUT_QUIET ERROR_QUIET)
if(rc2 EQUAL 0)
  message(FATAL_ERROR "--run with an unknown name should exit non-zero")
endif()

# Comma-separated --run lists are split into individual names: a bogus name
# buried in the list must be rejected by name, before anything runs.
execute_process(
  COMMAND ${SWFT_BENCH} --run fig3,bogus_name,fig4
  RESULT_VARIABLE rc3
  OUTPUT_QUIET
  ERROR_VARIABLE err3)
if(rc3 EQUAL 0)
  message(FATAL_ERROR "--run with a bogus name in a comma list should exit non-zero")
endif()
if(NOT err3 MATCHES "unknown experiment 'bogus_name'")
  message(FATAL_ERROR "comma list not split into names:\n${err3}")
endif()

# --cache-stats without --run inspects the store (empty here) and exits 0.
execute_process(
  COMMAND ${SWFT_BENCH} --cache-stats --cache-dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_cache_stats
  RESULT_VARIABLE rc4
  OUTPUT_VARIABLE out4
  ERROR_QUIET)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "--cache-stats alone should exit 0, got ${rc4}")
endif()
if(NOT out4 MATCHES "cache stats: hits=0 misses=0 inserts=0 entries=0")
  message(FATAL_ERROR "unexpected --cache-stats output:\n${out4}")
endif()

# Malformed --threads values and the removed --sim-threads, --format and
# --cache flags exit 2 while the arguments are parsed, naming the flag (--list
# would otherwise exit 0).
foreach(args "--threads;2x" "--threads;abc" "--sim-threads;2" "--format;json" "--cache")
  list(GET args 0 flag)
  execute_process(
    COMMAND ${SWFT_BENCH} ${args} --list
    RESULT_VARIABLE rc5
    OUTPUT_QUIET
    ERROR_VARIABLE err5)
  if(NOT rc5 EQUAL 2)
    message(FATAL_ERROR "swft_bench ${args} should exit 2, got ${rc5}\nstderr: ${err5}")
  endif()
  if(NOT err5 MATCHES "${flag}")
    message(FATAL_ERROR "swft_bench ${args}: stderr does not name ${flag}:\n${err5}")
  endif()
endforeach()

# --phase-timers puts each simulated point's times on its own progress line,
# also under --quiet: one labelled gen/inj/walk line per grid point on
# stdout, nothing on stderr.
if(NOT out MATCHES "  model_vs_sim +\\(([0-9]+) points\\)")
  message(FATAL_ERROR "model_vs_sim missing its point count in --list:\n${out}")
endif()
set(mvsPoints ${CMAKE_MATCH_1})
set(timers_dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_phase_timers)
file(REMOVE_RECURSE ${timers_dir})
execute_process(
  COMMAND ${SWFT_BENCH} --run model_vs_sim --phase-timers --quiet --no-cache --threads 4
          --out ${timers_dir}
  RESULT_VARIABLE rc7
  OUTPUT_VARIABLE out7
  ERROR_VARIABLE err7)
if(NOT rc7 EQUAL 0)
  message(FATAL_ERROR "swft_bench --run model_vs_sim --phase-timers exited with ${rc7}\n"
          "stderr: ${err7}")
endif()
if(NOT err7 STREQUAL "")
  message(FATAL_ERROR "swft_bench --phase-timers wrote to stderr:\n${err7}")
endif()
string(REGEX MATCHALL
       "  \\[[0-9]+/${mvsPoints}\\] model_vs_sim/[^ \n]+  gen [0-9.]+s inj [0-9.]+s walk [0-9.]+s\n"
       timedLines "${out7}")
string(REGEX REPLACE "  \\[[0-9]+/[0-9]+\\] ([^ ]+)  [^;]*" "\\1" timedLabels "${timedLines}")
list(REMOVE_DUPLICATES timedLabels)
list(LENGTH timedLabels nTimed)
if(NOT nTimed EQUAL mvsPoints)
  message(FATAL_ERROR "expected ${mvsPoints} distinct labelled phase-timer lines, got "
          "${nTimed}:\n${out7}")
endif()

# Commands that only read the store or fail leave the results directory
# alone: it is created only when a run writes to it.
set(results_dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_untouched_results)
file(REMOVE_RECURSE ${results_dir})
set(ENV{SWFT_RESULTS_DIR} ${results_dir})
unset(ENV{SWFT_CACHE_DIR})
foreach(args "--cache-stats" "--run;no_such" "")
  execute_process(
    COMMAND ${SWFT_BENCH} ${args}
    RESULT_VARIABLE rc6
    OUTPUT_QUIET ERROR_QUIET)
  if(EXISTS ${results_dir})
    message(FATAL_ERROR "swft_bench ${args} (exit ${rc6}) created ${results_dir}")
  endif()
endforeach()

message(STATUS "swft_bench smoke OK (${count} experiments)")
