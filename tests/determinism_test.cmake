# Determinism regressions, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -P determinism_test.cmake
#
# 1. Runs netcache_sim rack twice with the same seed and asserts the metrics
#    JSON and the packet-lifecycle trace JSONL are byte-identical. Invariant
#    checking stays on for both runs: the checkers are read-only, so they
#    must not perturb the simulation. The second run adds --profile-out, so
#    this same byte-diff also proves the profiler (common/profiler.h) never
#    perturbs simulation results.
# 2. Runs netcache_sim sweep once serially and once on 4 worker threads and
#    asserts both stdout and the metrics JSON are byte-identical — the
#    core/sweep.h contract that parallel execution never changes results.
# 3. Runs the rack once with the default burst-coalescing dispatcher and once
#    with --no-burst and asserts the metrics JSON is byte-identical — the
#    net/simulator.h contract that coalescing same-instant deliveries into
#    HandleBurst changes throughput, never results.
# 4. Runs the rack once with --no-simd and asserts the metrics JSON matches
#    run 1's after stripping the config's "simd_level" field (the one
#    intended difference) — the common/simd.h contract that the vectorized
#    burst kernels are bit-identical to the scalar path.
# 5. Runs the rack once with --no-egress-batch and asserts the metrics JSON
#    matches run 1's — the net/link.h contract that shipping a transmit group
#    as one burst delivery record (vs adjacent per-packet records) changes
#    record format only, never results.

set(FLAGS rack --servers=8 --offered=150000 --duration=0.2 --seed=1234
    --metrics-interval=0.05 --check-invariants=0.02 --write-ratio=0.1)

foreach(run a b)
  if(run STREQUAL "b")
    set(profile_flag --profile-out=${WORK_DIR}/determinism_prof_b.json)
  else()
    set(profile_flag)
  endif()
  execute_process(
    COMMAND ${SIM} ${FLAGS} ${profile_flag}
            --trace-out=${WORK_DIR}/determinism_trace_${run}.jsonl
            --metrics-out=${WORK_DIR}/determinism_${run}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_a.json ${WORK_DIR}/determinism_b.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "same-seed runs produced different metrics JSON "
      "(${WORK_DIR}/determinism_a.json vs determinism_b.json)")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_trace_a.jsonl ${WORK_DIR}/determinism_trace_b.jsonl
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "same-seed runs produced different trace JSONL "
      "(${WORK_DIR}/determinism_trace_a.jsonl vs determinism_trace_b.jsonl)")
endif()

# Parallel sweep vs serial sweep: stdout and JSON byte-identical.
set(SWEEP_FLAGS sweep --zipf=0.9,0.99 --cache=100,400 --reps=2 --seed=77
    --servers=4 --offered=80000 --duration=0.05)

foreach(mode serial threads)
  if(mode STREQUAL "serial")
    set(mode_flag --serial)
  else()
    set(mode_flag --threads=4)
  endif()
  execute_process(
    COMMAND ${SIM} ${SWEEP_FLAGS} ${mode_flag}
            --metrics-out=${WORK_DIR}/sweep_${mode}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${mode} exited ${rc}:\n${out}\n${err}")
  endif()
  file(WRITE ${WORK_DIR}/sweep_${mode}.txt "${out}")
endforeach()

foreach(ext txt json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/sweep_serial.${ext} ${WORK_DIR}/sweep_threads.${ext}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "serial and 4-thread sweeps diverged in .${ext} output "
        "(${WORK_DIR}/sweep_serial.${ext} vs sweep_threads.${ext})")
  endif()
endforeach()

# Burst coalescing vs per-packet dispatch: metrics JSON byte-identical. The
# default-dispatcher run from step 1 (determinism_a.json) is the reference.
execute_process(
  COMMAND ${SIM} ${FLAGS} --no-burst
          --metrics-out=${WORK_DIR}/determinism_noburst.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--no-burst run exited ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_a.json ${WORK_DIR}/determinism_noburst.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "burst-coalesced and --no-burst runs produced different metrics JSON "
      "(${WORK_DIR}/determinism_a.json vs determinism_noburst.json)")
endif()

# SIMD vs scalar burst kernels (--no-simd, common/simd.h): the vectorized
# digest/sketch/table probes must be bit-identical to the scalar path, so a
# forced-scalar run matches the default run from step 1 byte-for-byte — except
# for the config's "simd_level" field, which exists precisely to record which
# path ran. Strip that one field from both documents before comparing. (On a
# host without AVX2 both runs are scalar and the leg is a tautology; on CI's
# AVX2 runners it proves the equivalence end to end.)
execute_process(
  COMMAND ${SIM} ${FLAGS} --no-simd
          --metrics-out=${WORK_DIR}/determinism_nosimd.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--no-simd run exited ${rc}:\n${out}\n${err}")
endif()

foreach(doc a nosimd)
  file(READ ${WORK_DIR}/determinism_${doc}.json contents)
  string(REGEX REPLACE "\"simd_level\":\"[a-z0-9]+\"" "" contents "${contents}")
  file(WRITE ${WORK_DIR}/determinism_${doc}_nolevel.json "${contents}")
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_a_nolevel.json
          ${WORK_DIR}/determinism_nosimd_nolevel.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "--no-simd changed the metrics JSON beyond config.simd_level: the "
      "vectorized burst kernels must be bit-identical to the scalar path "
      "(${WORK_DIR}/determinism_a_nolevel.json vs determinism_nosimd_nolevel.json)")
endif()

# Egress burst records vs per-packet delivery records (--no-egress-batch,
# net/link.h): both legs share the transmit-group timing model — the flag
# only switches the record format a closed group ships as — so the runs must
# be byte-identical, including every deterministic event/burst counter.
execute_process(
  COMMAND ${SIM} ${FLAGS} --no-egress-batch
          --metrics-out=${WORK_DIR}/determinism_noegress.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--no-egress-batch run exited ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_a.json ${WORK_DIR}/determinism_noegress.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "--no-egress-batch changed the metrics JSON: burst delivery records "
      "must be observationally identical to per-packet records "
      "(${WORK_DIR}/determinism_a.json vs determinism_noegress.json)")
endif()
