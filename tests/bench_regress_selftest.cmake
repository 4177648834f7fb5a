# Exit-code and suggestion self-test for scripts/bench_regress.py, invoked:
#   cmake -DPYTHON=<python3> -DREGRESS=<bench_regress.py> -DWORK_DIR=<dir>
#         -P bench_regress_selftest.cmake
#
# Covers the contract CI relies on: exit 0 on a matching pair, exit 1 on a
# metric regression, and exit 1 with closest-label suggestions when a
# baseline trial label is missing from the candidate (the renamed-trial
# case), and a --perf comparison refused when the two documents' "host"
# fingerprints differ while a model-only comparison still passes; for a
# repeated trial, a planted 2x slowdown of the median fails --perf at the
# default tolerance while a wider interquartile range alone does not.

set(DIR ${WORK_DIR}/bench_regress_selftest)
file(MAKE_DIRECTORY ${DIR})

file(WRITE ${DIR}/base.json [=[
{"bench": "fixture", "seed": 1, "trials": [
  {"label": "zipf_0.99_cache_128", "metrics": {"hit_ratio": 0.8, "qps": 1000.0}}
]}
]=])
file(WRITE ${DIR}/same.json [=[
{"bench": "fixture", "seed": 1, "trials": [
  {"label": "zipf_0.99_cache_128", "metrics": {"hit_ratio": 0.8, "qps": 1000.0}}
]}
]=])
file(WRITE ${DIR}/regressed.json [=[
{"bench": "fixture", "seed": 1, "trials": [
  {"label": "zipf_0.99_cache_128", "metrics": {"hit_ratio": 0.5, "qps": 1000.0}}
]}
]=])
file(WRITE ${DIR}/renamed.json [=[
{"bench": "fixture", "seed": 1, "trials": [
  {"label": "zipf_0.99_cache_256", "metrics": {"hit_ratio": 0.8, "qps": 1000.0}}
]}
]=])

execute_process(
  COMMAND ${PYTHON} ${REGRESS} ${DIR}/base.json ${DIR}/same.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical files should exit 0, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} ${DIR}/base.json ${DIR}/regressed.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "metric regression should exit 1, got ${rc}:\n${out}\n${err}")
endif()
string(FIND "${out}" "hit_ratio" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "regression output does not name the metric:\n${out}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} ${DIR}/base.json ${DIR}/renamed.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "missing label should exit 1, got ${rc}:\n${out}\n${err}")
endif()
string(FIND "${out}" "closest in candidate" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "missing-label failure lacks suggestions:\n${out}")
endif()
string(FIND "${out}" "zipf_0.99_cache_256" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "suggestion does not list the renamed label:\n${out}")
endif()

# Host fingerprints: --perf compares wall-clock only on the same host; the
# model-metric comparison (CI's gate) ignores the host.
file(WRITE ${DIR}/host_a.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "Release", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0},
             "wall_ms": 100.0, "events_per_sec": 1000.0, "queries_per_sec": 100.0}]}
]=])
file(WRITE ${DIR}/host_b.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "RelWithDebInfo", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0},
             "wall_ms": 100.0, "events_per_sec": 1000.0, "queries_per_sec": 100.0}]}
]=])
file(WRITE ${DIR}/host_a_slow.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "Release", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0},
             "wall_ms": 100.0, "events_per_sec": 1000.0, "queries_per_sec": 50.0}]}
]=])

execute_process(
  COMMAND ${PYTHON} ${REGRESS} --perf ${DIR}/host_a.json ${DIR}/host_a.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--perf on the same host should exit 0, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} --perf ${DIR}/host_a.json ${DIR}/host_b.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--perf across hosts should be refused, got exit 0:\n${out}\n${err}")
endif()
string(FIND "${err}" "hosts differ" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "host refusal does not say why:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} ${DIR}/host_a.json ${DIR}/host_b.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "model-only comparison across hosts should exit 0, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} --perf --perf-tolerance 0.3 ${DIR}/host_a.json ${DIR}/host_a_slow.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "halved queries_per_sec should exit 1, got ${rc}:\n${out}\n${err}")
endif()
string(FIND "${out}" "queries_per_sec" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "queries_per_sec regression not named:\n${out}")
endif()

file(WRITE ${DIR}/reps.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "Release", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0}, "repetitions": 5,
             "wall_ms": 100.0, "wall_ms_iqr": 8.0,
             "events_per_sec": 1000.0, "events_per_sec_iqr": 80.0,
             "queries_per_sec": 100.0, "queries_per_sec_iqr": 8.0}]}
]=])
file(WRITE ${DIR}/reps_noisy.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "Release", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0}, "repetitions": 5,
             "wall_ms": 100.0, "wall_ms_iqr": 90.0,
             "events_per_sec": 1000.0, "events_per_sec_iqr": 900.0,
             "queries_per_sec": 100.0, "queries_per_sec_iqr": 90.0}]}
]=])
file(WRITE ${DIR}/reps_slow.json [=[
{"bench": "fixture", "seed": 1,
 "host": {"build_type": "Release", "nproc": 4, "cpu_model": "cpu", "compiler": "GNU 13"},
 "trials": [{"label": "des", "metrics": {"completed": 10.0}, "repetitions": 5,
             "wall_ms": 200.0, "wall_ms_iqr": 8.0,
             "events_per_sec": 500.0, "events_per_sec_iqr": 40.0,
             "queries_per_sec": 50.0, "queries_per_sec_iqr": 4.0}]}
]=])

execute_process(
  COMMAND ${PYTHON} ${REGRESS} --perf ${DIR}/reps.json ${DIR}/reps_noisy.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same medians with a wider IQR should exit 0, got ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REGRESS} --perf ${DIR}/reps.json ${DIR}/reps_slow.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "a 2x slower median should fail --perf, got ${rc}:\n${out}\n${err}")
endif()
string(FIND "${out}" "wall_ms" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "median slowdown not named:\n${out}")
endif()
