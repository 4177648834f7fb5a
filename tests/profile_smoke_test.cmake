# Profiling end-to-end smoke, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DPYTHON=<python3> -DREPORT=<profile_report.py>
#         -DWORK_DIR=<dir> -P profile_smoke_test.cmake
#
# Runs a tiny rack with --profile-out, then checks the emitted Chrome trace
# with tools/profile_report.py: once in --validate mode (structural
# self-consistency, what CI gates on) and once as a full report with
# --min-attributed, proving the dispatcher's execute spans account for the
# run's wall-clock on a real profile, not just on fixtures.

execute_process(
  COMMAND ${SIM} rack --servers=4 --offered=120000 --duration=0.1 --seed=7
          --write-ratio=0.1
          --profile-out=${WORK_DIR}/profile_smoke.json
          --metrics-out=${WORK_DIR}/profile_smoke_metrics.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled rack run exited ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "profile ")
  message(FATAL_ERROR "stdout never mentioned the profile write:\n${out}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REPORT} --validate ${WORK_DIR}/profile_smoke.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profile_report.py --validate failed (${rc}):\n${out}\n${err}")
endif()

# The execute spans must cover >= 85% of the recording thread's extent even
# on this tiny run (the acceptance bar on the full fig10f leg is 90%; the
# smoke run is shorter, so startup cost weighs more).
execute_process(
  COMMAND ${PYTHON} ${REPORT} --min-attributed=0.85
          ${WORK_DIR}/profile_smoke.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "attribution below bar (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "Per-lane wall-clock attribution")
  message(FATAL_ERROR "report missing attribution table:\n${out}")
endif()
if(NOT out MATCHES "Switch Get pipeline")
  message(FATAL_ERROR "report missing switch-stage breakdown:\n${out}")
endif()
