# Runs `bench_json_check --against` on a drifted fixture and passes only if
# it exits 1 and names the drifted field (a crash or a usage error fails).
execute_process(
  COMMAND ${CHECK} --against ${COMMITTED} ${FRESH} --fields ${FIELDS}
  RESULT_VARIABLE result
  ERROR_VARIABLE errors)
if(NOT result EQUAL 1)
  message(FATAL_ERROR "expected exit 1 on drift, got ${result}: ${errors}")
endif()
if(NOT errors MATCHES "hier_32node\\.delivered_bytes differs")
  message(FATAL_ERROR "drift not reported as expected: ${errors}")
endif()
message(STATUS "drift reported: ${errors}")
