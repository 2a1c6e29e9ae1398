# Reruns one figure or ablation bench and compares its `csv,` lines with the
# committed golden, byte for byte.
#
#   cmake -DBENCH=<bench executable> -DGOLDEN=<golden .csv> -DOUT=<scratch
#         path> -P compare_figure.cmake
#
# The benches are deterministic simulations, so any difference is a change
# in modeled behaviour, not noise. To accept an intended change, rerun the
# bench and replace the golden with its `csv,` lines (`<bench> | grep
# '^csv,' > tests/golden/figures/<bench>.csv`).
foreach(var BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_figure.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}.log"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()

file(STRINGS "${OUT}.log" lines REGEX "^csv,")
set(csv "")
foreach(line IN LISTS lines)
  string(APPEND csv "${line}\n")
endforeach()
file(WRITE "${OUT}" "${csv}")

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "csv lines of ${BENCH} differ from ${GOLDEN}; "
                      "output kept in ${OUT}")
endif()
