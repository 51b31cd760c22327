# Runs one paper-figure bench at REPRO_SCALE=0.05 in a scratch working
# directory and compares its stdout byte for byte with the committed
# golden (tests/golden/figures/README). Run via ctest (bench/CMakeLists.txt);
# requires BENCH, GOLDEN and WORK_DIR. With -DREGENERATE=ON it writes the
# golden instead of checking it.

foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_golden: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/stdout.txt")
if(REGENERATE)
  set(actual "${GOLDEN}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E env REPRO_SCALE=0.05 "${BENCH}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE code OUTPUT_FILE "${actual}"
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "figure_golden: ${BENCH} exited ${code}\n${err}")
endif()
if(REGENERATE)
  message(STATUS "figure_golden: wrote ${GOLDEN}")
  return()
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${actual}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  file(READ "${actual}" got)
  message(FATAL_ERROR "figure_golden: stdout of ${BENCH} differs from "
                      "${GOLDEN}; it is kept in ${actual}:\n${got}")
endif()
