# Injected into the repository's top-level project() call through
# CMAKE_PROJECT_INCLUDE (see run.py). Deferring to the end of the top-level
# CMakeLists lets the benchmark targets inherit the compile flags and
# library targets the repository defines, without the repository knowing
# about the benchmark.
set(PPG_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
  CALL include ${PPG_PERFBENCH_DIR}/perfbench.cmake)
