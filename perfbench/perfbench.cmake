# The benchmark binary. Included at the end of the repository's top-level
# CMakeLists (see project_hook.cmake), so it links the repository's own
# library targets and compiles with the repository's flags.
add_executable(ppg_perfbench
  ${PPG_PERFBENCH_DIR}/main.cpp
  ${PPG_PERFBENCH_DIR}/harness.cpp
  ${PPG_PERFBENCH_DIR}/workloads_dcgen.cpp
  ${PPG_PERFBENCH_DIR}/workload_fleet.cpp)
target_include_directories(ppg_perfbench PRIVATE ${CMAKE_SOURCE_DIR}/src)
target_link_libraries(ppg_perfbench PRIVATE ppg_fleet ppg_core ppg_eval
                      ppg_data)
