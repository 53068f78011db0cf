# Passed as CMAKE_PROJECT_aropuf_INCLUDE when run.py configures the
# repository: once the top-level CMakeLists.txt has defined every library
# target, include the benchmark's build file (perfbench/CMakeLists.txt).
# Deferred arguments expand when the call runs, hence the variable.
set(PERFBENCH_BUILD_FILE "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL include "${PERFBENCH_BUILD_FILE}")
