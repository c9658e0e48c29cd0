# Build file of the benchmark runner. It is not a project of its own: it is
# injected into the repository's CMake project with
#   cmake -S <repo> -B .bench_build -DCMAKE_PROJECT_impeccable_INCLUDE=perfbench/build.cmake
# so the program under test is compiled with exactly the flags, build type
# and library targets the repository build defines. The runner target is
# declared once the root CMakeLists.txt has declared every impeccable_*
# library (deferred to the end of the root directory).

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_runner)
  add_executable(perfbench_runner
    ${PERFBENCH_DIR}/runner/main.cpp
    ${PERFBENCH_DIR}/runner/campaign.cpp
    ${PERFBENCH_DIR}/runner/screen.cpp
    ${PERFBENCH_DIR}/runner/serve.cpp
    ${PERFBENCH_DIR}/runner/util.cpp
  )
  target_link_libraries(perfbench_runner PRIVATE
    impeccable_core impeccable_serve impeccable_ml impeccable_chem
    impeccable_obs impeccable_common)
  # The effective build type and flags, for the host fingerprint.
  string(TOUPPER "${CMAKE_BUILD_TYPE}" build_type)
  get_directory_property(options DIRECTORY "${CMAKE_SOURCE_DIR}" COMPILE_OPTIONS)
  string(JOIN " " flags ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${build_type}} ${options})
  target_compile_definitions(perfbench_runner PRIVATE
    "PERFBENCH_BUILD_TYPE=\"${CMAKE_BUILD_TYPE}\""
    "PERFBENCH_CXX_FLAGS=\"${flags}\"")
  set_target_properties(perfbench_runner PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_runner)
