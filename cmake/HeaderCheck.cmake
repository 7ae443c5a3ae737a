# Header self-containedness gate: every public header under src/ must
# compile as the sole include of a translation unit, so hidden transitive-
# include dependencies cannot accumulate. One TU per header is generated
# into the build tree and compiled as an OBJECT library; the ctest entry
# (label "lint") builds that target, so `ctest -L lint` catches a header
# that stopped standing on its own.
file(GLOB_RECURSE NLC_PUBLIC_HEADERS RELATIVE ${CMAKE_SOURCE_DIR}/src
     CONFIGURE_DEPENDS ${CMAKE_SOURCE_DIR}/src/*.hpp)

set(NLC_HEADER_CHECK_TUS "")
foreach(hdr ${NLC_PUBLIC_HEADERS})
  string(REPLACE "/" "_" tu_name ${hdr})
  string(REPLACE ".hpp" ".cpp" tu_name ${tu_name})
  set(tu ${CMAKE_BINARY_DIR}/header_check/${tu_name})
  file(WRITE ${tu} "// generated: self-containedness TU\n#include \"${hdr}\"\n")
  list(APPEND NLC_HEADER_CHECK_TUS ${tu})
endforeach()

add_library(nlc_header_check OBJECT EXCLUDE_FROM_ALL ${NLC_HEADER_CHECK_TUS})
target_include_directories(nlc_header_check PRIVATE ${CMAKE_SOURCE_DIR}/src)

# The test runs alone (RUN_SERIAL), so it compiles the TUs on every
# logical core of the configuring host. A bare --parallel would hand make
# an unlimited -j.
cmake_host_system_information(RESULT NLC_HEADER_CHECK_JOBS
                              QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT NLC_HEADER_CHECK_JOBS GREATER 0)
  set(NLC_HEADER_CHECK_JOBS 1)
endif()
add_test(NAME header_selfcontained
         COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
                 --target nlc_header_check
                 --parallel ${NLC_HEADER_CHECK_JOBS})
set_tests_properties(header_selfcontained PROPERTIES LABELS lint TIMEOUT 600
                     RUN_SERIAL TRUE)
