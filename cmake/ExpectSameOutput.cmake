# Test script for a knob that must not change what a program prints. Runs
# EXE once with the environment additions ENV_A and once with ENV_B (each a
# space-separated list of VAR=value) and fails unless both exit 0 and
# their stdout is the same once the text of every line from a match of
# DROP (a regex, e.g. the tag of a wall-clock summary line) is removed.
#
#   cmake -DEXE=<program> "-DENV_A=<VAR=value ...>" "-DENV_B=<VAR=value ...>"
#         "-DDROP=<regex>" -P ExpectSameOutput.cmake
foreach(run A B)
  separate_arguments(env UNIX_COMMAND "${ENV_${run}}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E env ${env} "${EXE}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "run with ${ENV_${run}} exited '${rc}':\n${err}")
  endif()
  if(DEFINED DROP)
    string(REGEX REPLACE "${DROP}[^\n]*" "" out "${out}")
  endif()
  set(out_${run} "${out}")
endforeach()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR "output differs\n--- with ${ENV_A}:\n${out_A}\n"
                      "--- with ${ENV_B}:\n${out_B}")
endif()
