# Test driver for the command-line tools' bad-input contract: exit status 2
# with an error message and the usage text. Runs EXE with ARGS (split like
# a shell would) and fails unless it exits 2 and its output matches EXPECT.
#
#   cmake -DEXE=<program> "-DARGS=<args>" "-DEXPECT=<regex>"
#         -P ExpectUsageError.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}':\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
