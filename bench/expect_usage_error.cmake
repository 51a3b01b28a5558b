# ctest helper: runs CMD (a list: program then arguments) and passes only
# if it exits with status 2, the driver's usage-error code, and its output
# contains EXPECT.
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CMD} exited ${rc}, expected 2:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output of ${CMD} lacks '${EXPECT}':\n${out}")
endif()
