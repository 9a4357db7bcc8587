# Runs PROGRAM with ARGS (a space-separated string) and requires a usage
# error: exit status 2 and one line on stderr that ends with EXPECT.
#   cmake -DPROGRAM=<path> -DARGS=<flags> -DEXPECT=<text> -P this-file
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', want 2; stderr:\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
string(LENGTH "${err}" err_len)
string(LENGTH "${EXPECT}\n" want_len)
set(tail "")
if(err_len GREATER_EQUAL want_len)
  math(EXPR at "${err_len} - ${want_len}")
  string(SUBSTRING "${err}" ${at} -1 tail)
endif()
if(NOT lines EQUAL 1 OR NOT tail STREQUAL "${EXPECT}\n")
  message(FATAL_ERROR "stderr is not one line ending in '${EXPECT}':\n${err}")
endif()
