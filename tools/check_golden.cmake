# Run one program and compare its stdout, and the JSON file a --quick
# bench writes, byte for byte with the committed golden files. stderr is
# not compared: log lines such as [WARN] go there.
#
#   cmake -DPROG=<exe> -DGOLDEN=<stdout golden> [-DARGS="<args>"]
#         [-DJSON=<file the program writes> -DJSON_GOLDEN=<json golden>]
#         -P check_golden.cmake
#
# ARGS is one space-separated string. Relative paths in it resolve in the
# working directory. With WILE_UPDATE_GOLDENS=1 in the environment the
# script writes the golden files instead of comparing them
# (tools/update_goldens.sh). A non-zero exit fails either way.
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(JSON)
  file(REMOVE "${JSON}")  # compare only what this run writes
endif()
execute_process(COMMAND "${PROG}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${PROG} ${ARGS} exited with ${rc}\n${out}\n${err}")
endif()

set(mismatches 0)
# Write `content` to `golden` in update mode; otherwise compare, and on a
# difference leave the actual bytes in the working directory and diff.
function(check content golden)
  if("$ENV{WILE_UPDATE_GOLDENS}" STREQUAL "1")
    file(WRITE "${golden}" "${content}")
    return()
  endif()
  file(READ "${golden}" expected)
  get_filename_component(name "${golden}" NAME)
  if(content STREQUAL expected)
    file(REMOVE "${name}.actual")
    return()
  endif()
  file(WRITE "${name}.actual" "${content}")
  message("--- ${golden} differs from ${name}.actual:")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${golden}" "${name}.actual")
  endif()
  math(EXPR n "${mismatches} + 1")
  set(mismatches ${n} PARENT_SCOPE)
endfunction()

check("${out}" "${GOLDEN}")
if(JSON)
  file(READ "${JSON}" json)
  check("${json}" "${JSON_GOLDEN}")
endif()
if(mismatches GREATER 0)
  message(FATAL_ERROR "${PROG}: output differs from the golden files. If the change is "
                      "deliberate, regenerate them with tools/update_goldens.sh.")
endif()
