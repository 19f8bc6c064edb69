# Run-smoke harness for the bench and example drivers:
#   cmake -DDRIVER=<binary> [-DARGS=<flags>] [-DEXPECT_RC=<code>]
#         [-DEXPECT_STDOUT=<file>] -P DmlRunSmoke.cmake
# ARGS is a ;-list of flags passed to the driver.
#
# With EXPECT_RC unset or 0, fails when the driver exits non-zero OR prints
# no table (every driver renders at least one TablePrinter table, whose
# header rule is a run of dashes). PASS_REGULAR_EXPRESSION alone would
# ignore the exit code. With EXPECT_STDOUT, stdout must also equal that
# file byte for byte; a mismatch names the first differing line.
#
# With a nonzero EXPECT_RC this is a reject-smoke for a flag value the
# driver must refuse: it must exit with exactly EXPECT_RC (an abort is not a
# rejection), say InvalidArgument on stderr, and print no nan/inf token on
# stdout (no half-printed table of non-finite numbers before the error).
cmake_policy(VERSION 3.16)  # -P scripts start with every policy unset
if(NOT DRIVER)
  message(FATAL_ERROR "DmlRunSmoke.cmake requires -DDRIVER=<binary>")
endif()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

execute_process(COMMAND ${DRIVER} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "${DRIVER} ${ARGS} exited with ${rc}, expected ${EXPECT_RC}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()

if(EXPECT_RC EQUAL 0)
  if(NOT out MATCHES "----")
    message(FATAL_ERROR
      "${DRIVER} ${ARGS} produced no table output\nstdout:\n${out}")
  endif()
  if(DEFINED EXPECT_STDOUT)
    file(READ "${EXPECT_STDOUT}" want)
    if(NOT out STREQUAL want)
      # Walk both outputs a line at a time to the first difference.
      set(got "${out}")
      set(line 1)
      while(TRUE)
        string(FIND "${got}" "\n" got_end)
        string(FIND "${want}" "\n" want_end)
        string(SUBSTRING "${got}" 0 ${got_end} got_line)
        string(SUBSTRING "${want}" 0 ${want_end} want_line)
        if(NOT got_line STREQUAL want_line OR got_end EQUAL -1 OR
           want_end EQUAL -1)
          break()
        endif()
        math(EXPR got_end "${got_end} + 1")
        math(EXPR want_end "${want_end} + 1")
        string(SUBSTRING "${got}" ${got_end} -1 got)
        string(SUBSTRING "${want}" ${want_end} -1 want)
        math(EXPR line "${line} + 1")
      endwhile()
      message(FATAL_ERROR
        "${DRIVER} ${ARGS}: stdout differs from ${EXPECT_STDOUT} at line "
        "${line}\nexpected: ${want_line}\nactual:   ${got_line}")
    endif()
  endif()
  message(STATUS "run-smoke OK: ${DRIVER} ${ARGS}")
  return()
endif()

if(NOT err MATCHES "InvalidArgument")
  message(FATAL_ERROR
    "${DRIVER} ${ARGS} exited with ${rc} but stderr names no "
    "InvalidArgument\nstderr:\n${err}")
endif()
if(out MATCHES "(^|[^A-Za-z_])([Nn][Aa][Nn]|[Ii][Nn][Ff])([^A-Za-z_]|$)")
  message(FATAL_ERROR
    "${DRIVER} ${ARGS} printed a non-finite value before rejecting the "
    "flag\nstdout:\n${out}")
endif()
message(STATUS "reject-smoke OK: ${DRIVER} ${ARGS} -> ${rc}")
