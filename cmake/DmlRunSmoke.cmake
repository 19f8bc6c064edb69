# Run-smoke harness for drivers ported onto the api facade:
#   cmake -DDRIVER=<binary> [-DARGS=<flags>] [-DEXPECT_RC=<code>]
#         -P DmlRunSmoke.cmake
# ARGS is a ;-list of flags passed to the driver.
#
# With EXPECT_RC unset or 0, fails when the driver exits non-zero OR prints
# no table (every facade driver renders at least one TablePrinter table,
# whose header rule is a run of dashes). PASS_REGULAR_EXPRESSION alone would
# ignore the exit code.
#
# With a nonzero EXPECT_RC this is a reject-smoke for a flag value the
# driver must refuse: it must exit with exactly EXPECT_RC (an abort is not a
# rejection), say InvalidArgument on stderr, and print no nan/inf token on
# stdout (no half-printed table of non-finite numbers before the error).
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
