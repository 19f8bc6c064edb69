# Target helpers shared by every CMakeLists.txt in the tree.

# dml_add_module(<name> SOURCES <files...> [DEPS <targets...>])
#
# Defines the static library dml_<name> (alias dml::<name>) rooted at src/.
# DEPS are linked PUBLIC so transitive module dependencies (bp -> graph ->
# common, ...) propagate to tests and drivers automatically.
function(dml_add_module name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  set(target dml_${name})
  add_library(${target} STATIC ${ARG_SOURCES})
  add_library(dml::${name} ALIAS ${target})
  target_include_directories(${target} PUBLIC ${PROJECT_SOURCE_DIR}/src)
  target_compile_features(${target} PUBLIC cxx_std_20)
  target_compile_options(${target} PRIVATE ${DML_WARNING_FLAGS})
  target_link_libraries(${target} PUBLIC ${ARG_DEPS} Threads::Threads)
  dml_enable_clang_tidy(${target})
endfunction()

# dml_enable_clang_tidy(<target>)
#
# Attaches the clang-tidy wall (.clang-tidy at the repo root, findings are
# errors) to one target when -DDML_CLANG_TIDY=ON resolved a binary. A no-op
# otherwise, so the gcc-only container builds unchanged.
function(dml_enable_clang_tidy target)
  if(DML_CLANG_TIDY_COMMAND)
    set_target_properties(${target} PROPERTIES
      CXX_CLANG_TIDY "${DML_CLANG_TIDY_COMMAND}")
  endif()
endfunction()

# dml_add_test(<source> MODULE <module> NAME <name>
#              LIBS <targets...> [LABELS <labels...>])
#
# Registers one GoogleTest suite: builds <module>_<name> from the source
# file, links gtest_main, and adds the ctest entry "<module>/<name>" labeled
# with its module plus any extra LABELS. The caller derives module/name from
# the path (tests/CMakeLists.txt is the single place that parses layout).
function(dml_add_test src)
  cmake_parse_arguments(ARG "" "MODULE;NAME" "LIBS;LABELS" ${ARGN})
  set(module ${ARG_MODULE})
  set(name ${ARG_NAME})
  set(target ${module}_${name})
  add_executable(${target} ${src})
  target_compile_options(${target} PRIVATE ${DML_AUX_WARNING_FLAGS})
  target_link_libraries(${target} PRIVATE ${ARG_LIBS} GTest::gtest_main)
  add_test(NAME ${module}/${name} COMMAND ${target})
  set_tests_properties(${module}/${name} PROPERTIES
    LABELS "${module};${ARG_LABELS}"
    TIMEOUT 300)
endfunction()

# dml_add_driver(<kind> <source> LIBS <targets...> [RUN_SMOKE])
#
# Registers a bench/ or examples/ executable plus a ctest smoke entry
# "<kind>/build_<name>" (label: smoke) that checks the built binary exists.
# The target is part of ALL, so compilation breakage fails the build itself;
# the smoke entry keeps every driver visible in ctest without spawning a
# nested `cmake --build` (concurrent sub-builds corrupt ninja state when
# ctest runs under `ninja test`).
#
# RUN_SMOKE additionally registers "<kind>/run_<name>" (label: run-smoke),
# which executes the driver and asserts a zero exit code plus non-empty
# table output (DmlRunSmoke.cmake). When tests/golden/<kind>/<name>.txt
# exists, the driver's stdout must equal it byte for byte. CI runs these as
# `ctest -L run-smoke`.
function(dml_add_driver kind src)
  cmake_parse_arguments(ARG "RUN_SMOKE" "" "LIBS" ${ARGN})
  get_filename_component(name ${src} NAME_WE)
  add_executable(${name} ${src})
  target_compile_options(${name} PRIVATE ${DML_AUX_WARNING_FLAGS})
  target_link_libraries(${name} PRIVATE ${ARG_LIBS})
  add_test(NAME ${kind}/build_${name}
    COMMAND ${CMAKE_COMMAND} -E md5sum $<TARGET_FILE:${name}>)
  set_tests_properties(${kind}/build_${name} PROPERTIES
    LABELS "smoke;${kind}"
    TIMEOUT 60)
  if(ARG_RUN_SMOKE)
    set(golden ${PROJECT_SOURCE_DIR}/tests/golden/${kind}/${name}.txt)
    set(expect_stdout)
    if(EXISTS ${golden})
      set(expect_stdout -DEXPECT_STDOUT=${golden})
    endif()
    add_test(NAME ${kind}/run_${name}
      COMMAND ${CMAKE_COMMAND} -DDRIVER=$<TARGET_FILE:${name}>
              ${expect_stdout}
              -P ${PROJECT_SOURCE_DIR}/cmake/DmlRunSmoke.cmake)
    set_tests_properties(${kind}/run_${name} PROPERTIES
      LABELS "run-smoke;${kind}"
      TIMEOUT 300)
  endif()
endfunction()

# dml_add_reject_smoke(<kind> <driver> <case> <flag>)
#
# Registers "<kind>/reject_<driver>_<case>" (labels: run-smoke, <kind>): the
# driver, run with <flag>, must refuse it with exit code 1 and an
# InvalidArgument on stderr — never an abort, never a table of nan/inf rows
# (DmlRunSmoke.cmake with EXPECT_RC).
function(dml_add_reject_smoke kind driver case flag)
  set(test ${kind}/reject_${driver}_${case})
  add_test(NAME ${test}
    COMMAND ${CMAKE_COMMAND} -DDRIVER=$<TARGET_FILE:${driver}>
            -DARGS=${flag} -DEXPECT_RC=1
            -P ${PROJECT_SOURCE_DIR}/cmake/DmlRunSmoke.cmake)
  set_tests_properties(${test} PROPERTIES
    LABELS "run-smoke;${kind}"
    TIMEOUT 60)
endfunction()
