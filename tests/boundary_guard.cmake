# Fails when production code reaches into the frozen references:
#   * a file under src/ includes a tests/ or bench/ header, or
#   * a production library defines a symbol of the bobw_reference library.
#
#   cmake -DSOURCE_DIR=<repo> -DNM=<nm> -DLIBS="<lib.a>|<lib.a>|..." \
#         -P tests/boundary_guard.cmake
#
# Registered as the ctest `reference_boundary_guard`, which passes the
# archive of every bobw_add_library target.
if(NOT SOURCE_DIR OR NOT LIBS)
  message(FATAL_ERROR "boundary_guard: SOURCE_DIR and LIBS are required")
endif()
if(NOT NM)
  find_program(NM nm REQUIRED)
endif()

set(violations "")

file(GLOB_RECURSE sources "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp")
foreach(f ${sources})
  file(STRINGS "${f}" hits REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](tests|bench)/")
  foreach(h ${hits})
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${f}")
    list(APPEND violations "${rel}: ${h}")
  endforeach()
endforeach()

# Symbols of the moved code. `Acast` and `PhaseKing` end at a non-identifier
# character so the production AcastBank / AcastShared do not match.
set(moved "bobw::(ref|legacybc|legacyvss)::|bobw::(Acast|PhaseKing|solve_linear)([^A-Za-z0-9_]|$)|bobw::rs_decode")
string(REPLACE "|" ";" libs "${LIBS}")
foreach(lib ${libs})
  if(NOT EXISTS "${lib}")
    message(FATAL_ERROR "boundary_guard: ${lib} not built")
  endif()
  get_filename_component(name "${lib}" NAME)
  execute_process(COMMAND "${NM}" -C --defined-only "${lib}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "boundary_guard: ${NM} failed on ${lib}")
  endif()
  string(REPLACE ";" "\\;" symbols "${symbols}")
  string(REPLACE "\n" ";" symbols "${symbols}")
  foreach(line IN LISTS symbols)
    if(line MATCHES "${moved}")
      list(APPEND violations "${name}: ${line}")
    endif()
  endforeach()
endforeach()

if(violations)
  list(LENGTH violations count)
  string(REPLACE ";" "\n  " shown "${violations}")
  message(FATAL_ERROR "boundary_guard: ${count} violation(s):\n  ${shown}")
endif()
list(LENGTH sources n_sources)
list(LENGTH libs n_libs)
message(STATUS "boundary_guard: ${n_sources} src/ files and ${n_libs} libraries clean")
