# Sanitizer build matrix support.
#
# AVD_SANITIZE is a semicolon list drawn from {address, undefined, thread,
# leak}; e.g.
#   cmake -B build-asan -DAVD_SANITIZE="address;undefined"
#   cmake -B build-tsan -DAVD_SANITIZE=thread
# Flags are applied globally (compile + link) so every target in the tree —
# libraries, tests, benches, examples, tools — is instrumented; a partially
# sanitized binary produces false negatives.
#
# AVD_WERROR turns the existing -Wall -Wextra into hard errors; CI builds
# with it ON so new warnings cannot land.

set(AVD_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizers: address;undefined;thread;leak")
option(AVD_WERROR "Treat compiler warnings as errors" OFF)

if(AVD_SANITIZE)
  set(_avd_san_flags "")
  set(_avd_has_address FALSE)
  set(_avd_has_thread FALSE)
  foreach(_san IN LISTS AVD_SANITIZE)
    if(_san STREQUAL "address")
      list(APPEND _avd_san_flags -fsanitize=address)
      set(_avd_has_address TRUE)
    elseif(_san STREQUAL "undefined")
      # Recoverable UB would let a test pass while still being wrong;
      # make every UBSan hit fatal.
      list(APPEND _avd_san_flags -fsanitize=undefined
           -fno-sanitize-recover=undefined)
    elseif(_san STREQUAL "thread")
      list(APPEND _avd_san_flags -fsanitize=thread)
      set(_avd_has_thread TRUE)
    elseif(_san STREQUAL "leak")
      list(APPEND _avd_san_flags -fsanitize=leak)
    else()
      message(FATAL_ERROR
              "AVD_SANITIZE: unknown sanitizer '${_san}' "
              "(expected address, undefined, thread, or leak)")
    endif()
  endforeach()

  if(_avd_has_address AND _avd_has_thread)
    message(FATAL_ERROR
            "AVD_SANITIZE: address and thread sanitizers are mutually "
            "exclusive; build them as separate trees")
  endif()

  list(REMOVE_DUPLICATES _avd_san_flags)
  # Frame pointers keep sanitizer stack traces usable in optimized builds.
  add_compile_options(${_avd_san_flags} -fno-omit-frame-pointer -g)
  add_link_options(${_avd_san_flags})
  message(STATUS "AVD: sanitizers enabled: ${AVD_SANITIZE}")
endif()

if(AVD_WERROR)
  add_compile_options(-Werror)
endif()
