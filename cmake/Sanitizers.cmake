# Address + UndefinedBehavior sanitizer toggles for the whole tree.
# Applied globally (not per-target) so the GTest/benchmark dependencies are
# instrumented consistently with the library — mixing instrumented and
# uninstrumented archives produces false positives on container overflow.
function(rdtgc_enable_sanitizers)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(WARNING "RDTGC_SANITIZE requested but ${CMAKE_CXX_COMPILER_ID} "
                    "is not a known sanitizer-capable compiler; ignoring.")
    return()
  endif()
  add_compile_options(-fsanitize=address,undefined -fno-omit-frame-pointer)
  add_link_options(-fsanitize=address,undefined)
endfunction()

# ThreadSanitizer toggle (the `tsan` preset): incompatible with ASan, so it
# is a separate option and the top-level CMakeLists rejects combining them.
# Used to vet the FleetRunner scheduling — tests/concurrency_test.cpp is
# written to fail under tsan if it loses a guard.
function(rdtgc_enable_thread_sanitizer)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(WARNING "RDTGC_SANITIZE_THREAD requested but "
                    "${CMAKE_CXX_COMPILER_ID} is not a known "
                    "sanitizer-capable compiler; ignoring.")
    return()
  endif()
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
endfunction()
