// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
//
// These are the standard capability annotations from Clang's
// -Wthread-safety analysis, named after the Abseil convention. Annotate
// every mutex-owning class: GUARDED_BY on fields, REQUIRES on private
// *_locked helpers, ACQUIRE/RELEASE on lock wrappers. GCC compiles the
// macros away, so tier-1 builds are unaffected; the PE_THREAD_SAFETY
// CMake option turns the analysis into errors under clang.
//
// See DESIGN.md "Concurrency invariants" for the lock hierarchy these
// annotations (plus TSan's deadlock detector at run time) enforce.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define PE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PE_THREAD_ANNOTATION(x)  // no-op
#endif

// Class attributes: marks a type as a lockable capability / RAII scope.
#define PE_CAPABILITY(x) PE_THREAD_ANNOTATION(capability(x))
#define PE_SCOPED_CAPABILITY PE_THREAD_ANNOTATION(scoped_lockable)

// Field attributes.
#define PE_GUARDED_BY(x) PE_THREAD_ANNOTATION(guarded_by(x))
#define PE_PT_GUARDED_BY(x) PE_THREAD_ANNOTATION(pt_guarded_by(x))
#define PE_ACQUIRED_BEFORE(...) PE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PE_ACQUIRED_AFTER(...) PE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function attributes.
#define PE_REQUIRES(...) \
  PE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PE_REQUIRES_SHARED(...) \
  PE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PE_ACQUIRE(...) PE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PE_ACQUIRE_SHARED(...) \
  PE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PE_RELEASE(...) PE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PE_RELEASE_SHARED(...) \
  PE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PE_RELEASE_GENERIC(...) \
  PE_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define PE_TRY_ACQUIRE(...) \
  PE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PE_TRY_ACQUIRE_SHARED(...) \
  PE_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define PE_EXCLUDES(...) PE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PE_ASSERT_CAPABILITY(x) PE_THREAD_ANNOTATION(assert_capability(x))
#define PE_RETURN_CAPABILITY(x) PE_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: analysis cannot follow this function (lambdas passed to
// condition_variable::wait that read guarded fields, etc.).
#define PE_NO_THREAD_SAFETY_ANALYSIS \
  PE_THREAD_ANNOTATION(no_thread_safety_analysis)
