// Contract macros: the runtime half of the determinism audit layer.
//
// Three tiers (DESIGN.md "Correctness & static analysis"):
//
//   DLION_ASSERT(cond [, detail])       always-on, cheap invariants. Use for
//                                       checks on the order of a compare on
//                                       state that is already in a register
//                                       (index bounds on a cold path, event-
//                                       time monotonicity, non-empty pops).
//   DLION_DCHECK(cond [, detail])       debug/sanitize-only. Free in release
//                                       builds (compiled but discarded), so
//                                       it may sit on hot paths and perform
//                                       O(n) scans. Enabled whenever NDEBUG
//                                       is unset or the build is sanitized
//                                       (DLION_SANITIZE=address/thread).
//   DLION_CHECK_SHAPE(a, b)             always-on tensor-shape agreement;
//                                       failure messages include both shapes.
//
// A failed contract calls the process-wide failure handler: by default it
// logs `file:line: MACRO(expr) failed: detail` and aborts (binaries want a
// core dump at the violation, not an unwound stack). Tests install the
// throwing mode via ScopedContractThrow and assert on ContractViolation, so
// every contract is unit-testable without death tests.
//
// These macros guard *internal invariants* — states the program logically
// cannot reach. Errors a caller can trigger with bad input (an update
// naming a variable the model lacks, user-supplied config) keep their typed
// exceptions (apply_gradient_update's std::out_of_range,
// std::invalid_argument); contracts are not control flow.
#pragma once

#include <stdexcept>
#include <string>

namespace dlion::common {

/// Thrown by failed contracts when the failure mode is kThrow (tests).
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

enum class ContractFailureMode {
  kAbort,  ///< log to stderr, then std::abort() (default; binaries)
  kThrow,  ///< throw ContractViolation (tests)
};

ContractFailureMode contract_failure_mode();
void set_contract_failure_mode(ContractFailureMode mode);

/// RAII: switch contract failures to throwing for the enclosing scope.
/// Restores the previous mode on destruction. Used by tests:
///
///   common::ScopedContractThrow guard;
///   EXPECT_THROW(queue.pop(), common::ContractViolation);
class ScopedContractThrow {
 public:
  ScopedContractThrow();
  ~ScopedContractThrow();
  ScopedContractThrow(const ScopedContractThrow&) = delete;
  ScopedContractThrow& operator=(const ScopedContractThrow&) = delete;

 private:
  ContractFailureMode previous_;
};

/// Report a failed contract. Aborts or throws per the failure mode; never
/// returns normally.
[[noreturn]] void contract_fail(const char* macro, const char* file, int line,
                                const char* expr,
                                const std::string& detail = {});

/// True when DLION_DCHECK bodies are active in this build.
#if !defined(NDEBUG) || defined(DLION_SANITIZE_BUILD) || \
    defined(DLION_FORCE_DCHECKS)
inline constexpr bool kDchecksEnabled = true;
#else
inline constexpr bool kDchecksEnabled = false;
#endif

}  // namespace dlion::common

/// Always-on invariant. Optional second argument: a std::string (or
/// convertible) with extra context, evaluated only on failure.
#define DLION_ASSERT(cond, ...)                                        \
  do {                                                                 \
    if (!(cond)) [[unlikely]] {                                        \
      ::dlion::common::contract_fail("DLION_ASSERT", __FILE__,         \
                                     __LINE__, #cond __VA_OPT__(, )    \
                                         __VA_ARGS__);                 \
    }                                                                  \
  } while (0)

/// Debug/sanitize-only invariant; the condition is compiled (names stay
/// checked) but discarded in plain release builds.
#define DLION_DCHECK(cond, ...)                                        \
  do {                                                                 \
    if constexpr (::dlion::common::kDchecksEnabled) {                  \
      if (!(cond)) [[unlikely]] {                                      \
        ::dlion::common::contract_fail("DLION_DCHECK", __FILE__,       \
                                       __LINE__, #cond __VA_OPT__(, )  \
                                           __VA_ARGS__);               \
      }                                                                \
    }                                                                  \
  } while (0)

/// Always-on shape agreement for anything with operator== and to_string()
/// (tensor::Shape). The failure message carries both shapes.
#define DLION_CHECK_SHAPE(a, b)                                        \
  do {                                                                 \
    if (!((a) == (b))) [[unlikely]] {                                  \
      ::dlion::common::contract_fail(                                  \
          "DLION_CHECK_SHAPE", __FILE__, __LINE__, #a " == " #b,       \
          (a).to_string() + " vs " + (b).to_string());                 \
    }                                                                  \
  } while (0)
