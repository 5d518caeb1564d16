// Error handling primitives used across limsynth.
//
// Every failure carries an ErrorCode (a small taxonomy, see below) and the
// diagnostic context stack active when it was thrown, so a failure deep in
// the transient solver reports *what* was being done ("characterize brick
// 64x16 > golden characterization of NAND2_X1"), not just *where* it threw.
//
// LIMS_CHECK is an always-on precondition/invariant check that throws
// limsynth::Error with location information. Library code throws; it never
// calls abort(), so callers (tests, DSE sweeps) can recover from bad
// configurations.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace limsynth {

/// Failure taxonomy. Codes map to stable process exit codes (see
/// exit_code_for and the README table) so scripts driving the CLI can
/// distinguish a bad sweep definition from a numerics problem.
enum class ErrorCode {
  kInternal = 0,        ///< invariant violation inside the tools
  kInvalidConfig,       ///< rejected input: bad shapes, options, arguments
  kNonConvergence,      ///< an iteration failed to reach its fixpoint
  kNumericalFault,      ///< NaN/Inf or a numerically unusable result
  kResourceExhausted,   ///< watchdog budget (iterations / wall clock) hit
  kIo,                  ///< file read/write failure
  kStaleBinding,        ///< bound design queried after its netlist changed
  kInterrupted,         ///< clean stop on SIGINT/SIGTERM (state journaled)
};

/// Stable lower_snake name of a code ("invalid_config", ...). Used in
/// journals, CSV rows, and error messages.
const char* error_code_name(ErrorCode code);

/// Parses error_code_name output back; returns false on unknown names.
bool error_code_from_name(const std::string& name, ErrorCode* out);

/// Process exit code for a failure of this class:
///   internal 1, invalid_config 2, non_convergence 3, numerical_fault 4,
///   resource_exhausted 5, io 6, stale_binding 7, interrupted 8.
/// Exit code 9 is retired (it was the removed daemon's `quarantined`) and
/// is never reused.
int exit_code_for(ErrorCode code);

namespace detail {

/// The " > "-joined diagnostic frames active on this thread (outermost
/// first); empty when no DIAG_CONTEXT is in scope.
std::string current_context();

void push_context_frame(std::string frame);
void pop_context_frame();

/// Appends " [while <context>]" to `what` when a context is active.
std::string decorate_with_context(const std::string& what);

}  // namespace detail

/// Exception type thrown by all limsynth libraries on contract violation
/// or unrecoverable input errors. Captures the diagnostic context stack at
/// the throw site; what() includes it.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : Error(ErrorCode::kInternal, what) {}
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(detail::decorate_with_context(what)),
        code_(code),
        context_(detail::current_context()) {}

  ErrorCode code() const noexcept { return code_; }
  /// The " > "-joined context frames captured at the throw site.
  const std::string& context() const noexcept { return context_; }

 private:
  ErrorCode code_ = ErrorCode::kInternal;
  std::string context_;
};

/// RAII diagnostic frame: while alive, errors thrown on this thread carry
/// its message. Use through DIAG_CONTEXT.
class DiagContext {
 public:
  explicit DiagContext(std::string frame) {
    detail::push_context_frame(std::move(frame));
  }
  ~DiagContext() { detail::pop_context_frame(); }
  DiagContext(const DiagContext&) = delete;
  DiagContext& operator=(const DiagContext&) = delete;
};

namespace detail {

/// Throws the invalid_config Error of a failed check: checks guard input
/// contracts (shapes, option ranges, pin names), so failures classify as
/// rejected configuration rather than internal bugs. `file` is printed
/// relative to the repository root, so the message reads the same in
/// every checkout.
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);

}  // namespace detail

}  // namespace limsynth

#define LIMS_DIAG_CONCAT_(a, b) a##b
#define LIMS_DIAG_CONCAT(a, b) LIMS_DIAG_CONCAT_(a, b)

/// Pushes a diagnostic frame for the rest of the enclosing scope:
///   DIAG_CONTEXT("characterize brick 64x16");
/// Accepts any std::string (or convertible) expression.
#define DIAG_CONTEXT(frame) \
  ::limsynth::DiagContext LIMS_DIAG_CONCAT(lims_diag_ctx_, __LINE__)(frame)

/// Always-on check; throws limsynth::Error when `expr` is false.
#define LIMS_CHECK(expr)                                                     \
  do {                                                                       \
    if (!(expr))                                                             \
      ::limsynth::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// Check with a streamed message: LIMS_CHECK_MSG(n > 0, "n was " << n).
#define LIMS_CHECK_MSG(expr, msg)                                        \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream lims_check_os_;                                 \
      lims_check_os_ << msg; /* NOLINT */                                \
      ::limsynth::detail::throw_check_failure(#expr, __FILE__, __LINE__, \
                                              lims_check_os_.str());     \
    }                                                                    \
  } while (0)

/// Throws a typed Error with a streamed message:
///   LIMS_FAIL(ErrorCode::kNumericalFault, "dt " << dt << " collapsed");
#define LIMS_FAIL(code, msg)                          \
  do {                                                \
    std::ostringstream lims_fail_os_;                 \
    lims_fail_os_ << msg; /* NOLINT */                \
    throw ::limsynth::Error(code, lims_fail_os_.str()); \
  } while (0)

/// Unreachable-code marker.
#define LIMS_UNREACHABLE(msg)                                              \
  ::limsynth::detail::throw_check_failure("unreachable", __FILE__, __LINE__, \
                                          msg)
