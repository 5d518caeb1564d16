#include "util/error.hpp"

#include <string_view>
#include <vector>

namespace limsynth {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kInvalidConfig: return "invalid_config";
    case ErrorCode::kNonConvergence: return "non_convergence";
    case ErrorCode::kNumericalFault: return "numerical_fault";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kStaleBinding: return "stale_binding";
    case ErrorCode::kInterrupted: return "interrupted";
  }
  return "internal";
}

bool error_code_from_name(const std::string& name, ErrorCode* out) {
  for (ErrorCode code : {ErrorCode::kInternal, ErrorCode::kInvalidConfig,
                         ErrorCode::kNonConvergence, ErrorCode::kNumericalFault,
                         ErrorCode::kResourceExhausted, ErrorCode::kIo,
                         ErrorCode::kStaleBinding, ErrorCode::kInterrupted}) {
    if (name == error_code_name(code)) {
      if (out) *out = code;
      return true;
    }
  }
  return false;
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInternal: return 1;
    case ErrorCode::kInvalidConfig: return 2;
    case ErrorCode::kNonConvergence: return 3;
    case ErrorCode::kNumericalFault: return 4;
    case ErrorCode::kResourceExhausted: return 5;
    case ErrorCode::kIo: return 6;
    case ErrorCode::kStaleBinding: return 7;
    case ErrorCode::kInterrupted: return 8;
  }
  return 1;
}

namespace detail {

namespace {

std::vector<std::string>& context_stack() {
  thread_local std::vector<std::string> stack;
  return stack;
}

}  // namespace

std::string current_context() {
  const auto& stack = context_stack();
  std::string joined;
  for (const auto& frame : stack) {
    if (!joined.empty()) joined += " > ";
    joined += frame;
  }
  return joined;
}

void push_context_frame(std::string frame) {
  context_stack().push_back(std::move(frame));
}

void pop_context_frame() {
  auto& stack = context_stack();
  if (!stack.empty()) stack.pop_back();
}

std::string decorate_with_context(const std::string& what) {
  const std::string ctx = current_context();
  if (ctx.empty()) return what;
  return what + " [while " + ctx + "]";
}

void throw_check_failure(const char* expr, const char* file, int line,
                         const std::string& msg) {
  // The root is what precedes "src/util/error.cpp" in this file's own
  // path; the build names every source of the tree the same way.
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/util/error.cpp";
  std::string_view where = file;
  if (self.ends_with(tail)) {
    const std::string_view root = self.substr(0, self.size() - tail.size());
    if (where.starts_with(root)) where.remove_prefix(root.size());
  }
  std::ostringstream os;
  os << where << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(ErrorCode::kInvalidConfig, os.str());
}

}  // namespace detail

}  // namespace limsynth
