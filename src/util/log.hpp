// Minimal leveled logger. Output goes to stderr so benches/examples can
// print clean tables on stdout.
#pragma once

#include <sstream>
#include <string>

namespace limsynth {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Log threshold (kWarn); messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_emit(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace limsynth

#define LIMS_LOG(level)                                        \
  if (static_cast<int>(::limsynth::log_level()) <=             \
      static_cast<int>(::limsynth::LogLevel::level))           \
  ::limsynth::detail::LogLine(::limsynth::LogLevel::level)

#define LIMS_DEBUG LIMS_LOG(kDebug)
#define LIMS_INFO LIMS_LOG(kInfo)
#define LIMS_WARN LIMS_LOG(kWarn)
#define LIMS_ERROR LIMS_LOG(kError)
