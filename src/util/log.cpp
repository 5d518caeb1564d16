#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace limsynth {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarn;
std::mutex g_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

LogLevel log_level() { return kLevel; }

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(kLevel)) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[limsynth %s] %s\n", level_tag(level), msg.c_str());
}
}  // namespace detail

}  // namespace limsynth
