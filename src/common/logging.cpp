#include "common/logging.h"

#include <cstdarg>
#include <string>

namespace avd::util {

namespace {
constexpr std::string_view levelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      break;
  }
  return "?????";
}
}  // namespace

Logger& Logger::instance() noexcept {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view message) {
  const std::lock_guard<std::mutex> guard(mutex_);
  std::fprintf(stderr, "[%.*s] %.*s\n",
               static_cast<int>(levelName(level).size()),
               levelName(level).data(), static_cast<int>(message.size()),
               message.data());
}

void Logger::writef(LogLevel level, const char* fmt, ...) {
  char buffer[1024];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  write(level, buffer);
}

}  // namespace avd::util
