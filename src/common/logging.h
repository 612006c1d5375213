// Minimal leveled logger.
//
// Simulations are extremely chatty at trace level (every message delivery),
// so the level check happens before any formatting work. The logger is a
// process-wide singleton because log output is an observability side channel,
// not part of any component's behaviour.
#pragma once

#include <cstdio>
#include <mutex>
#include <string_view>

namespace avd::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance() noexcept;

  void setLevel(LogLevel level) noexcept { level_ = level; }
  LogLevel level() const noexcept { return level_; }
  bool enabled(LogLevel level) const noexcept { return level >= level_; }

  void write(LogLevel level, std::string_view message);

  /// printf-style formatting entry point used by the AVD_LOG_* macros.
  [[gnu::format(printf, 3, 4)]] void writef(LogLevel level, const char* fmt,
                                            ...);

 private:
  Logger() = default;

  LogLevel level_ = LogLevel::kWarn;
  std::mutex mutex_;
};

#define AVD_LOG_AT(level, ...)                                       \
  do {                                                               \
    ::avd::util::Logger& avdLogger = ::avd::util::Logger::instance(); \
    if (avdLogger.enabled(level)) avdLogger.writef(level, __VA_ARGS__); \
  } while (0)

#define AVD_LOG_TRACE(...) AVD_LOG_AT(::avd::util::LogLevel::kTrace, __VA_ARGS__)
#define AVD_LOG_DEBUG(...) AVD_LOG_AT(::avd::util::LogLevel::kDebug, __VA_ARGS__)
#define AVD_LOG_INFO(...) AVD_LOG_AT(::avd::util::LogLevel::kInfo, __VA_ARGS__)
#define AVD_LOG_WARN(...) AVD_LOG_AT(::avd::util::LogLevel::kWarn, __VA_ARGS__)
#define AVD_LOG_ERROR(...) AVD_LOG_AT(::avd::util::LogLevel::kError, __VA_ARGS__)

}  // namespace avd::util
