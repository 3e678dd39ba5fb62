// Minimal leveled logging.  The framework is a library first: logging is off
// by default (Warn) and bench/example binaries opt in to Info.
#pragma once

#include <sstream>
#include <string>

namespace snnmap::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Sets the global threshold; messages below it are discarded.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Emits one line ("[level] message") to stderr if enabled.
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::Info) {
    log_message(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
  }
}

template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::Warn) {
    log_message(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
  }
}

}  // namespace snnmap::util
