// bench_host.hpp — where a bench ran, for the record in its BENCH_*.json.
#pragma once

#include <sys/utsname.h>

#include <string>

namespace stordep::bench {

/// uname's sysname, release and machine, e.g. "Linux 6.1.0 x86_64".
inline std::string hostDescription() {
  utsname name{};
  if (uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release + " " + name.machine;
}

/// The compiler that built the bench (`__VERSION__`).
inline constexpr const char* kCompiler = __VERSION__;

}  // namespace stordep::bench
