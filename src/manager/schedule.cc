#include "src/manager/schedule.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "src/util/string_util.h"

namespace fremont {

namespace {

// The whole of `text` as a decimal Int: nullopt for an empty token, a stray
// character anywhere, or a value Int cannot hold.
template <typename Int>
std::optional<Int> ParseNumber(std::string_view text) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<Duration> ParseScheduleDuration(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  char suffix = text.back();
  std::string_view digits = text;
  int64_t multiplier = 1;  // Seconds by default.
  if (suffix == 's' || suffix == 'm' || suffix == 'h' || suffix == 'd') {
    digits.remove_suffix(1);
    switch (suffix) {
      case 's':
        multiplier = 1;
        break;
      case 'm':
        multiplier = 60;
        break;
      case 'h':
        multiplier = 3600;
        break;
      case 'd':
        multiplier = 86400;
        break;
    }
  }
  // Unsigned, so a sign is a stray character. The bound keeps the result
  // inside Duration's int64_t microseconds.
  const std::optional<uint64_t> count = ParseNumber<uint64_t>(digits);
  if (!count.has_value() ||
      *count > static_cast<uint64_t>(std::numeric_limits<int64_t>::max() / 1000000 / multiplier)) {
    return std::nullopt;
  }
  return Duration::Seconds(static_cast<int64_t>(*count) * multiplier);
}

std::string FormatScheduleDuration(Duration d) {
  const int64_t seconds = d.ToSeconds();
  if (seconds % 86400 == 0 && seconds != 0) {
    return std::to_string(seconds / 86400) + "d";
  }
  if (seconds % 3600 == 0 && seconds != 0) {
    return std::to_string(seconds / 3600) + "h";
  }
  if (seconds % 60 == 0 && seconds != 0) {
    return std::to_string(seconds / 60) + "m";
  }
  return std::to_string(seconds) + "s";
}

std::string FormatScheduleFile(const std::vector<ModuleSchedule>& modules) {
  std::string out = "# Fremont Discovery Manager startup/history file\n";
  for (const auto& m : modules) {
    out += StringPrintf("module %s min %s max %s interval %s last_run %lld ever_run %d "
                        "last_discovered %d\n",
                        m.name.c_str(), FormatScheduleDuration(m.min_interval).c_str(),
                        FormatScheduleDuration(m.max_interval).c_str(),
                        FormatScheduleDuration(m.current_interval).c_str(),
                        static_cast<long long>(m.last_run.ToMicros()), m.ever_run ? 1 : 0,
                        m.last_discovered);
  }
  return out;
}

std::optional<std::vector<ModuleSchedule>> ParseScheduleFile(const std::string& text) {
  std::vector<ModuleSchedule> modules;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    std::istringstream fields{std::string(trimmed)};
    std::string keyword;
    fields >> keyword;
    if (keyword != "module") {
      return std::nullopt;
    }
    ModuleSchedule m;
    fields >> m.name;
    std::string key, value;
    bool ok = !m.name.empty();
    while (ok && fields >> key) {
      if (!(fields >> value)) {
        ok = false;  // A key with no value.
      } else if (key == "min" || key == "max" || key == "interval") {
        auto d = ParseScheduleDuration(value);
        if (!d.has_value()) {
          ok = false;
          break;
        }
        if (key == "min") {
          m.min_interval = *d;
        } else if (key == "max") {
          m.max_interval = *d;
        } else {
          m.current_interval = *d;
        }
      } else if (key == "last_run") {
        const std::optional<int64_t> micros = ParseNumber<int64_t>(value);
        ok = micros.has_value();
        m.last_run = SimTime::FromMicros(micros.value_or(0));
      } else if (key == "ever_run") {
        ok = value == "0" || value == "1";
        m.ever_run = value == "1";
      } else if (key == "last_discovered") {
        const std::optional<int> count = ParseNumber<int>(value);
        ok = count.has_value();
        m.last_discovered = count.value_or(0);
      } else {
        ok = false;
      }
    }
    if (!ok) {
      return std::nullopt;
    }
    modules.push_back(std::move(m));
  }
  return modules;
}

bool SaveScheduleFile(const std::string& path, const std::vector<ModuleSchedule>& modules) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << FormatScheduleFile(modules);
  return static_cast<bool>(out);
}

std::optional<std::vector<ModuleSchedule>> LoadScheduleFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return ParseScheduleFile(text);
}

}  // namespace fremont
