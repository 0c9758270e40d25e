// Simulated time primitives.
//
// The Fremont reproduction runs against a discrete-event network simulator,
// so all timestamps and intervals use these types rather than wall-clock
// time. Durations and time points are microsecond-granular 64-bit values,
// which comfortably covers multi-year simulations.

#ifndef SRC_UTIL_SIM_TIME_H_
#define SRC_UTIL_SIM_TIME_H_

#include <compare>
#include <cstdint>
#include <string>

namespace fremont {

// A length of simulated time. Value-semantic, totally ordered, cheap to copy.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration Micros(int64_t us) { return Duration(us); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000000); }
  static constexpr Duration Minutes(int64_t m) { return Duration(m * 60 * 1000000); }
  static constexpr Duration Hours(int64_t h) { return Duration(h * 3600 * 1000000); }
  static constexpr Duration Days(int64_t d) { return Duration(d * 86400 * 1000000); }
  static constexpr Duration Zero() { return Duration(0); }

  // Fractional-second construction, e.g. Duration::SecondsF(0.25).
  static constexpr Duration SecondsF(double s) {
    return Duration(static_cast<int64_t>(s * 1e6));
  }

  constexpr int64_t ToMicros() const { return micros_; }
  constexpr int64_t ToMillis() const { return micros_ / 1000; }
  constexpr int64_t ToSeconds() const { return micros_ / 1000000; }
  constexpr double ToSecondsF() const { return static_cast<double>(micros_) / 1e6; }

  constexpr Duration operator+(Duration other) const { return Duration(micros_ + other.micros_); }
  constexpr Duration operator-(Duration other) const { return Duration(micros_ - other.micros_); }
  constexpr Duration operator*(int64_t k) const { return Duration(micros_ * k); }
  constexpr Duration operator/(int64_t k) const { return Duration(micros_ / k); }
  constexpr Duration& operator+=(Duration other) {
    micros_ += other.micros_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    micros_ -= other.micros_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering, e.g. "2m30s", "450ms", "3d4h".
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t us) : micros_(us) {}
  int64_t micros_ = 0;
};

// An absolute point on the simulated timeline. The simulation starts at
// SimTime::Epoch(); all record timestamps in the Journal are SimTimes.
class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime Epoch() { return SimTime(); }
  static constexpr SimTime FromMicros(int64_t us) { return SimTime(us); }

  constexpr int64_t ToMicros() const { return micros_; }

  constexpr SimTime operator+(Duration d) const { return SimTime(micros_ + d.ToMicros()); }
  constexpr SimTime operator-(Duration d) const { return SimTime(micros_ - d.ToMicros()); }
  constexpr Duration operator-(SimTime other) const {
    return Duration::Micros(micros_ - other.micros_);
  }
  constexpr SimTime& operator+=(Duration d) {
    micros_ += d.ToMicros();
    return *this;
  }
  constexpr auto operator<=>(const SimTime&) const = default;

  // Renders as elapsed time since epoch, e.g. "T+1h02m".
  std::string ToString() const;

 private:
  explicit constexpr SimTime(int64_t us) : micros_(us) {}
  int64_t micros_ = 0;
};

}  // namespace fremont

#endif  // SRC_UTIL_SIM_TIME_H_
