// Deterministic random number generation.
//
// Every stochastic element of the simulation (host up/down state, traffic
// inter-arrival times, collision losses, topology generation) draws from a
// seeded Rng so that experiments and tests are exactly reproducible.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace fremont {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  // True with probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  // Exponentially distributed value with the given mean (for Poisson-process
  // traffic inter-arrival times).
  double Exponential(double mean) {
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fremont

#endif  // SRC_UTIL_RNG_H_
