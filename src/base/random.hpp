// random.hpp — seeded random number generation for reproducible experiments.
//
// Every stochastic element of the framework (AWGN, channel realizations,
// payload bits) draws from an explicitly seeded Rng so that experiments are
// bit-reproducible given the same seed. Distributions beyond the standard
// library (Nakagami-m, Poisson arrival processes) are provided for the
// IEEE 802.15.4a channel model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace uwbams::base {

// MT19937-64 with the exact output sequence of std::mt19937_64, but seeded
// and twisted on demand within the first block. A fresh engine that draws
// a few words pays for seeding about 164 state words and twisting 8, not
// for all 312 of each — the cost that dominates short-lived sub-streams
// (one Rng::fork per link, a handful of draws each). From the second block
// on it runs the ordinary whole-block twist, and a draw costs what a
// std::mt19937_64 draw costs.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = 5489u) { this->seed(seed); }

  // Copies only the words set so far: the rest of a fresh engine's state
  // is uninitialized, and reading it would be undefined.
  Mt19937_64(const Mt19937_64& other) { *this = other; }
  Mt19937_64& operator=(const Mt19937_64& other) {
    if (this == &other) return *this;
    std::copy(other.mt_, other.mt_ + other.seeded_, mt_);
    seeded_ = other.seeded_;
    ready_ = other.ready_;
    next_ = other.next_;
    return *this;
  }

  void seed(result_type s) {
    mt_[0] = s;
    seeded_ = 1;
    ready_ = 0;
    next_ = 0;
  }

  result_type operator()() {
    if (next_ >= ready_) twist_next();
    result_type z = mt_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr unsigned kN = 312;
  static constexpr unsigned kM = 156;

  // Makes word next_ drawable: twists the next block once this one is used
  // up, else the next chunk of the first block.
  void twist_next();

  std::uint64_t mt_[kN];  // words [seeded_, kN) are unset in the first block
  unsigned seeded_ = 0;   // words [0, seeded_) hold their seed values or later
  unsigned ready_ = 0;    // words [0, ready_) of the current block are twisted
  unsigned next_ = 0;     // next word to draw
};

// Stateless seed mixer (splitmix64 over base ^ f(stream)). Two calls with
// the same (base, stream) always produce the same seed, and nearby streams
// land far apart, so worker seeds never collide or correlate.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : seed_(seed), engine_(seed) {}

  void reseed(std::uint64_t seed) {
    seed_ = seed;
    engine_.seed(seed);
  }

  // Seed this engine was last (re)seeded with. Draws do not change it.
  std::uint64_t seed() const { return seed_; }

  // Deterministic sub-stream: an independent Rng derived from this one's
  // *seed* (not its current state), so fork(i) yields the same stream no
  // matter how many draws happened before or which worker calls it — the
  // property that makes parallel Monte-Carlo runs reproducible regardless
  // of the job count.
  Rng fork(std::uint64_t stream) const { return Rng(derive_seed(seed_, stream)); }

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  // Standard normal (mean 0, stddev 1).
  double gaussian();
  // Normal with given mean and stddev.
  double gaussian(double mean, double stddev);
  // Exponential with given rate (mean 1/rate).
  double exponential(double rate);
  // Lognormal where the *underlying dB value* is N(mean_db, sigma_db):
  // returns 10^(N(mean_db, sigma_db)/10) — the 4a shadowing convention.
  double lognormal_db(double mean_db, double sigma_db);
  // Nakagami-m distributed *amplitude* with E[x^2] = omega.
  // Implemented by sampling a Gamma(m, omega/m) power and taking sqrt.
  double nakagami(double m, double omega);
  // Random bit (fair coin).
  bool bit();
  // Vector of random bits.
  std::vector<bool> bits(std::size_t n);

  // Next arrival time of a Poisson process with given rate, after `now`.
  double poisson_arrival_after(double now, double rate);

 private:
  std::uint64_t seed_ = 1;
  Mt19937_64 engine_;
};

}  // namespace uwbams::base
