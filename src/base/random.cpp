#include "base/random.hpp"

#include <algorithm>
#include <cmath>

namespace uwbams::base {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // splitmix64 (Steele/Lea/Flood) over the combined value; the golden-ratio
  // stride decorrelates consecutive stream indices before mixing.
  std::uint64_t z = base ^ (stream + 0x9e3779b97f4a7c15ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  // Never hand back 0: mt19937_64 accepts it, but a zero seed is a common
  // sentinel in configs and would alias with "unset".
  return z ? z : 0x9e3779b97f4a7c15ull;
}

namespace {

constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;

// One twist step: the new value of a word from the old upper bits of the
// word, the lower bits of its successor and the word kM places on.
inline std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                           std::uint64_t far) {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

}  // namespace

void Mt19937_64::twist_next() {
  // A used-up block is replaced by the whole next one. Within the first
  // block the twist runs in chunks that double in size, so a short-lived
  // stream pays for a few words while a long one still twists its first
  // block in a handful of calls.
  unsigned from = ready_;
  if (from == kN) {
    from = 0;
    next_ = 0;
  }
  const unsigned to =
      seeded_ < kN ? std::min(kN, std::max(2 * from, 8u)) : kN;
  // A word below kN - kM mixes in the seed value kM places on, so seeding
  // runs that far ahead; later words mix in an already-twisted word, and
  // the last one the new word 0, exactly as the in-place block twist does.
  for (const unsigned need = std::min(to + kM, kN); seeded_ < need;
       ++seeded_) {
    const std::uint64_t prev = mt_[seeded_ - 1];
    mt_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) + seeded_;
  }
  unsigned k = from;
  for (; k < std::min(to, kN - kM); ++k)
    mt_[k] = twist(mt_[k], mt_[k + 1], mt_[k + kM]);
  for (; k < std::min(to, kN - 1); ++k)
    mt_[k] = twist(mt_[k], mt_[k + 1], mt_[k + kM - kN]);
  if (to == kN) mt_[kN - 1] = twist(mt_[kN - 1], mt_[0], mt_[kM - 1]);
  ready_ = to;
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::gaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

double Rng::lognormal_db(double mean_db, double sigma_db) {
  const double db = gaussian(mean_db, sigma_db);
  return std::pow(10.0, db / 10.0);
}

double Rng::nakagami(double m, double omega) {
  // Power of a Nakagami-m amplitude is Gamma(shape=m, scale=omega/m).
  std::gamma_distribution<double> gamma(m, omega / m);
  return std::sqrt(gamma(engine_));
}

bool Rng::bit() { return uniform_int(0, 1) != 0; }

std::vector<bool> Rng::bits(std::size_t n) {
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = bit();
  return out;
}

double Rng::poisson_arrival_after(double now, double rate) {
  return now + exponential(rate);
}

}  // namespace uwbams::base
