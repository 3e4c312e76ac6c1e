// Small helpers shared by the wire benchmark: clock, seeded RNG, order
// statistics, and a fatal-error helper. Nothing here touches the program
// under test.
#ifndef WIREBENCH_COMMON_H_
#define WIREBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int64_t kNever = INT64_MAX;

/// SplitMix64: the benchmark's own generator, so its inputs depend only on
/// the seed and never on a library's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; sorts a
/// copy. Returns 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const T& x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

}  // namespace wirebench

#endif  // WIREBENCH_COMMON_H_
