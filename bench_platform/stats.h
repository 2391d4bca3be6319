// Distribution summaries for the platform benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "support/common.h"
#include "support/strf.h"

namespace ijvm::bench {

// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
inline double quantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// count, min, quartiles, p99 with the number of samples above it, and max:
// a tail percentile is only worth reporting with enough samples beyond it.
struct Summary {
  size_t count = 0;
  double min = 0, p25 = 0, p50 = 0, p75 = 0, p99 = 0, max = 0;
  size_t beyond_p99 = 0;

  static Summary of(std::vector<double> v) {
    Summary s;
    s.count = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    s.min = v.front();
    s.max = v.back();
    s.p25 = quantileSorted(v, 0.25);
    s.p50 = quantileSorted(v, 0.50);
    s.p75 = quantileSorted(v, 0.75);
    s.p99 = quantileSorted(v, 0.99);
    s.beyond_p99 = static_cast<size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), s.p99));
    return s;
  }

  std::string format(const char* unit) const {
    return strf("count=%zu min=%.1f p25=%.1f p50=%.1f p75=%.1f p99=%.1f "
                "(%zu beyond) max=%.1f %s",
                count, min, p25, p50, p75, p99, beyond_p99, max, unit);
  }
};

}  // namespace ijvm::bench
