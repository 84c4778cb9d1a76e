#include "distance/lower_bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace kvmatch {

namespace {
inline double Sq(double x) { return x * x; }
}  // namespace

double LbKimSquared(std::span<const double> s, std::span<const double> q,
                    double threshold_sq) {
  const size_t m = q.size();
  if (m == 0) return 0.0;
  // First and last points are fixed by any warping path.
  double lb = Sq(s[0] - q[0]) + Sq(s[m - 1] - q[m - 1]);
  if (lb > threshold_sq || m < 4) return lb;
  // Second point: best alignment among the three feasible pairings.
  double d = std::min({Sq(s[1] - q[0]), Sq(s[0] - q[1]), Sq(s[1] - q[1])});
  lb += d;
  if (lb > threshold_sq) return lb;
  // Penultimate point, symmetric.
  d = std::min({Sq(s[m - 2] - q[m - 1]), Sq(s[m - 1] - q[m - 2]),
                Sq(s[m - 2] - q[m - 2])});
  lb += d;
  return lb;
}

void SuffixCumulate(std::span<const double> cb, std::span<double> out) {
  assert(out.size() == cb.size() + 1);
  out[cb.size()] = 0.0;
  for (size_t i = cb.size(); i > 0; --i) {
    out[i - 1] = out[i] + cb[i - 1];
  }
}

double LbPaaSquared(std::span<const double> s_means,
                    std::span<const double> l_means,
                    std::span<const double> u_means, size_t w) {
  double lb = 0.0;
  const double dw = static_cast<double>(w);
  for (size_t i = 0; i < s_means.size(); ++i) {
    if (s_means[i] > u_means[i]) {
      lb += dw * Sq(s_means[i] - u_means[i]);
    } else if (s_means[i] < l_means[i]) {
      lb += dw * Sq(s_means[i] - l_means[i]);
    }
  }
  return lb;
}

}  // namespace kvmatch
