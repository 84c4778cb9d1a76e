#include "distance/lower_bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace kvmatch {

namespace {
inline double Sq(double x) { return x * x; }
}  // namespace

double LbKimSquared(const double* s, double mean, double inv_std,
                    std::span<const double> q, double threshold_sq) {
  const size_t m = q.size();
  if (m == 0) return 0.0;
  const auto x = [&](size_t i) { return (s[i] - mean) * inv_std; };
  // First and last points are fixed by any warping path; for m = 1 they
  // are the same cell, counted once.
  const double first = x(0);
  if (m == 1) return Sq(first - q[0]);
  const double last = x(m - 1);
  double lb = Sq(first - q[0]) + Sq(last - q[m - 1]);
  if (lb > threshold_sq || m < 4) return lb;
  // Second point: best alignment among the three feasible pairings.
  const double second = x(1);
  double d = std::min({Sq(second - q[0]), Sq(first - q[1]),
                       Sq(second - q[1])});
  lb += d;
  if (lb > threshold_sq) return lb;
  // Penultimate point, symmetric.
  const double penult = x(m - 2);
  d = std::min({Sq(penult - q[m - 1]), Sq(last - q[m - 2]),
                Sq(penult - q[m - 2])});
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
