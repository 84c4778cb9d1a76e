#include "distance/ed.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kvmatch {

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double L1Distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

std::vector<int> SortedAbsOrder(std::span<const double> normalized_q) {
  std::vector<int> order(normalized_q.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::fabs(normalized_q[static_cast<size_t>(a)]) >
           std::fabs(normalized_q[static_cast<size_t>(b)]);
  });
  return order;
}

}  // namespace kvmatch
