#include "distance/envelope.h"

namespace kvmatch {

void BuildEnvelope(std::span<const double> x, size_t rho, double* lower,
                   double* upper, std::vector<size_t>& queues) {
  const size_t n = x.size();
  if (n == 0) return;
  if (queues.size() < 2 * n) queues.resize(2 * n);
  // Each queue holds window indices whose values are strictly monotone
  // from head to tail (ties keep the newer index): the head is the
  // window's max (resp. min).
  size_t* max_q = queues.data();
  size_t* min_q = queues.data() + n;
  size_t max_head = 0, max_tail = 0, min_head = 0, min_tail = 0;
  size_t right = 0;  // next index to push
  for (size_t i = 0; i < n; ++i) {
    const size_t win_hi = rho >= n - 1 - i ? n - 1 : i + rho;
    for (; right <= win_hi; ++right) {
      const double v = x[right];
      while (max_tail > max_head && x[max_q[max_tail - 1]] <= v) --max_tail;
      max_q[max_tail++] = right;
      while (min_tail > min_head && x[min_q[min_tail - 1]] >= v) --min_tail;
      min_q[min_tail++] = right;
    }
    const size_t win_lo = i > rho ? i - rho : 0;
    while (max_q[max_head] < win_lo) ++max_head;
    while (min_q[min_head] < win_lo) ++min_head;
    upper[i] = x[max_q[max_head]];
    lower[i] = x[min_q[min_head]];
  }
}

Envelope BuildEnvelope(std::span<const double> q, size_t rho) {
  Envelope env;
  env.lower.resize(q.size());
  env.upper.resize(q.size());
  std::vector<size_t> queues;
  BuildEnvelope(q, rho, env.lower.data(), env.upper.data(), queues);
  return env;
}

}  // namespace kvmatch
