#include "baseline/fast_matcher.h"

#include <chrono>
#include <cmath>
#include <limits>

#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "distance/lower_bounds.h"
#include "distance/simd/kernels.h"

namespace kvmatch {

std::vector<MatchResult> FastMatcher::Match(std::span<const double> q,
                                            const QueryParams& params,
                                            FastStats* stats) const {
  std::vector<MatchResult> results;
  const size_t m = q.size();
  const size_t n = series_.size();
  if (m == 0 || n < m) return results;
  const bool normalized = IsNormalized(params.type);
  const bool dtw = IsDtw(params.type);
  const double eps = params.epsilon;
  const double eps_sq = SquaredThreshold(eps);
  // Lower-bound prunes compare against ε² widened for rounding, as the
  // Verifier's do: a bound tight in exact arithmetic can round a few ulps
  // above the distance it bounds (see WidenForRounding).
  const double lb_eps_sq = WidenForRounding(eps_sq, m);

  const simd::Kernels& ker = simd::ActiveKernels();

  const auto t0 = std::chrono::steady_clock::now();

  std::vector<double> q_cmp(q.begin(), q.end());
  if (normalized) q_cmp = ZNormalize(q);
  const MeanStd q_ms = ComputeMeanStd(q);
  Envelope env;
  std::vector<int> order;
  std::vector<double> q_ordered;  // q_cmp permuted by order
  if (dtw) {
    env = BuildEnvelope(q_cmp, params.rho);
  } else if (normalized) {
    order = SortedAbsOrder(q_cmp);
    q_ordered.resize(m);
    for (size_t i = 0; i < m; ++i) {
      q_ordered[i] = q_cmp[static_cast<size_t>(order[i])];
    }
  }

  // Extra lower-bound preparation: disjoint-window PAA of the comparison
  // query (and its envelope for DTW), with per-window admissible mean
  // ranges. This is the data preparation whose overhead the paper notes.
  const size_t paa_w = 32;
  const size_t p = m / paa_w;
  std::vector<double> paa_lo(p), paa_hi(p);
  for (size_t i = 0; i < p; ++i) {
    if (dtw) {
      paa_lo[i] = Mean(std::span<const double>(env.lower)
                           .subspan(i * paa_w, paa_w));
      paa_hi[i] = Mean(std::span<const double>(env.upper)
                           .subspan(i * paa_w, paa_w));
    } else {
      const double mu =
          Mean(std::span<const double>(q_cmp).subspan(i * paa_w, paa_w));
      paa_lo[i] = mu;
      paa_hi[i] = mu;
    }
  }
  if (stats != nullptr) {
    stats->prepare_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  }

  std::vector<double> s_hat(m);
  std::vector<double> s_means(p);
  std::vector<double> cb(m);  // LB_Keogh contributions
  std::vector<double> cum(m + 1);  // suffix sums of cb: DtwDistance's cum_lb
  std::vector<double> cand_lower(m), cand_upper(m);  // candidate envelope
  std::vector<size_t> env_queues;
  for (size_t off = 0; off + m <= n; ++off) {
    if (stats != nullptr) ++stats->offsets_scanned;
    const auto s = series_.Subsequence(off, m);
    double mean = 0.0, std = 0.0;
    if (normalized) {
      const MeanStd ms = prefix_.WindowMeanStd(off, m);
      mean = ms.mean;
      std = ms.std;
      const bool sigma_ok = std >= q_ms.std / params.alpha - 1e-12 &&
                            std <= q_ms.std * params.alpha + 1e-12;
      const bool mu_ok = std::fabs(mean - q_ms.mean) <= params.beta + 1e-12;
      if (!sigma_ok || !mu_ok) {
        if (stats != nullptr) ++stats->constraint_pruned;
        continue;
      }
    }
    const double inv = std > 1e-12 ? 1.0 / std : 0.0;

    // PAA prefilter: window means of the (normalized) candidate vs the
    // query PAA envelope. Sound: LB_PAA <= ED² and <= DTW²; the L1 analog
    // is w·Σ|µ^S_i - µ^Q_i| <= L1.
    if (p > 0) {
      for (size_t i = 0; i < p; ++i) {
        double mu = prefix_.WindowMean(off + i * paa_w, paa_w);
        if (normalized) mu = (mu - mean) * inv;
        s_means[i] = mu;
      }
      if (IsL1(params.type)) {
        double lb_l1 = 0.0;
        for (size_t i = 0; i < p; ++i) {
          lb_l1 += std::fabs(s_means[i] - paa_lo[i]);
        }
        if (lb_l1 * static_cast<double>(paa_w) > eps) {
          if (stats != nullptr) ++stats->paa_pruned;
          continue;
        }
      } else if (LbPaaSquared(s_means, paa_lo, paa_hi, paa_w) > lb_eps_sq) {
        if (stats != nullptr) ++stats->paa_pruned;
        continue;
      }
    }

    if (IsL1(params.type)) {
      const double d = ker.l1(s.data(), q_cmp.data(), m, eps);
      if (stats != nullptr) ++stats->distance_calls;
      if (d <= eps) results.push_back({off, d});
      continue;
    }

    if (!dtw) {
      double dist_sq;
      if (normalized) {
        dist_sq = ker.squared_ed_znorm_ordered(s.data(), order.data(),
                                               q_ordered.data(), m, mean, inv,
                                               eps_sq);
      } else {
        dist_sq = ker.squared_ed(s.data(), q_cmp.data(), m, eps_sq);
      }
      if (stats != nullptr) ++stats->distance_calls;
      if (dist_sq <= eps_sq) results.push_back({off, std::sqrt(dist_sq)});
      continue;
    }

    // LB_Kim reads four end points and LB_Keogh normalizes as it goes,
    // so a cNSM candidate is fully normalized only if it survives both.
    const double norm_mean = normalized ? mean : 0.0;
    const double norm_inv = normalized ? inv : 1.0;
    if (LbKimSquared(s.data(), norm_mean, norm_inv, q_cmp, lb_eps_sq) >
        lb_eps_sq) {
      if (stats != nullptr) ++stats->lb_kim_pruned;
      continue;
    }
    if (ker.lb_keogh(s.data(), env.lower.data(), env.upper.data(), m,
                     norm_mean, norm_inv, lb_eps_sq, cb.data(),
                     normalized ? s_hat.data() : nullptr) > lb_eps_sq) {
      if (stats != nullptr) ++stats->lb_keogh_pruned;
      continue;
    }
    const std::span<const double> s_cmp =
        normalized ? std::span<const double>(s_hat) : s;
    // Second Keogh pass: query against the candidate's own envelope.
    BuildEnvelope(s_cmp, params.rho, cand_lower.data(), cand_upper.data(),
                  env_queues);
    if (ker.lb_keogh(q_cmp.data(), cand_lower.data(), cand_upper.data(), m,
                     0.0, 1.0, lb_eps_sq, nullptr, nullptr) > lb_eps_sq) {
      if (stats != nullptr) ++stats->lb_keogh_ec_pruned;
      continue;
    }
    SuffixCumulate(cb, cum);
    const double d = DtwDistance(s_cmp, q_cmp, params.rho, eps, cum);
    if (stats != nullptr) ++stats->distance_calls;
    if (d <= eps) results.push_back({off, d});
  }
  return results;
}

}  // namespace kvmatch
