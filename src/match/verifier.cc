#include "match/verifier.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "distance/lower_bounds.h"

namespace kvmatch {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Verifier::Verifier(const TimeSeries& series, const PrefixStats& prefix)
    : series_(series), prefix_(prefix) {}

Status Verifier::VerifyCancellable(std::span<const double> q,
                                   const QueryParams& params,
                                   const IntervalList& cs,
                                   const ExecContext& ctx,
                                   std::vector<MatchResult>* results,
                                   MatchStats* stats,
                                   const VerifyOptions& options) const {
  const size_t m = q.size();
  const size_t n = series_.size();
  if (m == 0 || n < m) return Status::OK();
  const simd::Kernels& ker =
      options.kernels != nullptr ? *options.kernels : simd::ActiveKernels();
  const double eps_sq = SquaredThreshold(params.epsilon);
  const bool normalized = IsNormalized(params.type);
  const bool dtw = IsDtw(params.type);
  const bool l1 = IsL1(params.type);
  // Lower-bound prunes compare against ε² widened for rounding, so a
  // bound tight in exact arithmetic never prunes a match the DP would
  // accept (see WidenForRounding).
  const double lb_eps_sq = WidenForRounding(eps_sq, m);

  // Query-side precomputation.
  std::vector<double> q_hat;           // normalized query (cNSM)
  std::vector<int> ed_order;           // reordered-ED visit order
  std::vector<double> q_ordered;       // q_cmp permuted by ed_order
  Envelope env;                        // envelope of q (raw or normalized)
  MeanStd q_ms = ComputeMeanStd(q);
  std::span<const double> q_cmp = q;   // series the distance is against
  if (normalized) {
    q_hat = ZNormalize(q);
    q_cmp = q_hat;
  }
  if (dtw) {
    env = BuildEnvelope(q_cmp, params.rho);
  } else if (options.use_reordered_ed && !l1) {
    ed_order = SortedAbsOrder(q_cmp);
    q_ordered.resize(m);
    for (size_t i = 0; i < m; ++i) {
      q_ordered[i] = q_cmp[static_cast<size_t>(ed_order[i])];
    }
  }

  // Cache-blocked candidate layout: a run of up to `block_cap` contiguous
  // start offsets shares one 64-byte-aligned copy of the covering series
  // range (count + m - 1 values — consecutive windows overlap in all but
  // one point, so the gather is ~1/m of the naive per-candidate traffic),
  // and one batch rolling mean/std call over the prefix arrays.
  const size_t block_cap = std::max<size_t>(1, options.block_candidates);
  simd::AlignedBuffer block;   // gathered series values
  simd::AlignedBuffer s_hat;   // normalized candidate scratch
  std::vector<double> means, stds;
  std::vector<double> cb_eq;   // LB_Keogh_EQ contributions (candidate side)
  std::vector<double> cb_ec;   // LB_Keogh_EC contributions (query side)
  std::vector<double> cum;     // suffix sums of cb: DtwDistance's cum_lb
  // Block envelope for LB_Keogh_EC, built at most once per block.
  simd::AlignedBuffer blk_lower, blk_upper;
  simd::AlignedBuffer c_lower_hat, c_upper_hat;  // cNSM: normalized slice
  std::vector<size_t> env_queues;
  const std::vector<double>& xs = series_.values();
  const std::span<const double> psum = prefix_.prefix_sums();
  const std::span<const double> psq = prefix_.prefix_squares();

  size_t deadline_tick = 0;
  for (const auto& wi : cs.intervals()) {
    int64_t l = std::max<int64_t>(wi.l, 0);
    const int64_t r_cap =
        std::min<int64_t>(wi.r, static_cast<int64_t>(n - m));
    while (l <= r_cap) {
      KVMATCH_RETURN_NOT_OK(ctx.Check());  // block boundary: full check
      const size_t count =
          std::min<size_t>(block_cap, static_cast<size_t>(r_cap - l + 1));
      const size_t span_len = count + m - 1;
      double* blk = block.Resize(span_len);
      std::memcpy(blk, xs.data() + l, span_len * sizeof(double));
      bool block_env_ready = false;
      if (normalized) {
        means.resize(count);
        stds.resize(count);
        ker.rolling_mean_std(psum.data() + l, psq.data() + l, count, m,
                             means.data(), stds.data());
      }

      for (size_t k = 0; k < count; ++k) {
        // Per-candidate abort granularity: the token is a relaxed load, so
        // it is polled every candidate; the deadline costs a clock read
        // and is amortized over kDeadlineStride candidates.
        if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
          return Status::Cancelled("query cancelled");
        }
        if (ctx.has_deadline() && ++deadline_tick % kDeadlineStride == 0) {
          KVMATCH_RETURN_NOT_OK(ctx.Check());
        }
        const size_t off = static_cast<size_t>(l) + k;
        const double* s = blk + k;

        double mean = 0.0, std = 0.0;
        if (normalized) {
          mean = means[k];
          std = stds[k];
          // cNSM constraint push-down: α on σ-ratio, β on mean difference.
          const bool sigma_ok =
              std >= q_ms.std / params.alpha - 1e-12 &&
              std <= q_ms.std * params.alpha + 1e-12;
          const bool mu_ok =
              std::fabs(mean - q_ms.mean) <= params.beta + 1e-12;
          if (!sigma_ok || !mu_ok) {
            if (stats != nullptr) ++stats->constraint_pruned;
            continue;
          }
        }

        if (l1) {
          // L1 path: distances are compared un-squared.
          const double d = ker.l1(s, q_cmp.data(), m, params.epsilon);
          if (stats != nullptr) ++stats->distance_calls;
          if (d > params.epsilon) continue;
          results->push_back({off, d});
          continue;
        }

        double dist_sq = kInf;
        if (!dtw) {
          // ED path.
          if (normalized) {
            const double inv = std > 1e-12 ? 1.0 / std : 0.0;
            if (options.use_reordered_ed) {
              dist_sq = ker.squared_ed_znorm_ordered(
                  s, ed_order.data(), q_ordered.data(), m, mean, inv, eps_sq);
            } else {
              double* sh = s_hat.Resize(m);
              ker.znormalize(s, m, mean, inv, sh);
              dist_sq = ker.squared_ed(sh, q_cmp.data(), m, eps_sq);
            }
          } else {
            dist_sq = ker.squared_ed(s, q_cmp.data(), m, eps_sq);
          }
          if (stats != nullptr) ++stats->distance_calls;
          if (dist_sq > eps_sq) continue;
        } else {
          // DTW path, UCR Suite's cascade: LB_Kim on the four end points,
          // LB_Keogh_EQ (normalizing as it goes), LB_Keogh_EC against the
          // block envelope, then the banded DP (which itself polls the
          // cancel token between rows). Only EQ's survivors have a fully
          // normalized candidate and complete cb arrays.
          const double mu = normalized ? mean : 0.0;
          const double inv =
              normalized ? (std > 1e-12 ? 1.0 / std : 0.0) : 1.0;
          if (options.use_lb_kim &&
              LbKimSquared(s, mu, inv, q_cmp, lb_eps_sq) > lb_eps_sq) {
            if (stats != nullptr) ++stats->lb_pruned;
            continue;
          }
          double* sh = normalized ? s_hat.Resize(m) : nullptr;
          std::span<const double> cum_lb;
          if (options.use_lb_keogh) {
            cb_eq.resize(m);
            cb_ec.resize(m);
            cum.resize(m + 1);
            const double lb_eq =
                ker.lb_keogh(s, env.lower.data(), env.upper.data(), m, mu,
                             inv, lb_eps_sq, cb_eq.data(), sh);
            if (lb_eq > lb_eps_sq) {
              if (stats != nullptr) ++stats->lb_pruned;
              continue;
            }
            if (!block_env_ready) {
              BuildEnvelope(std::span<const double>(blk, span_len),
                            params.rho, blk_lower.Resize(span_len),
                            blk_upper.Resize(span_len), env_queues);
              block_env_ready = true;
            }
            const double* c_lower = blk_lower.data() + k;
            const double* c_upper = blk_upper.data() + k;
            if (normalized) {
              // (x - µ)·inv is monotone, so the mapped bounds stay an
              // envelope of the normalized candidate.
              double* lo = c_lower_hat.Resize(m);
              double* up = c_upper_hat.Resize(m);
              ker.znormalize(c_lower, m, mean, inv, lo);
              ker.znormalize(c_upper, m, mean, inv, up);
              c_lower = lo;
              c_upper = up;
            }
            const double lb_ec =
                ker.lb_keogh(q_cmp.data(), c_lower, c_upper, m, 0.0, 1.0,
                             lb_eps_sq, cb_ec.data(), nullptr);
            if (lb_ec > lb_eps_sq) {
              if (stats != nullptr) ++stats->lb_pruned;
              continue;
            }
            // The tighter bound's whole cb array feeds the DP's tail (an
            // elementwise max of the two arrays is not a bound).
            SuffixCumulate(lb_ec > lb_eq ? cb_ec : cb_eq, cum);
            cum_lb = cum;
          } else if (normalized) {
            ker.znormalize(s, m, mean, inv, sh);
          }
          const std::span<const double> s_span(normalized ? sh : s, m);
          const double d = DtwDistance(s_span, q_cmp, params.rho,
                                       params.epsilon, cum_lb, ctx.cancel);
          if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
            // The DP may have bailed mid-band; its value is not a verdict.
            return Status::Cancelled("query cancelled");
          }
          if (stats != nullptr) ++stats->distance_calls;
          if (d > params.epsilon) continue;
          dist_sq = d * d;
        }
        results->push_back({off, std::sqrt(dist_sq)});
      }
      l += static_cast<int64_t>(count);
    }
  }
  return Status::OK();
}

std::vector<MatchResult> Verifier::Verify(std::span<const double> q,
                                          const QueryParams& params,
                                          const IntervalList& cs,
                                          MatchStats* stats,
                                          const VerifyOptions& options) const {
  std::vector<MatchResult> results;
  // A default ExecContext never aborts, so the status is always OK.
  const Status st =
      VerifyCancellable(q, params, cs, ExecContext{}, &results, stats, options);
  (void)st;
  return results;
}

}  // namespace kvmatch
