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
  const double eps_sq = params.epsilon * params.epsilon;
  const bool normalized = IsNormalized(params.type);
  const bool dtw = IsDtw(params.type);
  const bool l1 = IsL1(params.type);

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
  std::vector<double> cb;      // LB_Keogh contributions
  std::vector<double> cum;     // suffix sums of cb: DtwDistance's cum_lb
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
          // DTW path: LB_Kim -> LB_Keogh (collecting cb) -> exact banded
          // DTW (which itself polls the cancel token between rows).
          const double* s_cmp = s;
          if (normalized) {
            const double inv = std > 1e-12 ? 1.0 / std : 0.0;
            double* sh = s_hat.Resize(m);
            ker.znormalize(s, m, mean, inv, sh);
            s_cmp = sh;
          }
          const std::span<const double> s_span(s_cmp, m);
          if (options.use_lb_kim &&
              LbKimSquared(s_span, q_cmp, eps_sq) > eps_sq) {
            if (stats != nullptr) ++stats->lb_pruned;
            continue;
          }
          std::span<const double> cum_lb;
          if (options.use_lb_keogh) {
            cb.resize(m);
            cum.resize(m + 1);
            const double lb = ker.lb_keogh(s_cmp, env.lower.data(),
                                           env.upper.data(), m, eps_sq,
                                           cb.data());
            if (lb > eps_sq) {
              if (stats != nullptr) ++stats->lb_pruned;
              continue;
            }
            SuffixCumulate(cb, cum);
            cum_lb = cum;
          }
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
