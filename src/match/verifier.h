// Phase-2 verification (paper §V-C, last paragraph): fetch candidate
// subsequences, apply the cNSM constraints and UCR-style lower bounds, and
// compute exact distances for the survivors.
//
// The hot path is cache-blocked and SIMD-dispatched: runs of contiguous
// candidate offsets are gathered into a 64-byte-aligned scratch block, the
// per-window mean/std come from one batch rolling-stats kernel over the
// prefix arrays, and the lower-bound cascade then runs candidate-at-a-time
// over the block with early abandoning intact. Distance loops go through
// the runtime-dispatched kernel table in distance/simd/ (AVX2 when the CPU
// has it, scalar otherwise or under KVMATCH_FORCE_SCALAR).
//
// The DTW cascade is UCR Suite's (Rakthanmanon et al., KDD 2012), cheapest
// first, and a cNSM candidate is normalized only as far as it survives:
//   1. α/β constraints on the window's mean and std (cNSM only);
//   2. LB_Kim on the four end points, normalized on the fly;
//   3. LB_Keogh_EQ: the candidate against the query's envelope, normalizing
//      each point as the kernel visits it and abandoning at checkpoints;
//   4. LB_Keogh_EC: the query against the candidate's envelope;
//   5. the banded DP, fed the suffix sums of the larger of the EQ and EC
//      contribution arrays as its abandoning tail.
// The EC envelope is taken once per gathered block, by one streaming
// min/max pass over all count + m - 1 points, the first time a candidate
// of the block reaches step 4. It is admissible: candidate k's own
// envelope at point i is the min/max over the window of k + i clamped to
// the candidate, while the block envelope clamps the same window only to
// the block, so it ranges over a superset of points and is no tighter
// (looser only within ρ of the candidate's edges). For cNSM each bound is
// mapped through the candidate's (x - µ)·inv_σ; that map is monotone, so
// the mapped min/max is the min/max of the normalized points. Every prune
// compares against SquaredThreshold(ε) widened for rounding
// (WidenForRounding in distance/dtw.h), so the cascade returns exactly the
// bare DP's matches. A top-k verify (match/top_k.h) runs the same cascade
// with ε replaced, candidate by candidate, by its shrinking live bound.
#ifndef KVMATCH_MATCH_VERIFIER_H_
#define KVMATCH_MATCH_VERIFIER_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "distance/simd/kernels.h"
#include "index/interval.h"
#include "match/exec_context.h"
#include "match/query_types.h"
#include "match/top_k.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Tunable verification options (lower-bound cascade toggles used by the
/// ablation benchmarks).
struct VerifyOptions {
  bool use_lb_kim = true;    // DTW only
  bool use_lb_keogh = true;  // DTW only: LB_Keogh_EQ and LB_Keogh_EC
  bool use_reordered_ed = true;

  /// Kernel-table override for tests and ablations; null (the default)
  /// uses the process-wide dispatched table.
  const simd::Kernels* kernels = nullptr;

  /// Candidates gathered per aligned block. The default keeps a block of
  /// typical query lengths within L2 while amortizing the batch mean/std
  /// kernel; 0 is clamped to 1.
  size_t block_candidates = 512;
};

/// Verifies every candidate start offset in `cs` (interpreted as candidate
/// subsequence start positions, already shifted by the matcher) against Q.
/// Results are ordered by offset. `stats` may be null.
class Verifier {
 public:
  /// `prefix` must be a view of `series`; it supplies O(1) µ_S / σ_S to
  /// normalized (cNSM) queries, which build its arrays on first use.
  Verifier(const TimeSeries& series, const PrefixStats& prefix);

  /// Cancellable form: appends matches to `*results` in offset order and
  /// checks `ctx` per candidate — the cancel token (relaxed atomic) on
  /// every candidate and additionally between DTW rows, the deadline
  /// (a clock read) every kDeadlineStride candidates. On Cancelled /
  /// DeadlineExceeded, `*results` and `*stats` hold the work completed so
  /// far.
  ///
  /// Top-k form: when `topk` is non-null, matches go to it instead of
  /// `*results` (which may be null), and ε is live: before each candidate
  /// it drops to topk->Bound() if that is lower, and every α/β-surviving
  /// prune and early abandon compares against it.
  Status VerifyCancellable(std::span<const double> q,
                           const QueryParams& params, const IntervalList& cs,
                           const ExecContext& ctx,
                           std::vector<MatchResult>* results,
                           MatchStats* stats = nullptr,
                           const VerifyOptions& options = {},
                           TopKHeap* topk = nullptr) const;

  /// Run-to-completion wrapper around VerifyCancellable (default
  /// ExecContext never aborts).
  std::vector<MatchResult> Verify(std::span<const double> q,
                                  const QueryParams& params,
                                  const IntervalList& cs,
                                  MatchStats* stats = nullptr,
                                  const VerifyOptions& options = {}) const;

  /// Deadline poll stride, in candidates (the cancel token is polled every
  /// candidate; steady_clock reads are ~20-30ns, so they are amortized).
  static constexpr size_t kDeadlineStride = 64;

 private:
  const TimeSeries& series_;
  const PrefixStats& prefix_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_VERIFIER_H_
