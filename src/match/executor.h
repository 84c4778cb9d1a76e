// QueryExecutor: the resumable form of Algorithm 1.
//
// The monolithic Match() call is decomposed into explicit steps so an
// orchestrator (the QueryService, a test, a future coroutine front-end)
// can interleave checkpoints, cancel mid-query, and parallelize:
//
//   top-k    →  optionally, StartTopK() first turns the executor into a
//               one-pass best-k search (match/top_k.h): it verifies seed
//               windows, and their N-th best distance becomes the ε of
//               phase 1 and the start of the live bound of phase 2;
//   phase 1  →  one StepProbe() per query window (probe + shift +
//               intersect), abortable between windows;
//   phase 2  →  SliceCandidates() partitions the candidate set CS into
//               bounded-size offset ranges, and each VerifySlice(i) is an
//               independent, thread-safe task — slices of one query can
//               run on many workers and their results concatenate in
//               offset order.
//
// The single-shot wrappers (MatchWithSegments, KvMatcher, KvMatchDp,
// Session::Query) are thin layers over Run(), so every caller shares one
// implementation and the executor is the only place phase logic lives.
#ifndef KVMATCH_MATCH_EXECUTOR_H_
#define KVMATCH_MATCH_EXECUTOR_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "match/exec_context.h"
#include "match/kv_match.h"
#include "match/top_k.h"

namespace kvmatch {

class QueryExecutor {
 public:
  /// Validates the segmentation and precomputes the per-window mean
  /// ranges and probe order. `series`, `prefix` and the segment indexes
  /// must outlive the executor; `q` is copied (verify slices may run on
  /// other threads after the caller's buffer is gone).
  static Result<std::unique_ptr<QueryExecutor>> Create(
      const TimeSeries& series, const PrefixStats& prefix,
      std::span<const double> q, const QueryParams& params,
      std::vector<QuerySegment> segments, const MatchOptions& options = {});

  // ---- Top-k: one pass with a live ε ----

  /// Makes this executor a search for the k best matches (params.epsilon
  /// then only steers the segmentation the executor was built with). Must
  /// precede the first probe step. Verifies seed windows from the index
  /// rows nearest Q's window means, with the live bound starting at +∞;
  /// the N-th smallest seed distance (+∞ with fewer than N eligible
  /// seeds) becomes phase 1's ε. The seeds are removed from CS, and their
  /// best matches join the final merge. Records a kSpanSeed span. On
  /// Cancelled / DeadlineExceeded, stats() holds the seed work done.
  Status StartTopK(size_t k, const TopKOptions& options,
                   const ExecContext& ctx = {});
  bool top_k() const { return topk_; }

  /// The top-k answer from the concatenated results of every verified
  /// slice (each slice returns its heap, in no order): SelectTopK over
  /// them plus the seeds' best.
  std::vector<MatchResult> FinishTopK(std::vector<MatchResult> slices) const;

  // ---- Phase 1: per-window probe steps ----

  /// Windows scheduled for probing (after MatchOptions::max_windows).
  size_t probes_total() const { return probe_limit_; }
  size_t probes_done() const { return probes_done_; }
  bool phase1_done() const { return phase1_done_; }

  /// Probes the next window, shifts its interval list and intersects it
  /// into the candidate set. Finishing the last window — or emptying the
  /// candidate set early — completes phase 1.
  Status StepProbe();

  /// Runs the remaining probe steps, checking `ctx` before each one.
  Status RunPhase1(const ExecContext& ctx = {});

  /// The final candidate set CS. Valid once phase1_done().
  const IntervalList& candidates() const { return cs_; }

  // ---- Phase 2: verify slices ----

  /// Partitions CS into slices of at most `max_positions` candidate
  /// positions each (0 → one slice), splitting long intervals as needed.
  /// Requires phase1_done(). Returns the slice count.
  size_t SliceCandidates(size_t max_positions);
  size_t num_slices() const { return slices_.size(); }
  const IntervalList& slice(size_t i) const { return slices_[i]; }

  /// Verifies slice `i`: results ordered by offset, counters (and the
  /// slice's verify wall time as phase2_ms) added to `*stats`. For a
  /// top-k search the results are the slice's heap, in no order, and its
  /// ε is the shared live bound. `ctx` is threaded down to
  /// per-candidate granularity: the verifier polls the
  /// cancel token on every candidate (and between DTW rows for expensive
  /// candidates) and the deadline every few dozen candidates. On abort,
  /// `*stats` holds the partial counters for the work actually done.
  /// Thread-safe: distinct slices may be verified concurrently.
  Result<std::vector<MatchResult>> VerifySlice(size_t i,
                                               const ExecContext& ctx = {},
                                               MatchStats* stats = nullptr)
      const;
  size_t slices_verified() const { return slices_verified_; }

  /// Streaming consumer for Run(): called with each verified slice's
  /// matches (offset order, non-empty) as the slice completes.
  using MatchSink = std::function<void(std::span<const MatchResult>)>;

  /// Single-shot: remaining phase-1 steps, slicing (at
  /// MatchOptions-independent `verify_slice_positions`), then every slice
  /// in order on the calling thread, checking `ctx` at each boundary.
  /// On abort, stats() holds the partial counters accumulated so far.
  /// When `sink` is non-null each slice's matches are handed to it as the
  /// slice finishes and the returned vector is empty — results flow to the
  /// wire while later slices are still verifying. A top-k search ignores
  /// `sink` and returns FinishTopK's answer.
  Result<std::vector<MatchResult>> Run(const ExecContext& ctx = {},
                                       MatchStats* stats = nullptr,
                                       const MatchSink* sink = nullptr);

  /// Stats accumulated so far: phase-1 probe counters always; verify
  /// counters only for slices executed through Run() (VerifySlice is
  /// const and reports through its own out-param).
  const MatchStats& stats() const { return stats_; }

  /// Slice granularity Run() uses (also the QueryService default): small
  /// enough that a cancel/deadline lands promptly even when every
  /// candidate runs a full banded DTW, large enough that the per-slice
  /// query-side precomputation stays noise.
  static constexpr size_t kDefaultSlicePositions = 2048;

 private:
  QueryExecutor(const TimeSeries& series, const PrefixStats& prefix,
                std::span<const double> q, const QueryParams& params,
                std::vector<QuerySegment> segments,
                const MatchOptions& options);

  /// Window ranges at params_.epsilon, and the probe order over them.
  void PlanWindows();
  /// Candidate starts whose segment-`i` window lies in the index rows
  /// nearest Q's segment-`i` mean, widened to hold `min_positions`.
  Result<IntervalList> NearestRows(size_t i, uint64_t min_positions);
  /// The (at most) `count` windows of `pool` that meet the cNSM
  /// constraints and lie nearest Q on a sample of points, nearest first.
  std::vector<int64_t> NearestBySample(const IntervalList& pool,
                                       size_t count) const;
  void FinishPhase1();

  const TimeSeries& series_;
  const PrefixStats& prefix_;
  std::vector<double> q_;
  QueryParams params_;
  MatchOptions options_;
  std::vector<QuerySegment> segments_;
  std::vector<QueryWindow> windows_;
  std::vector<size_t> probe_order_;
  size_t probe_limit_ = 0;

  size_t probes_done_ = 0;
  bool phase1_done_ = false;
  bool cs_empty_ = false;  // intersection emptied before the last window
  IntervalList cs_;

  std::vector<IntervalList> slices_;
  size_t slices_verified_ = 0;  // via Run() only

  // Top-k search state (StartTopK).
  bool topk_ = false;
  size_t topk_k_ = 0;
  size_t topk_zone_ = 0;
  size_t topk_capacity_ = 0;
  IntervalList seeds_;                  // verified by StartTopK, not in CS
  std::vector<MatchResult> seed_best_;  // their heap
  mutable SharedBound bound_;           // lowered by concurrent slices

  Verifier verifier_;
  MatchStats stats_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_EXECUTOR_H_
