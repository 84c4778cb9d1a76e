#include "match/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "service/trace.h"

namespace kvmatch {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Status ValidateSegments(std::span<const double> q,
                        const std::vector<QuerySegment>& segments) {
  if (segments.empty()) {
    return Status::InvalidArgument("empty query segmentation");
  }
  size_t expect = 0;
  for (const auto& seg : segments) {
    if (seg.index == nullptr) {
      return Status::InvalidArgument("segment has no index");
    }
    if (seg.length != seg.index->window()) {
      return Status::InvalidArgument("segment length != index window");
    }
    if (seg.offset != expect) {
      return Status::InvalidArgument("segments must tile a prefix of Q");
    }
    expect += seg.length;
  }
  if (expect > q.size()) {
    return Status::InvalidArgument("segmentation longer than Q");
  }
  return Status::OK();
}

/// [0, last] minus `holes` (sorted, disjoint).
IntervalList Complement(const IntervalList& holes, int64_t last) {
  IntervalList out;
  int64_t next = 0;
  for (const auto& wi : holes.intervals()) {
    if (wi.l > next) out.AppendInterval({next, std::min(wi.l - 1, last)});
    next = std::max(next, wi.r + 1);
    if (next > last) return out;
  }
  out.AppendInterval({next, last});
  return out;
}

}  // namespace

Result<std::unique_ptr<QueryExecutor>> QueryExecutor::Create(
    const TimeSeries& series, const PrefixStats& prefix,
    std::span<const double> q, const QueryParams& params,
    std::vector<QuerySegment> segments, const MatchOptions& options) {
  KVMATCH_RETURN_NOT_OK(ValidateSegments(q, segments));
  return std::unique_ptr<QueryExecutor>(new QueryExecutor(
      series, prefix, q, params, std::move(segments), options));
}

QueryExecutor::QueryExecutor(const TimeSeries& series,
                             const PrefixStats& prefix,
                             std::span<const double> q,
                             const QueryParams& params,
                             std::vector<QuerySegment> segments,
                             const MatchOptions& options)
    : series_(series),
      prefix_(prefix),
      q_(q.begin(), q.end()),
      params_(params),
      options_(options),
      segments_(std::move(segments)),
      verifier_(series, prefix) {
  // The window-range computation and the reorder estimate scan are
  // phase-1 work: time them so phase1_ms matches the pre-executor
  // accounting.
  const auto t0 = std::chrono::steady_clock::now();
  PlanWindows();
  probe_limit_ = options_.max_windows == 0
                     ? probe_order_.size()
                     : std::min(probe_order_.size(), options_.max_windows);
  stats_.phase1_ms += MsSince(t0);
  if (probe_limit_ == 0) FinishPhase1();
}

void QueryExecutor::PlanWindows() {
  std::vector<size_t> lengths;
  lengths.reserve(segments_.size());
  for (const auto& seg : segments_) lengths.push_back(seg.length);
  windows_ = ComputeQueryWindowsSegmented(q_, lengths, params_);

  // Probe order (§VI-C: smaller estimated RList first).
  probe_order_.resize(segments_.size());
  std::iota(probe_order_.begin(), probe_order_.end(), 0);
  if (options_.reorder_windows) {
    std::vector<uint64_t> est(segments_.size());
    for (size_t i = 0; i < segments_.size(); ++i) {
      est[i] = segments_[i].index->EstimateIntervals(windows_[i].lr,
                                                     windows_[i].ur);
    }
    std::stable_sort(probe_order_.begin(), probe_order_.end(),
                     [&](size_t a, size_t b) { return est[a] < est[b]; });
  }
}

Result<IntervalList> QueryExecutor::NearestRows(size_t i,
                                                uint64_t min_positions) {
  const QuerySegment& seg = segments_[i];
  const std::vector<RowMeta>& meta = seg.index->meta();
  if (meta.empty()) return IntervalList();
  const auto first = q_.begin() + static_cast<int64_t>(seg.offset);
  const double mu =
      std::accumulate(first, first + static_cast<int64_t>(seg.length), 0.0) /
      static_cast<double>(seg.length);
  // The row that could hold mu (the first with up > mu), then its
  // neighbours, nearer side first, until the rows hold min_positions.
  size_t lo = static_cast<size_t>(
      std::upper_bound(meta.begin(), meta.end(), mu,
                       [](double v, const RowMeta& r) { return v < r.up; }) -
      meta.begin());
  lo = std::min(lo, meta.size() - 1);
  size_t hi = lo;
  uint64_t held = meta[lo].num_positions;
  while (held < min_positions && (lo > 0 || hi + 1 < meta.size())) {
    const bool down =
        hi + 1 == meta.size() ||
        (lo > 0 && mu - meta[lo - 1].up <= meta[hi + 1].low - mu);
    held += down ? meta[--lo].num_positions : meta[++hi].num_positions;
  }
  // Row midpoints: the probe takes exactly rows lo..hi.
  auto rows = seg.index->ProbeRange((meta[lo].low + meta[lo].up) / 2,
                                    (meta[hi].low + meta[hi].up) / 2,
                                    &stats_.probe);
  if (!rows.ok()) return rows.status();
  IntervalList valid;
  valid.AppendInterval({0, static_cast<int64_t>(series_.size() - q_.size())});
  return IntervalList::Intersect(
      rows->ShiftLeft(static_cast<int64_t>(seg.offset)), valid);
}

std::vector<int64_t> QueryExecutor::NearestBySample(const IntervalList& pool,
                                                    size_t count) const {
  // Squared differences at up to 32 evenly spread points, z-normalized
  // for cNSM (whose α/β constraints drop a window here already). A bounded
  // max-heap keeps the best `count`, and a window's sum stops once it
  // passes the heap's worst. It only orders seeds: the verifier decides
  // every match.
  const size_t m = q_.size();
  const size_t samples = std::min<size_t>(m, 32);
  const bool normalized = IsNormalized(params_.type);
  const MeanStd q_ms = ComputeMeanStd(q_);
  const std::vector<double> q_cmp = normalized ? ZNormalize(q_) : q_;
  std::vector<size_t> at(samples);
  std::vector<double> q_at(samples);
  for (size_t i = 0; i < samples; ++i) {
    at[i] = samples == 1 ? 0 : i * (m - 1) / (samples - 1);
    q_at[i] = q_cmp[at[i]];
  }
  const std::vector<double>& xs = series_.values();
  std::vector<std::pair<double, int64_t>> heap;  // max-heap on score
  for (const auto& wi : pool.intervals()) {
    for (int64_t off = wi.l; off <= wi.r; ++off) {
      double mean = 0.0, inv = 1.0;
      if (normalized) {
        const MeanStd ms = prefix_.WindowMeanStd(static_cast<size_t>(off), m);
        if (ms.std < q_ms.std / params_.alpha - 1e-12 ||
            ms.std > q_ms.std * params_.alpha + 1e-12 ||
            std::fabs(ms.mean - q_ms.mean) > params_.beta + 1e-12) {
          continue;
        }
        mean = ms.mean;
        inv = ms.std > 1e-12 ? 1.0 / ms.std : 0.0;
      }
      const double worst = heap.size() < count
                               ? std::numeric_limits<double>::infinity()
                               : heap.front().first;
      const double* s = xs.data() + off;
      double score = 0.0;
      for (size_t i = 0; i < samples && score <= worst; ++i) {
        const double d = (s[at[i]] - mean) * inv - q_at[i];
        score += d * d;
      }
      if (score >= worst) continue;
      if (heap.size() == count) {
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
      }
      heap.emplace_back(score, off);
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  std::vector<int64_t> nearest;
  nearest.reserve(heap.size());
  for (const auto& [score, off] : heap) nearest.push_back(off);
  return nearest;
}

Status QueryExecutor::StartTopK(size_t k, const TopKOptions& options,
                                const ExecContext& ctx) {
  if (topk_ || probes_done_ > 0 || phase1_done_) {
    return Status::InvalidArgument("top-k must start before phase 1");
  }
  if (k == 0) return Status::InvalidArgument("top-k needs k >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  const size_t m = q_.size();
  const size_t windows = series_.size() >= m ? series_.size() - m + 1 : 0;
  topk_ = true;
  topk_k_ = k;
  topk_zone_ = options.exclusion_zone;
  topk_capacity_ = TopKCapacity(k, topk_zone_, windows);
  const uint64_t rows0 = stats_.probe.rows_fetched;
  MatchStats local;
  TopKHeap heap(topk_capacity_, &bound_);
  auto finish = [&](Status st) {
    seed_best_ = heap.Take();
    local.candidate_positions = static_cast<uint64_t>(seeds_.num_positions());
    local.candidate_intervals = seeds_.num_intervals();
    stats_.Add(local);
    if (ctx.trace != nullptr) {
      ctx.trace->AddSpan(
          kSpanSeed, t0, std::chrono::steady_clock::now(),
          {{"rows_fetched", stats_.probe.rows_fetched - rows0},
           {"candidates", local.candidate_positions},
           {"distance_calls", local.distance_calls}});
    }
    if (st.ok()) {
      // Phase 1 probes at the bound; +∞ (fewer than N eligible seeds)
      // becomes the largest finite ε, which admits every window without
      // turning a zero-σ cNSM range into NaN.
      params_.epsilon =
          std::min(bound_.Load(), std::numeric_limits<double>::max());
      PlanWindows();
    }
    stats_.phase1_ms += MsSince(t0);
    return st;
  };
  // When N covers every window, no bound can prune: there is no seed.
  if (topk_capacity_ >= windows) return finish(Status::OK());

  // Seeds: the windows in the first segment's index rows nearest Q's
  // first-window mean, widened until they hold N — a by-reference query's
  // own window among them. The pool is those that also sit in every other
  // segment's nearest row, when there are N such. First come the N
  // windows on each side of the pool window nearest Q on a sample of
  // points (matches come in runs of neighbouring offsets), then the other
  // 2N nearest, so the bound is near d_N after about 4N verifications.
  // The rest of the rows follow only if the heap is still not full; a
  // pool window not verified here stays a phase-1 candidate.
  const auto need = static_cast<int64_t>(topk_capacity_);
  auto first = NearestRows(0, topk_capacity_);
  if (!first.ok()) return finish(first.status());
  IntervalList pool = *first;
  for (size_t i = 1; i < segments_.size() && pool.num_positions() >= need;
       ++i) {
    auto rows = NearestRows(i, 0);
    if (!rows.ok()) return finish(rows.status());
    pool = IntervalList::Intersect(pool, *rows);
  }
  if (pool.num_positions() < need) pool = *first;
  std::vector<int64_t> nearest = NearestBySample(pool, 2 * topk_capacity_);
  const int64_t last = static_cast<int64_t>(windows) - 1;
  IntervalList around, others;
  if (!nearest.empty()) {
    around.AppendInterval({std::max<int64_t>(0, nearest.front() - need),
                           std::min(last, nearest.front() + need)});
  }
  std::sort(nearest.begin(), nearest.end());
  for (int64_t off : nearest) {
    if (!around.Contains(off)) others.AppendPosition(off);
  }

  QueryParams unbounded = params_;
  unbounded.epsilon = std::numeric_limits<double>::infinity();
  auto verify = [&](const IntervalList& tier) {
    seeds_ = IntervalList::Union(seeds_, tier);
    return verifier_.VerifyCancellable(q_, unbounded, tier, ctx, nullptr,
                                       &local, options_.verify, &heap);
  };
  Status st = verify(around);
  if (st.ok()) st = verify(others);
  if (st.ok() && bound_.Load() == std::numeric_limits<double>::infinity()) {
    st = verify(IntervalList::Intersect(*first, Complement(seeds_, last)));
  }
  return finish(st);
}

Status QueryExecutor::StepProbe() {
  if (phase1_done_) {
    return Status::InvalidArgument("phase 1 already complete");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const size_t i = probe_order_[probes_done_];
  auto is = segments_[i].index->ProbeRange(windows_[i].lr, windows_[i].ur,
                                           &stats_.probe);
  if (!is.ok()) {
    stats_.phase1_ms += MsSince(t0);
    return is.status();
  }
  const IntervalList cs_i =
      is.value().ShiftLeft(static_cast<int64_t>(windows_[i].offset));
  if (probes_done_ == 0) {
    cs_ = cs_i;
  } else {
    cs_ = IntervalList::Intersect(cs_, cs_i);
  }
  probes_done_ += 1;
  if (cs_.empty()) cs_empty_ = true;
  stats_.phase1_ms += MsSince(t0);
  if (cs_empty_ || probes_done_ == probe_limit_) FinishPhase1();
  return Status::OK();
}

void QueryExecutor::FinishPhase1() {
  // A candidate must host a full |Q| subsequence.
  const size_t m = q_.size();
  if (probe_limit_ == 0 || cs_empty_ || series_.size() < m) {
    cs_ = IntervalList();
  } else {
    // A top-k search has verified its seeds already.
    cs_ = IntervalList::Intersect(
        cs_, Complement(seeds_, static_cast<int64_t>(series_.size() - m)));
  }
  stats_.candidate_intervals += cs_.num_intervals();
  stats_.candidate_positions += static_cast<uint64_t>(cs_.num_positions());
  phase1_done_ = true;
}

Status QueryExecutor::RunPhase1(const ExecContext& ctx) {
  // Already complete (e.g. Run() after an explicit RunPhase1): no work,
  // and no empty duplicate probe span on the trace.
  if (phase1_done_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  const size_t probes0 = probes_done_;
  const uint64_t rows0 = stats_.probe.rows_fetched;
  Status st = Status::OK();
  while (!phase1_done_) {
    st = ctx.Check();
    if (!st.ok()) break;
    st = StepProbe();
    if (!st.ok()) break;
  }
  if (ctx.trace != nullptr) {
    // Span recorded even on abort, covering the windows actually stepped.
    ctx.trace->AddSpan(
        kSpanProbe, t0, std::chrono::steady_clock::now(),
        {{"windows", probes_done_ - probes0},
         {"rows_fetched", stats_.probe.rows_fetched - rows0}});
  }
  return st;
}

size_t QueryExecutor::SliceCandidates(size_t max_positions) {
  slices_.clear();
  slices_verified_ = 0;
  if (cs_.empty()) return 0;
  if (max_positions == 0) {
    slices_.push_back(cs_);
    return 1;
  }
  IntervalList current;
  int64_t current_positions = 0;
  for (const auto& wi : cs_.intervals()) {
    int64_t l = wi.l;
    while (l <= wi.r) {
      const int64_t room =
          static_cast<int64_t>(max_positions) - current_positions;
      if (room <= 0) {
        slices_.push_back(std::move(current));
        current = IntervalList();
        current_positions = 0;
        continue;
      }
      const int64_t r = std::min(wi.r, l + room - 1);
      current.AppendInterval({l, r});
      current_positions += r - l + 1;
      l = r + 1;
    }
  }
  if (!current.empty()) slices_.push_back(std::move(current));
  return slices_.size();
}

Result<std::vector<MatchResult>> QueryExecutor::VerifySlice(
    size_t i, const ExecContext& ctx, MatchStats* stats) const {
  KVMATCH_RETURN_NOT_OK(ctx.Check());
  if (i >= slices_.size()) {
    return Status::InvalidArgument("verify slice out of range");
  }
  const auto t0 = std::chrono::steady_clock::now();
  MatchStats local;
  std::vector<MatchResult> results;
  TopKHeap heap(topk_capacity_, &bound_);
  const Status st = verifier_.VerifyCancellable(
      q_, params_, slices_[i], ctx, &results, &local, options_.verify,
      topk_ ? &heap : nullptr);
  if (topk_) results = heap.Take();
  local.phase2_ms = MsSince(t0);
  if (!st.ok()) {
    // Partial counters (and the time burned) still reach the caller so an
    // aborted query reports what it actually did.
    if (stats != nullptr) stats->Add(local);
    return st;
  }
  if (ctx.trace != nullptr) {
    // One span per slice; the recording thread becomes the span's worker
    // id, so parallel verify shows up as overlapping lanes in the trace.
    ctx.trace->AddSpan(
        kSpanVerify, t0, std::chrono::steady_clock::now(),
        {{"slice", i},
         {"candidates", static_cast<uint64_t>(slices_[i].num_positions())},
         {"distance_calls", local.distance_calls},
         {"lb_pruned", local.lb_pruned},
         {"constraint_pruned", local.constraint_pruned}});
  }
  if (stats != nullptr) stats->Add(local);
  return results;
}

Result<std::vector<MatchResult>> QueryExecutor::Run(const ExecContext& ctx,
                                                    MatchStats* stats,
                                                    const MatchSink* sink) {
  auto report = [&] {
    if (stats != nullptr) stats->Add(stats_);
  };
  if (Status st = RunPhase1(ctx); !st.ok()) {
    report();
    return st;
  }
  if (slices_.empty()) SliceCandidates(kDefaultSlicePositions);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<MatchResult> results;
  for (size_t i = 0; i < slices_.size(); ++i) {
    MatchStats slice_stats;
    auto part = VerifySlice(i, ctx, &slice_stats);
    // The slice's wall time is folded into the phase-wide figure below.
    slice_stats.phase2_ms = 0.0;
    stats_.Add(slice_stats);
    if (!part.ok()) {
      stats_.phase2_ms += MsSince(t0);
      report();
      return part.status();
    }
    slices_verified_ += 1;
    if (!topk_ && sink != nullptr && *sink) {
      if (!part->empty()) (*sink)(*part);
    } else {
      results.insert(results.end(), part->begin(), part->end());
    }
  }
  stats_.phase2_ms += MsSince(t0);
  report();
  if (topk_) return FinishTopK(std::move(results));
  return results;
}

std::vector<MatchResult> QueryExecutor::FinishTopK(
    std::vector<MatchResult> slices) const {
  slices.insert(slices.end(), seed_best_.begin(), seed_best_.end());
  return SelectTopK(std::move(slices), topk_k_, topk_zone_);
}

}  // namespace kvmatch
