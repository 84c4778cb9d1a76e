// Session: the one-stop public entry point for the exploratory workflow
// the paper motivates (§I, §III "Analysis") — load or ingest a series
// once, then interactively issue any of the four query types, top-k
// variants, and re-tuned (ε, α, β, ρ) knobs against the same index stack.
//
// Owns everything: the series, its prefix-stat oracle, the KV-index stack
// and (optionally) the backing KvStore. Cheap to query repeatedly.
//
// Once constructed, queries are const and touch only immutable state, the
// internally synchronized index row caches, and the window statistics,
// which the first cNSM query builds once (concurrent first queries wait
// for that one build and share it). So a session can serve any number of
// threads concurrently (the QueryService relies on this).
#ifndef KVMATCH_MATCHDP_SESSION_H_
#define KVMATCH_MATCHDP_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "match/top_k.h"
#include "matchdp/kv_match_dp.h"
#include "storage/kvstore.h"
#include "ts/series_store.h"

namespace kvmatch {

class Session {
 public:
  struct Options {
    size_t wu = 25;          // smallest index window
    size_t levels = 5;       // Σ = {wu · 2^k}
    double width = 0.5;      // index row width d
    size_t row_cache_rows = 1024;  // per store-backed index; 0 disables
    size_t series_chunk = 1024;    // SeriesStore chunk size
  };

  /// Builds a session from an in-memory series: constructs the index
  /// stack in memory. The fastest way to get going.
  static Result<std::unique_ptr<Session>> FromSeries(TimeSeries series,
                                                     Options options);
  static Result<std::unique_ptr<Session>> FromSeries(TimeSeries series) {
    return FromSeries(std::move(series), Options());
  }

  /// Ingests a series into `store` (chunked data + persisted index stack
  /// under ns + "data/" and ns + "idx/w<w>/") and returns a session over
  /// it. The namespace prefix lets many series share one store (the
  /// Catalog uses "series/<name>/"). The store must outlive the session.
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 const std::string& ns,
                                                 TimeSeries series,
                                                 Options options);
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 TimeSeries series,
                                                 Options options) {
    return Ingest(store, "", std::move(series), options);
  }
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 TimeSeries series) {
    return Ingest(store, "", std::move(series), Options());
  }

  /// Reopens a session previously written by Ingest under the same
  /// namespace: data and indexes are read back from the store (indexes
  /// stay store-backed with the row cache enabled).
  static Result<std::unique_ptr<Session>> Open(const KvStore* store,
                                               const std::string& ns,
                                               Options options);
  static Result<std::unique_ptr<Session>> Open(const KvStore* store,
                                               Options options) {
    return Open(store, "", options);
  }
  static Result<std::unique_ptr<Session>> Open(const KvStore* store) {
    return Open(store, "", Options());
  }

  /// ε-match with any of the four query types. |Q| must be >= wu. `ctx`
  /// makes the run abortable (Cancelled / DeadlineExceeded) at phase-1
  /// probe and phase-2 slice boundaries.
  Result<std::vector<MatchResult>> Query(std::span<const double> q,
                                         const QueryParams& params,
                                         MatchStats* stats = nullptr,
                                         const ExecContext& ctx = {}) const;

  /// Top-k best matches under the given query type, sorted by distance,
  /// in one pass of the executor with a live ε (match/top_k.h); ε in
  /// `params` only steers the segmentation. `ctx` is checked at the seed,
  /// probe and slice checkpoints, like Query's.
  Result<std::vector<MatchResult>> QueryTopK(
      std::span<const double> q, const QueryParams& params, size_t k,
      const TopKOptions& options = {}, MatchStats* stats = nullptr,
      const ExecContext& ctx = {}) const;

  /// The resumable executor for one query (DP segmentation included) —
  /// what the QueryService uses to cancel mid-flight and fan verify
  /// slices across workers. The session must outlive the executor.
  Result<std::unique_ptr<QueryExecutor>> MakeExecutor(
      std::span<const double> q, const QueryParams& params,
      const MatchOptions& options = {}) const;

  const TimeSeries& series() const { return series_; }
  size_t num_indexes() const { return indexes_.size(); }
  /// Total encoded bytes across the index stack (in-memory form only).
  uint64_t IndexBytes() const;
  /// Approximate resident bytes of this session: 8 per point of series
  /// values, the index stack (meta only for store-backed indexes) and its
  /// warmed row caches, plus 16 · (n + 1) for the prefix sums once a cNSM
  /// query has built them. Grows as queries run; drives the Catalog's
  /// eviction budget, which re-measures on every Acquire.
  uint64_t MemoryBytes() const;

 private:
  Session() = default;

  Status FinishInit(Options options);  // binds prefix stats + matcher

  TimeSeries series_;
  PrefixStats prefix_;
  std::vector<KvIndex> indexes_;
  std::vector<const KvIndex*> index_ptrs_;
  std::unique_ptr<KvMatchDp> matcher_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCHDP_SESSION_H_
