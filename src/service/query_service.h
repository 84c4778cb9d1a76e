// QueryService: the concurrent front door of the engine.
//
// N independent requests — any of the five QueryTypes, ε-threshold or
// top-k — are executed on a fixed-size worker pool against the Catalog's
// shared immutable sessions. Submission is future-based and never blocks:
// a full queue sheds load with ResourceExhausted, and a request whose
// deadline passes while it waits in the queue is answered with
// DeadlineExceeded instead of burning a worker.
//
// Execution is cooperative (match/executor.h): a worker checks the
// request's cancellation token and deadline at every phase-1 window probe
// and every phase-2 verify slice, so Cancel(request_id) — or a deadline
// expiring mid-flight — stops a running 100M-point scan within one slice
// and answers Cancelled / DeadlineExceeded carrying the partial stats
// accumulated up to the abort.
//
// Large verifications are also parallel *within* one query: the worker
// that owns a request fans its verify slices out to idle pool workers
// (claiming slices itself too, so progress never depends on idle
// capacity) and merges the per-slice results back in offset order.
//
// Per-series QPS, latency percentiles and aggregated MatchStats are
// collected in a StatsRegistry, alongside an in-flight gauge and
// cancelled / deadline-aborted counters.
#ifndef KVMATCH_SERVICE_QUERY_SERVICE_H_
#define KVMATCH_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "match/exec_context.h"
#include "match/executor.h"
#include "match/top_k.h"
#include "service/catalog.h"
#include "service/service_stats.h"
#include "service/thread_pool.h"
#include "service/trace.h"

namespace kvmatch {

struct QueryRequest {
  /// A window of the queried series, [offset, offset + length).
  struct Window {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  std::string series;         // catalog name to query
  std::vector<double> query;  // Q, |Q| >= wu
  /// By-reference Q: when set, `query` is ignored and Q is this window of
  /// the session the worker acquires, so the window and the answer come
  /// from one snapshot. An empty or out-of-range window fails with
  /// InvalidArgument.
  std::optional<Window> reference;
  QueryParams params;
  /// 0 → ε-match with params.epsilon; > 0 → best-k search in one pass
  /// with a live ε (params.epsilon only steers the segmentation).
  size_t top_k = 0;
  TopKOptions topk_options;
  /// Wall-clock budget from submission; 0 disables. A request whose
  /// budget is already spent at submission, or still queued when it
  /// expires, is failed with DeadlineExceeded without executing; one that
  /// expires while running is aborted at the next probe/slice checkpoint.
  /// A negative budget counts as already spent.
  double timeout_ms = 0.0;
  /// Optional caller-owned cancellation token: Cancel() it from any
  /// thread to abort this request (the network server holds one per
  /// in-flight wire query). When null the service still allocates an
  /// internal token so Cancel(request_id) always works.
  std::shared_ptr<CancelToken> cancel;
  /// Collect a per-stage QueryTrace (queue wait, probe, verify slices)
  /// into QueryResponse::trace. Off by default: the untraced path costs
  /// one branch per hook.
  bool collect_trace = false;
  /// Streaming hook for ε-threshold queries: when set, each verified
  /// slice's matches are delivered in offset order (non-empty spans, on a
  /// worker thread, strictly before `done`) as the slice completes, and
  /// QueryResponse::matches arrives empty on success — the network server
  /// uses this to overlap verification with transfer. Ignored for top-k
  /// requests (a global heap cannot emit prefixes early). Must not block
  /// for long; it is called while later slices are still verifying.
  QueryExecutor::MatchSink on_partial;
};

struct QueryResponse {
  Status status = Status::OK();
  std::vector<MatchResult> matches;
  /// On Cancelled / DeadlineExceeded aborts these are the *partial*
  /// counters accumulated before the checkpoint that stopped the run.
  MatchStats stats;
  /// Submission → completion, including queue wait.
  double latency_ms = 0.0;
  /// Stage spans, present iff the request set collect_trace. The trace
  /// origin is the submission instant, so span start offsets line up with
  /// latency_ms. shared_ptr: the server appends a serialize span after
  /// the response has been handed to the completion callback.
  std::shared_ptr<QueryTrace> trace;
};

class QueryService {
 public:
  struct Options {
    size_t num_threads = 0;   // 0 → hardware_concurrency
    size_t max_queue = 1024;  // pending requests before load shedding
    /// Phase-2 decomposition granularity: candidate positions per verify
    /// slice (0 → one slice, i.e. no mid-phase-2 checkpoints).
    size_t verify_slice_positions = QueryExecutor::kDefaultSlicePositions;
    /// Fan one request's verify slices across idle pool workers. Helpers
    /// are opportunistic: with no idle capacity the owning worker simply
    /// verifies every slice itself.
    bool parallel_verify = true;
  };

  /// `catalog` must outlive the service.
  QueryService(Catalog* catalog, Options options);
  explicit QueryService(Catalog* catalog);

  /// Destruction drains: every submitted request's future is fulfilled.
  ~QueryService() = default;

  /// Enqueues one request. The returned future is always fulfilled —
  /// with matches, or with a non-OK status (NotFound for unknown series,
  /// ResourceExhausted when shedding, DeadlineExceeded on timeout,
  /// Cancelled after a Cancel).
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Enqueues a batch; futures are index-aligned with `requests`.
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Like Submit, but delivers the response through `done` instead of a
  /// future — the hook the network server uses to stream responses back
  /// out of order as they complete. `done` is called exactly once: on a
  /// worker thread after execution, or inline on the submitting thread
  /// when the request is shed (queue full) or its deadline is already
  /// spent. It must not block for long and must not call back into
  /// Submit* (a worker thread would deadlock against a full queue).
  ///
  /// Returns the service-assigned request id, valid for Cancel() until
  /// `done` runs. Inline-failed submissions return an id that Cancel()
  /// reports as NotFound.
  uint64_t SubmitWithCallback(QueryRequest request,
                              std::function<void(QueryResponse)> done);

  /// Aborts the identified request: still-queued requests are answered
  /// Cancelled at dequeue, running ones stop at their next probe/slice
  /// checkpoint. NotFound once the request has been answered (or for an
  /// id this service never issued).
  Status Cancel(uint64_t request_id);

  /// Cancels every in-flight request (graceful-shutdown path).
  void CancelAll();

  /// Accepted requests not yet answered (the in-flight gauge).
  size_t InFlight() const;

  /// Registry snapshot plus the pool's live queue-depth / busy-worker
  /// gauges (the registry does not own the pool) and the catalog's MVCC /
  /// storage gauges.
  ServiceStatsSnapshot Stats() const {
    ServiceStatsSnapshot snap = stats_.Snapshot();
    snap.Set(Metric::kQueueDepth, static_cast<double>(pool_.QueueDepth()));
    snap.Set(Metric::kWorkersBusy, static_cast<double>(pool_.NumBusy()));
    snap.Set(Metric::kWorkers, static_cast<double>(pool_.num_threads()));
    catalog_->FillGauges(&snap);
    return snap;
  }

  /// The live registry, for front-ends (e.g. the TCP server) that record
  /// their own gauges — connection counts, protocol errors — alongside
  /// the query metrics.
  StatsRegistry* stats_registry() { return &stats_; }

  size_t num_threads() const { return pool_.num_threads(); }
  size_t QueueDepth() const { return pool_.QueueDepth(); }

 private:
  QueryResponse Execute(const QueryRequest& request,
                        const std::shared_ptr<CancelToken>& token,
                        std::chrono::steady_clock::time_point enqueued,
                        std::chrono::steady_clock::time_point deadline);

  /// Phase 2 of `executor` with slices fanned across idle workers; the
  /// calling worker claims slices too. Results land in offset order (for
  /// a top-k search, the slices' heaps in slice order, which the caller
  /// hands to FinishTopK).
  /// When `sink` is non-null, completed slices are flushed to it in
  /// offset order as soon as every earlier slice has finished, and
  /// `*matches` stays empty.
  Status ParallelVerify(const std::shared_ptr<const Session>& session,
                        QueryExecutor* executor, const ExecContext& ctx,
                        std::vector<MatchResult>* matches, MatchStats* stats,
                        const QueryExecutor::MatchSink* sink = nullptr);

  void Unregister(uint64_t request_id);

  Catalog* catalog_;
  Options options_;
  StatsRegistry stats_;

  mutable std::mutex inflight_mu_;
  uint64_t next_request_id_ = 1;                           // guarded ↑
  std::map<uint64_t, std::shared_ptr<CancelToken>> inflight_;  // guarded ↑

  ThreadPool pool_;  // last member: workers stop before the rest tears down
};

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_QUERY_SERVICE_H_
