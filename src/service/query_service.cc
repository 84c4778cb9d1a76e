#include "service/query_service.h"

#include <algorithm>
#include <condition_variable>
#include <span>
#include <thread>
#include <utility>

namespace kvmatch {

namespace {

size_t DefaultThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Absolute deadline for a request submitted at `enqueued`; the clock's
/// max() means "no deadline". A non-positive budget maps to the enqueue
/// instant itself, i.e. already expired.
std::chrono::steady_clock::time_point ComputeDeadline(
    std::chrono::steady_clock::time_point enqueued, double timeout_ms) {
  if (timeout_ms == 0.0) return std::chrono::steady_clock::time_point::max();
  if (timeout_ms < 0.0) return enqueued;
  return enqueued + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(timeout_ms));
}

bool HasDeadline(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point::max();
}

/// Q: the request's own values, or its by-reference window of `session`.
Result<std::span<const double>> QueryValues(const QueryRequest& request,
                                            const Session& session) {
  if (!request.reference.has_value()) return std::span(request.query);
  const uint64_t series_len = session.series().size();
  const auto [offset, length] = *request.reference;
  if (length == 0 || offset > series_len || length > series_len - offset) {
    return Status::InvalidArgument(
        "query reference [" + std::to_string(offset) + ", +" +
        std::to_string(length) + ") is outside '" + request.series + "'");
  }
  return session.series().Subsequence(static_cast<size_t>(offset),
                                      static_cast<size_t>(length));
}

/// Shared state of one request's fanned-out verify phase. Slice indices
/// are claimed atomically, so every slice runs exactly once no matter how
/// many helpers actually got scheduled; the owning worker always claims
/// too, so completion never depends on idle pool capacity. Helpers hold
/// the state (and the pinned session) through a shared_ptr, so a helper
/// task that only gets dequeued after the owner already returned still
/// finds live memory and exits without claiming anything.
struct SliceFanout {
  std::shared_ptr<const Session> session;  // pins series/index memory
  /// Owned by the submitting worker's stack; safe because that worker
  /// waits for every *claimed* slice before returning, and a helper that
  /// arrives later finds no slice left to claim and never dereferences.
  QueryExecutor* executor = nullptr;
  /// ctx.cancel is likewise owned by the submitting worker for the whole
  /// fanout (it holds the token's shared_ptr across Execute()).
  ExecContext ctx;

  /// Optional streaming consumer (owned by the submitting worker, like
  /// executor/ctx). Flushed strictly in slice order under `mu`.
  const QueryExecutor::MatchSink* sink = nullptr;

  std::atomic<size_t> next{0};
  std::vector<Status> status;               // per slice
  std::vector<std::vector<MatchResult>> results;
  std::vector<MatchStats> stats;

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;     // guarded by mu
  std::vector<char> done;   // per slice, guarded by mu
  size_t flush_next = 0;    // first unflushed slice, guarded by mu

  void RunSlices() {
    const size_t total = results.size();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      auto part = executor->VerifySlice(i, ctx, &stats[i]);
      if (part.ok()) {
        results[i] = std::move(part).value();
      } else {
        status[i] = part.status();
      }
      std::lock_guard<std::mutex> lock(mu);
      completed += 1;
      done[i] = 1;
      if (sink != nullptr) {
        // In-order flush: emit every finished slice whose predecessors
        // have all been emitted, so the wire sees offset order even when
        // slices complete out of order. Whoever finishes slice
        // `flush_next` drains the run; the callback runs under `mu`,
        // which also serializes concurrent emitters.
        while (flush_next < total && done[flush_next]) {
          if (status[flush_next].ok() && !results[flush_next].empty()) {
            (*sink)(results[flush_next]);
            results[flush_next].clear();
            results[flush_next].shrink_to_fit();
          }
          flush_next += 1;
        }
      }
      if (completed == total) cv.notify_all();
    }
  }
};

}  // namespace

QueryService::QueryService(Catalog* catalog)
    : QueryService(catalog, Options()) {}

QueryService::QueryService(Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      pool_(DefaultThreads(options.num_threads), options.max_queue) {}

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitWithCallback(std::move(request), [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

uint64_t QueryService::SubmitWithCallback(
    QueryRequest request, std::function<void(QueryResponse)> done) {
  const auto enqueued = std::chrono::steady_clock::now();
  const auto deadline = ComputeDeadline(enqueued, request.timeout_ms);

  // Every submission gets an id; only accepted ones get registered.
  std::shared_ptr<CancelToken> token = request.cancel;
  if (token == nullptr) token = std::make_shared<CancelToken>();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    id = next_request_id_++;
  }

  // A budget that is already spent never deserves a queue slot: answer
  // right away instead of displacing a request that could still make it.
  if (HasDeadline(deadline) && deadline <= enqueued) {
    stats_.Add(Metric::kDeadlineExceeded);
    QueryResponse response;
    response.status =
        Status::DeadlineExceeded("request budget spent before submission");
    done(std::move(response));
    return id;
  }

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_[id] = token;
  }
  stats_.Add(Metric::kQueriesInFlight);

  // The request and callback are moved into the task; shared_ptr keeps
  // the lambda copyable for std::function.
  auto shared_request = std::make_shared<QueryRequest>(std::move(request));
  auto shared_done =
      std::make_shared<std::function<void(QueryResponse)>>(std::move(done));
  Status submitted = pool_.Submit([this, shared_request, shared_done, token,
                                   id, enqueued, deadline] {
    QueryResponse response =
        Execute(*shared_request, token, enqueued, deadline);
    Unregister(id);
    stats_.Add(Metric::kQueriesInFlight, -1);
    (*shared_done)(std::move(response));
  });
  if (!submitted.ok()) {
    Unregister(id);
    stats_.Add(Metric::kQueriesInFlight, -1);
    stats_.Add(Metric::kRejected);
    QueryResponse response;
    response.status = submitted;
    response.latency_ms = MsSince(enqueued);
    (*shared_done)(std::move(response));
  }
  return id;
}

void QueryService::Unregister(uint64_t request_id) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(request_id);
}

Status QueryService::Cancel(uint64_t request_id) {
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(request_id);
    if (it == inflight_.end()) {
      return Status::NotFound("request " + std::to_string(request_id) +
                              " is not in flight");
    }
    token = it->second;
  }
  token->Cancel();
  return Status::OK();
}

void QueryService::CancelAll() {
  std::vector<std::shared_ptr<CancelToken>> tokens;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    tokens.reserve(inflight_.size());
    for (auto& [id, token] : inflight_) tokens.push_back(token);
  }
  for (auto& token : tokens) token->Cancel();
}

size_t QueryService::InFlight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_.size();
}

std::vector<std::future<QueryResponse>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(Submit(std::move(request)));
  return futures;
}

Status QueryService::ParallelVerify(
    const std::shared_ptr<const Session>& session, QueryExecutor* executor,
    const ExecContext& ctx, std::vector<MatchResult>* matches,
    MatchStats* stats, const QueryExecutor::MatchSink* sink) {
  const size_t num_slices = executor->num_slices();
  auto fanout = std::make_shared<SliceFanout>();
  fanout->session = session;
  fanout->executor = executor;
  fanout->ctx = ctx;
  fanout->sink = (sink != nullptr && *sink) ? sink : nullptr;
  fanout->status.assign(num_slices, Status::OK());
  fanout->results.resize(num_slices);
  fanout->stats.resize(num_slices);
  fanout->done.assign(num_slices, 0);

  // Opportunistic helpers: leave one worker for the owner itself, and
  // never mind a full queue — a rejected helper just means the owner
  // verifies more slices. Helpers never block, so they cannot deadlock
  // the pool the way a nested Submit-and-wait would.
  const size_t helpers = std::min(num_slices, pool_.num_threads()) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    if (!pool_.Submit([fanout] { fanout->RunSlices(); }).ok()) break;
  }

  fanout->RunSlices();
  {
    std::unique_lock<std::mutex> lock(fanout->mu);
    fanout->cv.wait(lock, [&] { return fanout->completed == num_slices; });
  }

  Status overall = Status::OK();
  double phase2_ms = 0.0;
  size_t total = 0;
  for (size_t i = 0; i < num_slices; ++i) {
    // Per-slice wall times overlap under parallelism; report the phase as
    // the max slice time instead of their sum so phase2_ms stays a
    // wall-clock figure.
    phase2_ms = std::max(phase2_ms, fanout->stats[i].phase2_ms);
    fanout->stats[i].phase2_ms = 0.0;
    stats->Add(fanout->stats[i]);
    if (!fanout->status[i].ok() && overall.ok()) overall = fanout->status[i];
    total += fanout->results[i].size();
  }
  stats->phase2_ms += phase2_ms;
  if (!overall.ok()) return overall;
  matches->reserve(total);
  for (auto& part : fanout->results) {
    matches->insert(matches->end(), part.begin(), part.end());
  }
  return Status::OK();
}

QueryResponse QueryService::Execute(
    const QueryRequest& request, const std::shared_ptr<CancelToken>& token,
    std::chrono::steady_clock::time_point enqueued,
    std::chrono::steady_clock::time_point deadline) {
  QueryResponse response;
  if (request.collect_trace) {
    // Origin = submission instant, so span offsets line up with
    // latency_ms; the time between then and now is queue wait.
    response.trace = std::make_shared<QueryTrace>(enqueued);
    response.trace->AddSpan(
        kSpanQueue, enqueued, std::chrono::steady_clock::now(),
        {{"queue_depth", static_cast<uint64_t>(pool_.QueueDepth())}});
  }
  // Checked at dequeue, before any work: a request that was cancelled or
  // outlived its budget in the queue is answered immediately, not run.
  // `>=` (not `>`) so a zero-length budget can never slip through on a
  // coarse clock tick.
  if (token->cancelled()) {
    stats_.Add(Metric::kCancelled);
    response.status = Status::Cancelled("request cancelled while queued");
    response.latency_ms = MsSince(enqueued);
    return response;
  }
  if (HasDeadline(deadline) && std::chrono::steady_clock::now() >= deadline) {
    stats_.Add(Metric::kDeadlineExceeded);
    response.status = Status::DeadlineExceeded(
        "request expired after waiting in queue");
    response.latency_ms = MsSince(enqueued);
    return response;
  }

  auto session = catalog_->Acquire(request.series);
  if (!session.ok()) {
    response.status = session.status();
    response.latency_ms = MsSince(enqueued);
    stats_.Add(Metric::kNotFound);
    return response;
  }

  ExecContext ctx;
  ctx.cancel = token.get();
  ctx.deadline = deadline;
  ctx.trace = response.trace.get();

  Result<std::vector<MatchResult>> matches = std::vector<MatchResult>{};
  const auto q = QueryValues(request, **session);
  if (!q.ok()) {
    matches = q.status();
  } else {
    auto executor = (*session)->MakeExecutor(*q, request.params);
    if (!executor.ok()) {
      matches = executor.status();
    } else {
      // A top-k request is the same pass, seeded first: its slices share
      // a live ε and their heaps merge at the end.
      Status st = request.top_k > 0
                      ? (*executor)->StartTopK(request.top_k,
                                               request.topk_options, ctx)
                      : Status::OK();
      if (st.ok()) st = (*executor)->RunPhase1(ctx);
      if (!st.ok()) {
        response.stats.Add((*executor)->stats());  // partial phase-1
        matches = st;
      } else {
        const size_t num_slices =
            (*executor)->SliceCandidates(options_.verify_slice_positions);
        const QueryExecutor::MatchSink* sink =
            request.on_partial && request.top_k == 0 ? &request.on_partial
                                                     : nullptr;
        if (options_.parallel_verify && num_slices >= 2 &&
            pool_.num_threads() >= 2) {
          std::vector<MatchResult> merged;
          st = ParallelVerify(*session, executor->get(), ctx, &merged,
                              &response.stats, sink);
          response.stats.Add((*executor)->stats());  // phase-1 counters
          if (!st.ok()) {
            matches = st;
          } else if ((*executor)->top_k()) {
            matches = (*executor)->FinishTopK(std::move(merged));
          } else {
            matches = std::move(merged);
          }
        } else {
          // Serial: Run() walks the prepared slices with per-slice ctx
          // checks and folds phase-1 + verify stats into one report.
          matches = (*executor)->Run(ctx, &response.stats, sink);
        }
      }
    }
  }

  response.latency_ms = MsSince(enqueued);
  if (matches.ok()) {
    response.matches = std::move(matches).value();
    stats_.RecordQuery(request.series, response.latency_ms, response.stats,
                       /*ok=*/true);
  } else {
    response.status = matches.status();
    if (response.status.IsCancelled()) {
      stats_.Add(Metric::kCancelled);
    } else if (response.status.IsDeadlineExceeded()) {
      stats_.Add(Metric::kDeadlineAbortedRunning);
    } else {
      stats_.RecordQuery(request.series, response.latency_ms, response.stats,
                         /*ok=*/false);
    }
  }
  return response;
}

}  // namespace kvmatch
