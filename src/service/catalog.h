// Catalog: many named series multiplexed over one shared KvStore, mutable
// while queries are running.
//
// Key layout (the epoch delta-commit scheme):
//
//   series/<name>/d<G>/c...   shared, append-only data-chunk rows
//   series/<name>/e<N>/data/h per-epoch header (length + redirect to d<G>)
//   series/<name>/e<N>/idx/   per-epoch index stack
//   catalog/<name>            directory row: index layout + current epoch
//   journal/<name>            commit journal (present only mid-commit)
//
// Data-chunk rows live in a per-series *data generation* namespace that is
// written once per offset and never rewritten: an append adds the grown
// tail chunks and leaves every previously committed chunk untouched, so
// extending a series by k points costs O(k + index) writes regardless of
// how long the series already is. Only the header and the index levels are
// versioned per epoch. A new data generation is allocated when the values
// actually change wholesale (CreateSeries / ReplaceSeries); the old one
// stays alive until the last epoch referencing it is purged.
//
// Epoch namespaces are written once and never mutated, which is the MVCC
// story: a query pins a shared_ptr snapshot (the Session opened on some
// epoch) at Acquire time and runs against it to completion, while
// CreateSeries / AppendSeries / ReplaceSeries / DropSeries build the next
// epoch beside it, flip the directory row, and retire the old epoch. A
// retired epoch's keys are range-deleted from the store the moment its
// last pinned Session is released — queries never observe torn or
// mixed-epoch state. (Shared data rows are safe to read concurrently with
// an append because appends only add chunks or grow the final partial one;
// a reader pinned on an older header stops at its own length.)
//
// Crash safety: every commit writes an intent record to journal/<name>
// first and clears it last. If the process dies mid-commit, the next
// Catalog opened over the store rolls the commit back (epoch keys deleted,
// appended tail chunks trimmed) or forward (the directory flip landed:
// the superseded epoch is purged) and then sweeps any orphaned
// series/<name>/ child namespaces that no directory row references. See
// recovery_report() for what a given open had to repair.
//
// Appends are incremental: a per-series SeriesIngestor keeps the
// IncrementalIndexBuilder state warm across appends, so extending a series
// by k points updates the index rows for the affected windows instead of
// rebuilding from scratch (the builder state is rebuilt lazily from the
// current session if it was dropped).
//
// Sessions opened on first query are cached; when the cached sessions'
// resident footprint — including retired generations still pinned by
// in-flight queries — exceeds the memory budget, the least-recently-used
// open sessions are dropped. In-flight queries keep evicted or retired
// sessions alive through their shared_ptr, so eviction is always safe
// under concurrency.
//
// Write operations are serialized with each other (and with retired-epoch
// cleanup) internally; they never block readers beyond the storage
// layer's brief write locks.
#ifndef KVMATCH_SERVICE_CATALOG_H_
#define KVMATCH_SERVICE_CATALOG_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "matchdp/session.h"
#include "service/ingest.h"
#include "service/service_stats.h"
#include "storage/instrumented_kvstore.h"
#include "storage/kvstore.h"

namespace kvmatch {

class EventLog;

class Catalog {
 public:
  struct Options {
    Session::Options session;
    /// Budget for cached sessions' MemoryBytes() across both generations
    /// (open + retired-but-pinned); the most recently used session is
    /// always retained. 0 means unlimited.
    uint64_t memory_budget_bytes = 256ull << 20;
    /// Optional structured event journal (epoch commits, recovery
    /// roll-backs/forwards, orphan sweeps, evictions, drops). Not owned;
    /// must outlive the catalog and every Session it hands out (purges on
    /// release can emit). nullptr disables.
    EventLog* event_log = nullptr;
    /// Commits whose end-to-end latency reaches this emit a "slow_commit"
    /// event and bump kvmatch_slow_commits_total. 0 disables.
    double slow_commit_ms = 0.0;
  };

  /// What crash recovery had to repair while opening the catalog. All
  /// zeros after a clean shutdown.
  struct RecoveryReport {
    /// Journaled commits whose directory flip never became durable: the
    /// half-written epoch was deleted and appended tail chunks trimmed.
    uint64_t epochs_rolled_back = 0;
    /// Journaled commits that were durable but whose crashed process never
    /// retired the superseded epoch: the old generation was purged.
    uint64_t epochs_rolled_forward = 0;
    /// series/<name>/ child namespaces no directory row referenced
    /// (crashed drops, pre-journal debris) that were range-deleted.
    uint64_t orphans_swept = 0;

    bool clean() const {
      return epochs_rolled_back == 0 && epochs_rolled_forward == 0 &&
             orphans_swept == 0;
    }
  };

  /// Opens a catalog over `store` (which must outlive the catalog — and
  /// every Session handed out by Acquire). Any series previously ingested
  /// into the store are discovered from their directory rows and become
  /// queryable immediately; half-committed epochs left by a crashed
  /// process are rolled back or forward and orphaned namespaces swept
  /// before the first query can run.
  Catalog(KvStore* store, Options options);
  explicit Catalog(KvStore* store);

  /// Flushes staged store writes (journal clears ride later flushes) so a
  /// clean shutdown reopens with a clean recovery report. A crash skips
  /// this; the lingering intent replays as an idempotent roll-forward.
  ~Catalog();

  // ---- Write path. Safe while queries are in flight; individual calls
  // ---- serialize against each other.

  /// Registers `series` under `name` (letters/digits/._- only) as a new
  /// series. Fails with InvalidArgument if the name is taken, malformed,
  /// or the series is shorter than the smallest index window.
  Status CreateSeries(const std::string& name, TimeSeries series);

  /// Legacy name for CreateSeries.
  Status Ingest(const std::string& name, TimeSeries series) {
    return CreateSeries(name, std::move(series));
  }

  /// Extends `name` with `values`, installing a new epoch. Writes only
  /// the appended tail chunks plus the new epoch's header and index rows
  /// — never the data rows previous commits wrote. Queries already
  /// running (or holding a previously Acquired session) keep their epoch;
  /// new Acquires see the extended series. NotFound if unregistered.
  Status AppendSeries(const std::string& name, std::span<const double> values);

  /// Replaces `name`'s values wholesale with `series` (new epoch, new
  /// data generation, fresh ingest state). NotFound if unregistered.
  Status ReplaceSeries(const std::string& name, TimeSeries series);

  /// Unregisters `name`: new Acquires fail with NotFound immediately,
  /// in-flight queries complete on their pinned epoch, and the series'
  /// keys are deleted once the last pinned session is released.
  Status DropSeries(const std::string& name);

  // ---- Read path.

  /// Returns the (shared, immutable) session for `name`'s current epoch,
  /// opening it from the store if it is not cached. Safe from any number
  /// of threads, including concurrently with the write path. Concurrent
  /// misses on one series share one open; misses on different series
  /// open side by side.
  Result<std::shared_ptr<const Session>> Acquire(const std::string& name);

  bool Contains(const std::string& name) const;
  std::vector<std::string> ListSeries() const;

  /// Current epoch of `name` (NotFound if unregistered).
  Result<uint64_t> SeriesEpoch(const std::string& name) const;

  /// Committed length of `name` in points (NotFound if unregistered).
  /// Cheaper than Acquire for directory-style listings: no session open.
  Result<uint64_t> SeriesLength(const std::string& name) const;

  /// What crash recovery repaired when this catalog was opened.
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Optional sink for ingest metrics (points appended, batches
  /// committed, epochs installed/retired, commit breakdowns). Also
  /// attaches the instrumented store's op stats and the event journal's
  /// counters to the registry, so one Snapshot() covers the whole write
  /// path. Call before serving traffic; the registry must outlive the
  /// catalog's write-path use.
  void SetStatsRegistry(StatsRegistry* stats);

  /// The event journal this catalog emits into (Options::event_log).
  EventLog* event_log() const { return options_.event_log; }

  /// Sets the catalog's families in `snap`: epochs, generations, pinned
  /// snapshots, resident footprint, eviction and recovery totals, plus the
  /// backend's own kvmatch_storage_* figures. Safe from any thread, and
  /// never waits for a commit in flight.
  void FillGauges(ServiceStatsSnapshot* snap) const;

  // ---- Cache introspection (for tests and stats).

  size_t cached_sessions() const;
  uint64_t cached_bytes() const;
  /// Superseded generations still pinned by in-flight readers.
  size_t retired_sessions() const;
  uint64_t retired_bytes() const;
  /// Resident bytes of the per-series incremental ingest state.
  uint64_t ingest_state_bytes() const;

 private:
  /// Refcounted cleanup token for one key namespace. An epoch handle's
  /// refs count live Session objects; a data-generation handle's refs
  /// count the (unpurged) epoch handles whose headers redirect into it —
  /// each epoch handle points at its data generation through `parent` and
  /// releases that reference when the epoch itself is purged. A
  /// namespace's keys are range-deleted when it has been retired AND its
  /// last reference died — whichever happens second — so shared data rows
  /// outlive every epoch that can still reach them.
  struct NsHandle {
    KvStore* store = nullptr;
    /// Keeps the instrumented wrapper behind `store` alive for purges
    /// that run after the catalog is gone (a pinned Session's release).
    std::shared_ptr<KvStore> keepalive;
    std::shared_ptr<std::mutex> write_mu;  // serializes all store writes
    std::string prefix;  // "series/<name>/e<N>/" or "series/<name>/d<G>/"
    std::shared_ptr<NsHandle> parent;  // data generation; null for data

    std::mutex mu;
    int refs = 0;
    bool retired = false;  // superseded (or series dropped)
    bool purged = false;
  };

  enum class CommitKind { kCreate, kAppend, kReplace };

  struct DirEntry {
    Session::Options layout;
    uint64_t epoch = 0;
    uint64_t length = 0;   // committed points (epoch header's length)
    std::string data_ns;   // shared chunk namespace the epoch reads
  };

  struct Entry {
    std::shared_ptr<const Session> session;
    uint64_t bytes = 0;
    uint64_t last_used = 0;  // LRU tick
  };

  /// A superseded generation, tracked until its readers finish so the
  /// memory budget sees both generations.
  struct RetiredEntry {
    std::weak_ptr<const Session> session;
    uint64_t bytes = 0;
  };

  static std::string SeriesNs(const std::string& name, uint64_t epoch) {
    return "series/" + name + "/e" + std::to_string(epoch) + "/";
  }
  static std::string DataGenNs(const std::string& name, uint64_t gen) {
    return "series/" + name + "/d" + std::to_string(gen) + "/";
  }
  static std::string DirectoryKey(const std::string& name) {
    return "catalog/" + name;
  }
  static std::string JournalKey(const std::string& name) {
    return "journal/" + name;
  }

  /// Range-deletes `handle`'s keys (under the shared write lock).
  static void PurgeNs(const std::shared_ptr<NsHandle>& handle);

  /// Drops one reference; if the handle is retired and this was the last
  /// reference, purges its keys and releases the parent chain.
  static void ReleaseNs(std::shared_ptr<NsHandle> handle);

  /// Marks `handle` retired; purges immediately (and releases the parent
  /// chain) if no references remain. Must not be called under mu_.
  static void RetireNs(const std::shared_ptr<NsHandle>& handle);

  /// Adds one reference (a new epoch sharing a data generation).
  static void AddNsRef(const std::shared_ptr<NsHandle>& handle);

  /// Wraps a freshly opened session so its destruction participates in
  /// `handle`'s retire-and-purge protocol.
  static std::shared_ptr<const Session> WrapSession(
      std::shared_ptr<NsHandle> handle, std::unique_ptr<Session> session);

  /// Builds the next epoch from `ingestor` under the commit journal,
  /// flips the directory row and installs the session, retiring `name`'s
  /// previous epoch (and, for kReplace, its data generation). Caller must
  /// hold ingest_mu_. `appended_points` is for stats only.
  Status CommitEpochLocked(const std::string& name,
                           const SeriesIngestor& ingestor, CommitKind kind,
                           uint64_t appended_points);

  // ---- Recovery at open (constructor only; no concurrency yet). ----

  /// Replays every journal/<name> intent record: rolls the commit back or
  /// forward depending on whether the directory flip became durable.
  void RecoverJournals();
  /// Range-deletes series/<name>/ child namespaces that the directory
  /// does not reference (run after RecoverJournals, which may have
  /// restored or removed directory rows' targets).
  void SweepOrphans();

  /// Opens `name`'s current epoch with `lock` (on mu_) released around
  /// the store reads, then caches it, reopening if a commit superseded
  /// the epoch meanwhile. `lock` holds mu_ on entry and on return.
  Result<std::shared_ptr<const Session>> OpenAndCacheLocked(
      const std::string& name, std::unique_lock<std::mutex>& lock);

  /// Caches `session` for `name` and evicts LRU entries over budget.
  /// Returns the cached pointer. Caller must hold mu_.
  std::shared_ptr<const Session> CacheLocked(
      const std::string& name, std::shared_ptr<const Session> session);

  /// Bumps `name`'s LRU tick, re-measures its MemoryBytes (row caches
  /// warm over time) and evicts over budget. Caller must hold mu_.
  std::shared_ptr<const Session> TouchLocked(const std::string& name);

  /// Drops LRU entries (never `protect`) until open + retired bytes fit
  /// the budget. Caller must hold mu_.
  void EvictOverBudgetLocked(const std::string& protect);

  /// Prunes expired retired entries and returns the still-pinned bytes.
  /// Caller must hold mu_.
  uint64_t RetiredBytesLocked() const;

  /// Moves `name`'s open entry (if any) to the retired list. Caller must
  /// hold mu_.
  void RetireOpenEntryLocked(const std::string& name);

  /// Recomputes ingest_state_bytes_. Caller must hold ingest_mu_.
  void PublishIngestStateLocked();

  KvStore* store_;
  /// Wraps the caller's store so every op this catalog issues, recovery
  /// scans included, feeds per-op counters and latency histograms.
  /// store_ points at it; NsHandles hold it as keepalive.
  std::shared_ptr<InstrumentedKvStore> instrumented_;
  Options options_;
  StatsRegistry* stats_ = nullptr;  // set once before traffic; see setter
  RecoveryReport recovery_;        // written by the constructor only

  /// Serializes whole write-path calls (create/append/replace/drop) and
  /// guards ingestors_ / next_epoch_ / stats_.
  mutable std::mutex ingest_mu_;
  /// Serializes raw store writes between ingest commits and retired-epoch
  /// purges (which run on whichever thread drops the last session ref).
  /// shared_ptr so purges stay safe if they outlive the catalog.
  std::shared_ptr<std::mutex> store_write_mu_;
  std::map<std::string, std::unique_ptr<SeriesIngestor>> ingestors_;
  /// Sum of ingestors_' MemoryBytes(), republished under ingest_mu_ after
  /// every change so stats readers need not take that lock.
  std::atomic<uint64_t> ingest_state_bytes_{0};
  /// Allocates both epoch numbers and data generation numbers; never
  /// reused, even across drops and restarts.
  uint64_t next_epoch_ = 0;

  mutable std::mutex mu_;
  /// Series whose session an Acquire is opening outside mu_; a second
  /// miss on one of them waits on opened_cv_ instead of opening again.
  std::set<std::string> opening_;
  std::condition_variable opened_cv_;
  std::map<std::string, DirEntry> directory_;  // registered series
  std::map<std::string, std::shared_ptr<NsHandle>> handles_;       // epoch
  std::map<std::string, std::shared_ptr<NsHandle>> data_handles_;  // d<G>
  std::map<std::string, Entry> open_;
  mutable std::vector<RetiredEntry> retired_;
  uint64_t open_bytes_ = 0;
  uint64_t tick_ = 0;
  uint64_t evicted_ = 0;  // sessions dropped by the memory budget
};

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_CATALOG_H_
