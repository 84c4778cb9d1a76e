// InstrumentedKvStore: a transparent decorator that makes any KvStore
// backend observable — per-operation counters and latency histograms
// (get/put/delete/delete-range/batch-apply/scan/flush), bytes read and
// written, scan rows yielded, and batch-size distribution — without the
// backend knowing it is being watched.
//
// The decorator forwards every call to the wrapped store and records
// around it, so it composes with all three backends (MemKvStore,
// FileKvStore, MiniKv) and with the fault-injection harness: wrap the
// injector to count the ops the test actually performed, or let the
// injector wrap this to fault below the measurement point.
//
// The KvStoreStats sink is shared (shared_ptr) so the StatsRegistry can
// keep snapshotting long after the catalog that owned the wrapper is
// gone, and so purge-on-release threads that outlive the Catalog can keep
// writing through the wrapper safely (the NsHandle keepalive holds the
// wrapper itself).
//
// Thread-safety matches the wrapped store's contract: all recording is
// lock-free (relaxed atomics + striped histograms), so the decorator adds
// no serialization of its own.
#ifndef KVMATCH_STORAGE_INSTRUMENTED_KVSTORE_H_
#define KVMATCH_STORAGE_INSTRUMENTED_KVSTORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "storage/kvstore.h"

namespace kvmatch {

/// Lock-free sink for one store's operation metrics. Get misses
/// (NotFound) are not errors — they are an answer; every other non-OK
/// status counts as an error for its op.
class KvStoreStats {
 public:
  enum Op : int {
    kGet = 0,
    kPut,
    kDelete,
    kDeleteRange,
    kApply,
    kScan,
    kFlush,
    kNumOps,
  };

  /// Stable lower-case label for the Prometheus `op` label.
  static const char* OpName(int op);

  struct Snapshot {
    struct PerOp {
      uint64_t count = 0;
      uint64_t errors = 0;
      LatencyHistogram::Snapshot latency;
    };
    PerOp ops[kNumOps];
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t scan_rows = 0;
    /// Distribution of WriteBatch::num_ops() per Apply (unit: ops, not
    /// ms; the histogram's log buckets work for any positive quantity).
    LatencyHistogram::Snapshot batch_ops;

    uint64_t TotalOps() const {
      uint64_t n = 0;
      for (const auto& op : ops) n += op.count;
      return n;
    }
  };

  void RecordOp(Op op, double latency_ms, bool ok) {
    PerOpCell& cell = ops_[op];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    if (!ok) cell.errors.fetch_add(1, std::memory_order_relaxed);
    cell.latency.Record(latency_ms);
  }
  void AddBytesRead(uint64_t n) {
    if (n) bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBytesWritten(uint64_t n) {
    if (n) bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddScanRows(uint64_t n) {
    if (n) scan_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordBatchOps(uint64_t num_ops) {
    batch_ops_.Record(static_cast<double>(num_ops));
  }

  Snapshot TakeSnapshot() const;

 private:
  struct PerOpCell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> errors{0};
    LatencyHistogram latency;
  };

  PerOpCell ops_[kNumOps];
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> scan_rows_{0};
  LatencyHistogram batch_ops_;
};

class InstrumentedKvStore : public KvStore {
 public:
  /// Wraps `base` (not owned; must outlive this wrapper) with a fresh
  /// stats sink.
  explicit InstrumentedKvStore(KvStore* base)
      : InstrumentedKvStore(base, std::make_shared<KvStoreStats>()) {}

  /// Wraps `base` feeding an existing sink (several stores can share one).
  InstrumentedKvStore(KvStore* base, std::shared_ptr<KvStoreStats> stats)
      : base_(base), stats_(std::move(stats)) {}

  KvStore* base() const { return base_; }
  const std::shared_ptr<KvStoreStats>& stats() const { return stats_; }

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  Status DeleteRange(std::string_view start_key,
                     std::string_view end_key) override;
  Status Apply(const WriteBatch& batch) override;
  std::unique_ptr<ScanIterator> Scan(std::string_view start_key,
                                     std::string_view end_key) const override;
  size_t ApproximateCount() const override;
  Status Flush() override;
  void FillGauges(
      std::vector<std::pair<std::string, uint64_t>>* gauges) const override {
    base_->FillGauges(gauges);
  }

 private:
  KvStore* base_;
  std::shared_ptr<KvStoreStats> stats_;
};

}  // namespace kvmatch

#endif  // KVMATCH_STORAGE_INSTRUMENTED_KVSTORE_H_
