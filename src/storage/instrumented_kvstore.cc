#include "storage/instrumented_kvstore.h"

#include <chrono>

namespace kvmatch {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Counts the rows a scan actually yields (and their bytes) into the
/// shared sink. A row is counted once, when the iterator first rests on
/// it — at construction for the first row, in Next() afterwards — so an
/// abandoned scan charges only what it touched.
class CountingScanIterator : public ScanIterator {
 public:
  CountingScanIterator(std::unique_ptr<ScanIterator> base,
                       std::shared_ptr<KvStoreStats> stats)
      : base_(std::move(base)), stats_(std::move(stats)) {
    CountCurrent();
  }

  bool Valid() const override { return base_->Valid(); }
  void Next() override {
    base_->Next();
    CountCurrent();
  }
  std::string_view key() const override { return base_->key(); }
  std::string_view value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  void CountCurrent() {
    if (!base_->Valid()) return;
    stats_->AddScanRows(1);
    stats_->AddBytesRead(base_->key().size() + base_->value().size());
  }

  std::unique_ptr<ScanIterator> base_;
  std::shared_ptr<KvStoreStats> stats_;
};

}  // namespace

const char* KvStoreStats::OpName(int op) {
  switch (op) {
    case kGet:
      return "get";
    case kPut:
      return "put";
    case kDelete:
      return "delete";
    case kDeleteRange:
      return "delete_range";
    case kApply:
      return "apply";
    case kScan:
      return "scan";
    case kFlush:
      return "flush";
    default:
      return "unknown";
  }
}

KvStoreStats::Snapshot KvStoreStats::TakeSnapshot() const {
  Snapshot snap;
  for (int op = 0; op < kNumOps; ++op) {
    snap.ops[op].count = ops_[op].count.load(std::memory_order_relaxed);
    snap.ops[op].errors = ops_[op].errors.load(std::memory_order_relaxed);
    snap.ops[op].latency = ops_[op].latency.TakeSnapshot();
  }
  snap.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  snap.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  snap.scan_rows = scan_rows_.load(std::memory_order_relaxed);
  snap.batch_ops = batch_ops_.TakeSnapshot();
  return snap;
}

Status InstrumentedKvStore::Put(std::string_view key,
                                std::string_view value) {
  const auto t0 = Clock::now();
  Status st = base_->Put(key, value);
  stats_->RecordOp(KvStoreStats::kPut, MsSince(t0), st.ok());
  if (st.ok()) stats_->AddBytesWritten(key.size() + value.size());
  return st;
}

Status InstrumentedKvStore::Get(std::string_view key,
                                std::string* value) const {
  const auto t0 = Clock::now();
  Status st = base_->Get(key, value);
  // A miss is an answer, not a failure: only real faults count as errors.
  stats_->RecordOp(KvStoreStats::kGet, MsSince(t0),
                   st.ok() || st.IsNotFound());
  if (st.ok()) stats_->AddBytesRead(key.size() + value->size());
  return st;
}

Status InstrumentedKvStore::Delete(std::string_view key) {
  const auto t0 = Clock::now();
  Status st = base_->Delete(key);
  stats_->RecordOp(KvStoreStats::kDelete, MsSince(t0), st.ok());
  return st;
}

Status InstrumentedKvStore::DeleteRange(std::string_view start_key,
                                        std::string_view end_key) {
  const auto t0 = Clock::now();
  Status st = base_->DeleteRange(start_key, end_key);
  stats_->RecordOp(KvStoreStats::kDeleteRange, MsSince(t0), st.ok());
  return st;
}

Status InstrumentedKvStore::Apply(const WriteBatch& batch) {
  const auto t0 = Clock::now();
  Status st = base_->Apply(batch);
  stats_->RecordOp(KvStoreStats::kApply, MsSince(t0), st.ok());
  stats_->RecordBatchOps(batch.num_ops());
  if (st.ok()) stats_->AddBytesWritten(batch.ApproximateBytes());
  return st;
}

std::unique_ptr<ScanIterator> InstrumentedKvStore::Scan(
    std::string_view start_key, std::string_view end_key) const {
  const auto t0 = Clock::now();
  auto it = base_->Scan(start_key, end_key);
  // The scan op's latency is the snapshot/setup cost; rows stream through
  // the counting wrapper as the consumer advances.
  stats_->RecordOp(KvStoreStats::kScan, MsSince(t0),
                   it != nullptr && it->status().ok());
  return std::make_unique<CountingScanIterator>(std::move(it), stats_);
}

size_t InstrumentedKvStore::ApproximateCount() const {
  return base_->ApproximateCount();
}

Status InstrumentedKvStore::Flush() {
  const auto t0 = Clock::now();
  Status st = base_->Flush();
  stats_->RecordOp(KvStoreStats::kFlush, MsSince(t0), st.ok());
  return st;
}

}  // namespace kvmatch
