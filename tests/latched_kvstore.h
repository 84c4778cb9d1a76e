// LatchedKvStore: a KvStore decorator whose reads can be held on a latch.
//
// Once Arm(prefix) is called, every Get or Scan that starts at a key
// under `prefix` blocks until Release(). Arming a series' namespace
// ("series/<name>/") stalls any session open of that series inside its
// store reads, so tests can check what else keeps running meanwhile.
// ArmFlush() likewise holds every Flush, which stalls a commit in flight.
// Other writes always pass through.
//
// Thread-safe.
#ifndef KVMATCH_TESTS_LATCHED_KVSTORE_H_
#define KVMATCH_TESTS_LATCHED_KVSTORE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "storage/kvstore.h"

namespace kvmatch {

class LatchedKvStore : public KvStore {
 public:
  explicit LatchedKvStore(KvStore* base) : base_(base) {}

  void Arm(std::string prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    prefix_ = std::move(prefix);
    armed_ = true;
  }

  void ArmFlush() {
    std::lock_guard<std::mutex> lock(mu_);
    flush_armed_ = true;
  }

  /// Opens the latch; stalled and later reads and flushes pass through.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    flush_armed_ = false;
    cv_.notify_all();
  }

  /// Waits up to `timeout_ms` until `count` reads are stalled at once.
  bool WaitForStalled(size_t count, double timeout_ms) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        [&] { return stalled_ >= count; });
  }

  Status Put(std::string_view key, std::string_view value) override {
    return base_->Put(key, value);
  }
  Status Get(std::string_view key, std::string* value) const override {
    Stall(key);
    return base_->Get(key, value);
  }
  Status Delete(std::string_view key) override { return base_->Delete(key); }
  Status DeleteRange(std::string_view start_key,
                     std::string_view end_key) override {
    return base_->DeleteRange(start_key, end_key);
  }
  Status Apply(const WriteBatch& batch) override {
    return base_->Apply(batch);
  }
  std::unique_ptr<ScanIterator> Scan(std::string_view start_key,
                                     std::string_view end_key) const override {
    Stall(start_key);
    return base_->Scan(start_key, end_key);
  }
  size_t ApproximateCount() const override {
    return base_->ApproximateCount();
  }
  Status Flush() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (flush_armed_) Hold(lock, flush_armed_);
    }
    return base_->Flush();
  }

 private:
  void Stall(std::string_view key) const {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_ || !key.starts_with(prefix_)) return;
    Hold(lock, armed_);
  }

  /// Counts the caller as stalled until `latch` drops.
  void Hold(std::unique_lock<std::mutex>& lock, const bool& latch) const {
    ++stalled_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !latch; });
    --stalled_;
  }

  KvStore* base_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::string prefix_;
  bool armed_ = false;
  bool flush_armed_ = false;
  mutable size_t stalled_ = 0;
};

}  // namespace kvmatch

#endif  // KVMATCH_TESTS_LATCHED_KVSTORE_H_
