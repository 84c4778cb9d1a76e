// Unit tests for storage/: MemKvStore, FileKvStore, block format, SSTable,
// MiniKv (including corruption detection and newest-wins merge semantics).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common/event_log.h"
#include "common/rng.h"
#include "storage/block.h"
#include "ts/series_store.h"
#include "storage/file_kvstore.h"
#include "storage/instrumented_kvstore.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "storage/sstable.h"

namespace kvmatch {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// ---- Shared KvStore contract, parameterized over implementations ----

enum class StoreKind { kMem, kFile, kMini };

struct StoreFixture {
  std::unique_ptr<KvStore> store;
  std::string path;  // for cleanup

  StoreFixture() = default;
  StoreFixture(StoreFixture&&) = default;
  StoreFixture& operator=(StoreFixture&&) = default;

  ~StoreFixture() {
    store.reset();
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

StoreFixture MakeStore(StoreKind kind, const std::string& tag) {
  StoreFixture f;
  switch (kind) {
    case StoreKind::kMem:
      f.store = std::make_unique<MemKvStore>();
      break;
    case StoreKind::kFile: {
      f.path = TempPath("kvm_file_" + tag);
      std::remove(f.path.c_str());
      auto r = FileKvStore::Open(f.path);
      EXPECT_TRUE(r.ok());
      f.store = std::move(r).value();
      break;
    }
    case StoreKind::kMini: {
      f.path = TempPath("kvm_mini_" + tag);
      fs::remove_all(f.path);
      auto r = MiniKv::Open(f.path);
      EXPECT_TRUE(r.ok());
      f.store = std::move(r).value();
      break;
    }
  }
  return f;
}

class KvStoreContract : public ::testing::TestWithParam<StoreKind> {};

TEST_P(KvStoreContract, PutGetRoundTrip) {
  auto f = MakeStore(GetParam(), "putget");
  ASSERT_TRUE(f.store->Put("alpha", "1").ok());
  ASSERT_TRUE(f.store->Put("beta", "2").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  std::string v;
  ASSERT_TRUE(f.store->Get("alpha", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(f.store->Get("beta", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(f.store->Get("gamma", &v).IsNotFound());
}

TEST_P(KvStoreContract, OverwriteKeepsLatest) {
  auto f = MakeStore(GetParam(), "overwrite");
  ASSERT_TRUE(f.store->Put("k", "old").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  ASSERT_TRUE(f.store->Put("k", "new").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  std::string v;
  ASSERT_TRUE(f.store->Get("k", &v).ok());
  EXPECT_EQ(v, "new");
}

TEST_P(KvStoreContract, ScanIsOrderedAndBounded) {
  auto f = MakeStore(GetParam(), "scan");
  Rng rng(1);
  std::map<std::string, std::string> truth;
  for (int i = 0; i < 500; ++i) {
    const std::string k = Key(static_cast<int>(rng.UniformInt(0, 9999)));
    const std::string v = "v" + std::to_string(i);
    truth[k] = v;
    ASSERT_TRUE(f.store->Put(k, v).ok());
  }
  ASSERT_TRUE(f.store->Flush().ok());

  const std::string lo = Key(2500), hi = Key(7500);
  std::map<std::string, std::string> expected;
  for (const auto& [k, v] : truth) {
    if (k >= lo && k < hi) expected[k] = v;
  }
  std::map<std::string, std::string> got;
  std::string prev;
  for (auto it = f.store->Scan(lo, hi); it->Valid(); it->Next()) {
    ASSERT_TRUE(it->status().ok());
    const std::string k(it->key());
    EXPECT_GT(k, prev);  // strictly increasing
    prev = k;
    got[k] = std::string(it->value());
  }
  EXPECT_EQ(got, expected);
}

TEST_P(KvStoreContract, ScanEmptyEndKeyGoesToEnd) {
  auto f = MakeStore(GetParam(), "scanend");
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(f.store->Put(Key(i), "x").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  size_t count = 0;
  for (auto it = f.store->Scan(Key(10), ""); it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 10u);
}

TEST_P(KvStoreContract, ScanEmptyRange) {
  auto f = MakeStore(GetParam(), "scannone");
  ASSERT_TRUE(f.store->Put("m", "1").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  auto it = f.store->Scan("x", "z");
  EXPECT_FALSE(it->Valid());
}

TEST_P(KvStoreContract, DeleteRemovesKeyFromGetAndScan) {
  auto f = MakeStore(GetParam(), "delete");
  ASSERT_TRUE(f.store->Put("a", "1").ok());
  ASSERT_TRUE(f.store->Put("b", "2").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  ASSERT_TRUE(f.store->Delete("a").ok());
  ASSERT_TRUE(f.store->Delete("missing").ok());  // idempotent
  ASSERT_TRUE(f.store->Flush().ok());
  std::string v;
  EXPECT_TRUE(f.store->Get("a", &v).IsNotFound());
  ASSERT_TRUE(f.store->Get("b", &v).ok());
  size_t count = 0;
  for (auto it = f.store->Scan("", ""); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key(), "b");
    ++count;
  }
  EXPECT_EQ(count, 1u);
  // A deleted key can be rewritten.
  ASSERT_TRUE(f.store->Put("a", "3").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  ASSERT_TRUE(f.store->Get("a", &v).ok());
  EXPECT_EQ(v, "3");
}

TEST_P(KvStoreContract, DeleteRangeRemovesExactlyTheRange) {
  auto f = MakeStore(GetParam(), "delrange");
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(f.store->Put(Key(i), "v").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  ASSERT_TRUE(f.store->DeleteRange(Key(10), Key(40)).ok());
  ASSERT_TRUE(f.store->Flush().ok());
  std::vector<std::string> kept;
  for (auto it = f.store->Scan("", ""); it->Valid(); it->Next()) {
    kept.emplace_back(it->key());
  }
  ASSERT_EQ(kept.size(), 20u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(kept[static_cast<size_t>(i)], Key(i));
  for (int i = 40; i < 50; ++i) {
    EXPECT_EQ(kept[static_cast<size_t>(i - 30)], Key(i));
  }
}

TEST_P(KvStoreContract, DeleteRangeByPrefixCoversUnflushedWrites) {
  auto f = MakeStore(GetParam(), "delprefix");
  ASSERT_TRUE(f.store->Put("series/a/data/1", "x").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  ASSERT_TRUE(f.store->Put("series/a/data/2", "y").ok());  // staged only
  ASSERT_TRUE(f.store->Put("series/b/data/1", "z").ok());
  const std::string prefix = "series/a/";
  ASSERT_TRUE(f.store->DeleteRange(prefix, PrefixUpperBound(prefix)).ok());
  ASSERT_TRUE(f.store->Flush().ok());
  std::string v;
  EXPECT_TRUE(f.store->Get("series/a/data/1", &v).IsNotFound());
  EXPECT_TRUE(f.store->Get("series/a/data/2", &v).IsNotFound());
  ASSERT_TRUE(f.store->Get("series/b/data/1", &v).ok());
}

TEST_P(KvStoreContract, WriteBatchRespectsOpOrder) {
  auto f = MakeStore(GetParam(), "batch");
  ASSERT_TRUE(f.store->Put("old", "1").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  WriteBatch batch;
  batch.Put("k", "first");
  batch.Delete("k");
  batch.Put("k", "second");  // later op wins
  batch.DeleteRange("old", "oldz");
  batch.Put("old2", "kept");  // written after the range delete
  ASSERT_TRUE(f.store->Apply(batch).ok());
  ASSERT_TRUE(f.store->Flush().ok());
  std::string v;
  ASSERT_TRUE(f.store->Get("k", &v).ok());
  EXPECT_EQ(v, "second");
  EXPECT_TRUE(f.store->Get("old", &v).IsNotFound());
  ASSERT_TRUE(f.store->Get("old2", &v).ok());
  EXPECT_EQ(v, "kept");
}

TEST_P(KvStoreContract, ScanIsASnapshotAcrossLaterWrites) {
  auto f = MakeStore(GetParam(), "snapshot");
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.store->Put(Key(i), "v0").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  auto it = f.store->Scan("", "");
  // Mutate everything after the scan started.
  ASSERT_TRUE(f.store->DeleteRange("", "").ok());
  ASSERT_TRUE(f.store->Put(Key(99), "new").ok());
  ASSERT_TRUE(f.store->Flush().ok());
  size_t count = 0;
  for (; it->Valid(); it->Next()) {
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(it->value(), "v0");
    ++count;
  }
  EXPECT_EQ(count, 10u);
  // A fresh scan sees the new state.
  count = 0;
  for (auto it2 = f.store->Scan("", ""); it2->Valid(); it2->Next()) {
    EXPECT_EQ(it2->key(), Key(99));
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStores, KvStoreContract,
                         ::testing::Values(StoreKind::kMem, StoreKind::kFile,
                                           StoreKind::kMini));

// ---- Cross-backend parity: one op sequence, three implementations ----

// The write path (Delete/DeleteRange/WriteBatch) relies on all backends
// implementing identical overwrite and delete semantics. Drive the same
// randomized op sequence into every backend plus a std::map oracle and
// require byte-identical scan results at every Flush checkpoint.
TEST(StorageParityTest, SameOpSequenceYieldsIdenticalScans) {
  MiniKv::Options mini_opts;
  mini_opts.memtable_limit_bytes = 2048;  // force frequent table turnover
  const std::string mini_dir = TempPath("kvm_parity_mini");
  const std::string file_path = TempPath("kvm_parity_file");
  fs::remove_all(mini_dir);
  std::remove(file_path.c_str());

  std::vector<std::unique_ptr<KvStore>> stores;
  stores.push_back(std::make_unique<MemKvStore>());
  {
    auto r = FileKvStore::Open(file_path);
    ASSERT_TRUE(r.ok());
    stores.push_back(std::move(r).value());
  }
  {
    auto r = MiniKv::Open(mini_dir, mini_opts);
    ASSERT_TRUE(r.ok());
    stores.push_back(std::move(r).value());
  }

  std::map<std::string, std::string> oracle;
  auto oracle_delete_range = [&oracle](const std::string& lo,
                                       const std::string& hi) {
    auto begin = oracle.lower_bound(lo);
    auto end = hi.empty() ? oracle.end() : oracle.lower_bound(hi);
    oracle.erase(begin, end);
  };

  Rng rng(20260730);
  auto random_key = [&rng] {
    return Key(static_cast<int>(rng.UniformInt(0, 149)));
  };

  for (int step = 0; step < 1200; ++step) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 55) {
      const std::string k = random_key();
      const std::string v = "v" + std::to_string(rng.Next() % 1000);
      oracle[k] = v;
      for (auto& s : stores) ASSERT_TRUE(s->Put(k, v).ok());
    } else if (roll < 75) {
      const std::string k = random_key();
      oracle.erase(k);
      for (auto& s : stores) ASSERT_TRUE(s->Delete(k).ok());
    } else if (roll < 85) {
      std::string lo = random_key(), hi = random_key();
      if (hi < lo) std::swap(lo, hi);
      oracle_delete_range(lo, hi);
      for (auto& s : stores) ASSERT_TRUE(s->DeleteRange(lo, hi).ok());
    } else {
      WriteBatch batch;
      const int64_t ops = rng.UniformInt(2, 6);
      for (int64_t i = 0; i < ops; ++i) {
        const std::string k = random_key();
        if (rng.UniformInt(0, 2) == 0) {
          batch.Delete(k);
          oracle.erase(k);
        } else {
          const std::string v = "b" + std::to_string(rng.Next() % 1000);
          batch.Put(k, v);
          oracle[k] = v;
        }
      }
      for (auto& s : stores) ASSERT_TRUE(s->Apply(batch).ok());
    }

    if (step % 150 == 149) {
      for (auto& s : stores) ASSERT_TRUE(s->Flush().ok());
      for (size_t si = 0; si < stores.size(); ++si) {
        std::map<std::string, std::string> got;
        for (auto it = stores[si]->Scan("", ""); it->Valid(); it->Next()) {
          ASSERT_TRUE(it->status().ok());
          got[std::string(it->key())] = std::string(it->value());
        }
        ASSERT_EQ(got, oracle) << "store " << si << " diverged at step "
                               << step;
      }
    }
  }

  stores.clear();
  fs::remove_all(mini_dir);
  std::remove(file_path.c_str());
}

// The epoch delta-commit layout leans on namespace-wide DeleteRange
// (epoch purges, data-generation purges, appended-tail trims) interleaved
// with chunk/index writes across "series/<s>/d<G>/" and "series/<s>/e<N>/"
// prefixes. Drive that exact op shape into every backend plus the oracle.
TEST(StorageParityTest, SharedDataAndEpochNamespaceOpsStayInParity) {
  MiniKv::Options mini_opts;
  mini_opts.memtable_limit_bytes = 2048;
  const std::string mini_dir = TempPath("kvm_parity_ns_mini");
  const std::string file_path = TempPath("kvm_parity_ns_file");
  fs::remove_all(mini_dir);
  std::remove(file_path.c_str());

  std::vector<std::unique_ptr<KvStore>> stores;
  stores.push_back(std::make_unique<MemKvStore>());
  {
    auto r = FileKvStore::Open(file_path);
    ASSERT_TRUE(r.ok());
    stores.push_back(std::move(r).value());
  }
  {
    auto r = MiniKv::Open(mini_dir, mini_opts);
    ASSERT_TRUE(r.ok());
    stores.push_back(std::move(r).value());
  }

  std::map<std::string, std::string> oracle;
  auto oracle_delete_range = [&oracle](const std::string& lo,
                                       const std::string& hi) {
    auto begin = oracle.lower_bound(lo);
    auto end = hi.empty() ? oracle.end() : oracle.lower_bound(hi);
    oracle.erase(begin, end);
  };

  Rng rng(20260731);
  const std::vector<std::string> names = {"a", "bb"};
  // The real chunk-row key encoding, so the test tracks the layout.
  const auto chunk_key = SeriesStore::ChunkKey;
  auto data_ns = [&](const std::string& name) {
    return "series/" + name + "/d" +
           std::to_string(rng.UniformInt(0, 3)) + "/";
  };
  auto epoch_ns = [&](const std::string& name) {
    return "series/" + name + "/e" +
           std::to_string(rng.UniformInt(0, 5)) + "/";
  };
  auto apply_all = [&](const WriteBatch& batch) {
    for (auto& s : stores) ASSERT_TRUE(s->Apply(batch).ok());
  };

  for (int step = 0; step < 900; ++step) {
    const std::string name = names[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 35) {
      // Chunk row into a shared data generation.
      const std::string k = chunk_key(
          data_ns(name), 64 * static_cast<uint64_t>(rng.UniformInt(0, 15)));
      const std::string v = "chunk" + std::to_string(rng.Next() % 100);
      oracle[k] = v;
      for (auto& s : stores) ASSERT_TRUE(s->Put(k, v).ok());
    } else if (roll < 55) {
      // Epoch rows: header + an index row, as one atomic batch.
      const std::string ns = epoch_ns(name);
      WriteBatch batch;
      const std::string hk = ns + "data/h";
      const std::string rk =
          ns + "idx/w25/r" + std::to_string(rng.UniformInt(0, 9));
      const std::string hv = "hdr" + std::to_string(rng.Next() % 100);
      const std::string rv = "row" + std::to_string(rng.Next() % 100);
      batch.Put(hk, hv);
      batch.Put(rk, rv);
      oracle[hk] = hv;
      oracle[rk] = rv;
      apply_all(batch);
    } else if (roll < 70) {
      // Namespace purge (epoch retire or data-generation death).
      const std::string ns =
          rng.UniformInt(0, 1) == 0 ? data_ns(name) : epoch_ns(name);
      oracle_delete_range(ns, PrefixUpperBound(ns));
      for (auto& s : stores) {
        ASSERT_TRUE(s->DeleteRange(ns, PrefixUpperBound(ns)).ok());
      }
    } else if (roll < 85) {
      // Appended-tail trim: every chunk at or past a rollback length.
      const std::string ns = data_ns(name);
      const std::string lo = chunk_key(
          ns, 64 * static_cast<uint64_t>(rng.UniformInt(0, 15)));
      const std::string hi = PrefixUpperBound(ns + "c");
      oracle_delete_range(lo, hi);
      for (auto& s : stores) ASSERT_TRUE(s->DeleteRange(lo, hi).ok());
    } else {
      // Rollback-shaped batch: delete a namespace, rewrite a directory
      // row, drop a journal row — all atomically.
      const std::string ns = epoch_ns(name);
      WriteBatch batch;
      batch.DeleteRange(ns, PrefixUpperBound(ns));
      const std::string dk = "catalog/" + name;
      const std::string dv = "dir" + std::to_string(rng.Next() % 100);
      batch.Put(dk, dv);
      batch.Delete("journal/" + name);
      oracle_delete_range(ns, PrefixUpperBound(ns));
      oracle[dk] = dv;
      oracle.erase("journal/" + name);
      apply_all(batch);
      // Occasionally re-stage a journal row for later deletes to hit.
      if (rng.UniformInt(0, 1) == 0) {
        const std::string jk = "journal/" + name;
        const std::string jv = "intent" + std::to_string(rng.Next() % 10);
        oracle[jk] = jv;
        for (auto& s : stores) ASSERT_TRUE(s->Put(jk, jv).ok());
      }
    }

    if (step % 100 == 99) {
      for (auto& s : stores) ASSERT_TRUE(s->Flush().ok());
      for (size_t si = 0; si < stores.size(); ++si) {
        std::map<std::string, std::string> got;
        for (auto it = stores[si]->Scan("", ""); it->Valid(); it->Next()) {
          ASSERT_TRUE(it->status().ok());
          got[std::string(it->key())] = std::string(it->value());
        }
        ASSERT_EQ(got, oracle) << "store " << si << " diverged at step "
                               << step;
      }
    }
  }

  stores.clear();
  fs::remove_all(mini_dir);
  std::remove(file_path.c_str());
}

// ---- FileKvStore specifics ----

TEST(FileKvStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("kvm_file_reopen");
  std::remove(path.c_str());
  {
    auto r = FileKvStore::Open(path);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->Put("persist", "yes").ok());
    ASSERT_TRUE((*r)->Flush().ok());
  }
  auto r = FileKvStore::Open(path);
  ASSERT_TRUE(r.ok());
  std::string v;
  ASSERT_TRUE((*r)->Get("persist", &v).ok());
  EXPECT_EQ(v, "yes");
  std::remove(path.c_str());
}

TEST(FileKvStoreTest, DetectsCorruptedMeta) {
  const std::string path = TempPath("kvm_file_corrupt");
  std::remove(path.c_str());
  {
    auto r = FileKvStore::Open(path);
    ASSERT_TRUE(r.ok());
    for (int i = 0; i < 50; ++i) ASSERT_TRUE((*r)->Put(Key(i), "v").ok());
    ASSERT_TRUE((*r)->Flush().ok());
  }
  // Flip a byte in the middle of the file (meta area is near the end).
  {
    std::FILE* fp = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, -40, SEEK_END);
    int c = std::fgetc(fp);
    std::fseek(fp, -40, SEEK_END);
    std::fputc(c ^ 0xff, fp);
    std::fclose(fp);
  }
  auto r = FileKvStore::Open(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(FileKvStoreTest, FileBytesGrowsWithData) {
  const std::string path = TempPath("kvm_file_bytes");
  std::remove(path.c_str());
  auto r = FileKvStore::Open(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->FileBytes(), 0u);
  ASSERT_TRUE((*r)->Put("k", std::string(10000, 'x')).ok());
  ASSERT_TRUE((*r)->Flush().ok());
  EXPECT_GT((*r)->FileBytes(), 10000u);
  std::remove(path.c_str());
}

// ---- Block format ----

TEST(BlockTest, BuildParseIterate) {
  BlockBuilder builder(4);
  std::map<std::string, std::string> truth;
  for (int i = 0; i < 100; ++i) {
    truth[Key(i)] = "value" + std::to_string(i);
  }
  for (const auto& [k, v] : truth) builder.Add(k, v);
  auto block = BlockReader::Parse(builder.Finish());
  ASSERT_TRUE(block.ok());
  auto it = block->NewIterator();
  auto expect = truth.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++expect) {
    ASSERT_NE(expect, truth.end());
    EXPECT_EQ(it.key(), expect->first);
    EXPECT_EQ(it.value(), expect->second);
  }
  EXPECT_EQ(expect, truth.end());
}

TEST(BlockTest, SeekFindsLowerBound) {
  BlockBuilder builder(4);
  for (int i = 0; i < 100; i += 2) builder.Add(Key(i), "v");
  auto block = BlockReader::Parse(builder.Finish());
  ASSERT_TRUE(block.ok());
  auto it = block->NewIterator();
  it.Seek(Key(31));  // odd key: lower bound is 32
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(32));
  it.Seek(Key(0));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(0));
  it.Seek(Key(99));  // past the last key
  EXPECT_FALSE(it.Valid());
}

TEST(BlockTest, SharedPrefixCompressionShrinks) {
  BlockBuilder with_sharing(16);
  BlockBuilder no_sharing(1);  // restart every entry: no sharing
  for (int i = 0; i < 64; ++i) {
    with_sharing.Add(Key(i), "v");
    no_sharing.Add(Key(i), "v");
  }
  EXPECT_LT(with_sharing.Finish().size(), no_sharing.Finish().size());
}

TEST(BlockTest, ParseRejectsGarbage) {
  EXPECT_FALSE(BlockReader::Parse("no").ok());
  // Restart count overflowing the block.
  std::string bogus(4, '\xff');
  EXPECT_FALSE(BlockReader::Parse(bogus).ok());
}

// ---- SSTable ----

TEST(SstableTest, BuildOpenGetScan) {
  const std::string path = TempPath("kvm_sstable_basic");
  std::remove(path.c_str());
  {
    SstableBuilder builder(path, 256);  // small blocks: force many
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(builder.Add(Key(i), "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(builder.Finish().ok());
  }
  auto reader = SstableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_entries(), 1000u);
  std::string v;
  ASSERT_TRUE((*reader)->Get(Key(512), &v).ok());
  EXPECT_EQ(v, "value512");
  EXPECT_TRUE((*reader)->Get("nope", &v).IsNotFound());

  size_t count = 0;
  std::string prev;
  for (auto it = (*reader)->Scan(Key(100), Key(200)); it->Valid();
       it->Next()) {
    EXPECT_GT(std::string(it->key()), prev);
    prev = std::string(it->key());
    ++count;
  }
  EXPECT_EQ(count, 100u);
  std::remove(path.c_str());
}

TEST(SstableTest, RejectsOutOfOrderKeys) {
  const std::string path = TempPath("kvm_sstable_order");
  SstableBuilder builder(path);
  ASSERT_TRUE(builder.Add("b", "1").ok());
  EXPECT_FALSE(builder.Add("a", "2").ok());
  EXPECT_FALSE(builder.Add("b", "3").ok());  // duplicates rejected too
  std::remove(path.c_str());
}

TEST(SstableTest, DetectsBlockCorruption) {
  const std::string path = TempPath("kvm_sstable_corrupt");
  std::remove(path.c_str());
  {
    SstableBuilder builder(path, 128);
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(builder.Add(Key(i), "v").ok());
    ASSERT_TRUE(builder.Finish().ok());
  }
  {
    std::FILE* fp = std::fopen(path.c_str(), "rb+");
    std::fseek(fp, 10, SEEK_SET);  // inside the first data block
    int c = std::fgetc(fp);
    std::fseek(fp, 10, SEEK_SET);
    std::fputc(c ^ 0x1, fp);
    std::fclose(fp);
  }
  auto reader = SstableReader::Open(path);
  ASSERT_TRUE(reader.ok());  // index block is intact
  std::string v;
  EXPECT_TRUE((*reader)->Get(Key(0), &v).IsCorruption());
  std::remove(path.c_str());
}

// ---- MiniKv specifics ----

TEST(MiniKvTest, MemtableFlushCreatesTables) {
  const std::string dir = TempPath("kvm_mini_flush");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*kv)->Put(Key(i), "v").ok());
  EXPECT_EQ((*kv)->NumTables(), 0u);
  ASSERT_TRUE((*kv)->Flush().ok());
  EXPECT_EQ((*kv)->NumTables(), 1u);
  EXPECT_GT((*kv)->TotalFileBytes(), 0u);
  fs::remove_all(dir);
}

TEST(MiniKvTest, NewestWinsAcrossTables) {
  const std::string dir = TempPath("kvm_mini_newest");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("k", "v1").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  ASSERT_TRUE((*kv)->Put("k", "v2").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  ASSERT_TRUE((*kv)->Put("k", "v3").ok());  // stays in memtable
  std::string v;
  ASSERT_TRUE((*kv)->Get("k", &v).ok());
  EXPECT_EQ(v, "v3");
  // Scan sees exactly one version.
  size_t count = 0;
  for (auto it = (*kv)->Scan("", ""); it->Valid(); it->Next()) {
    EXPECT_EQ(it->value(), "v3");
    ++count;
  }
  EXPECT_EQ(count, 1u);
  fs::remove_all(dir);
}

TEST(MiniKvTest, PersistsAcrossReopen) {
  const std::string dir = TempPath("kvm_mini_reopen");
  fs::remove_all(dir);
  {
    auto kv = MiniKv::Open(dir);
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*kv)->Put(Key(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE((*kv)->Flush().ok());
  }
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  std::string v;
  ASSERT_TRUE((*kv)->Get(Key(77), &v).ok());
  EXPECT_EQ(v, "77");
  fs::remove_all(dir);
}

TEST(MiniKvTest, CompactMergesToSingleTable) {
  const std::string dir = TempPath("kvm_mini_compact");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = round * 50; i < round * 50 + 100; ++i) {
      ASSERT_TRUE((*kv)->Put(Key(i), "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE((*kv)->Flush().ok());
  }
  EXPECT_EQ((*kv)->NumTables(), 4u);
  ASSERT_TRUE((*kv)->Compact().ok());
  EXPECT_EQ((*kv)->NumTables(), 1u);
  // Overlapping rounds: later rounds win.
  std::string v;
  ASSERT_TRUE((*kv)->Get(Key(60), &v).ok());
  EXPECT_EQ(v, "r1");
  ASSERT_TRUE((*kv)->Get(Key(160), &v).ok());
  EXPECT_EQ(v, "r3");
  fs::remove_all(dir);
}

TEST(MiniKvTest, AutoFlushOnMemtableLimit) {
  const std::string dir = TempPath("kvm_mini_autoflush");
  fs::remove_all(dir);
  MiniKv::Options opts;
  opts.memtable_limit_bytes = 1024;
  auto kv = MiniKv::Open(dir, opts);
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*kv)->Put(Key(i), std::string(32, 'x')).ok());
  }
  EXPECT_GT((*kv)->NumTables(), 1u);
  fs::remove_all(dir);
}

TEST(MiniKvTest, CompactDropsTombstonesAndShadowedVersions) {
  const std::string dir = TempPath("kvm_mini_tombstone");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*kv)->Put(Key(i), "v").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE((*kv)->Delete(Key(i)).ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  EXPECT_EQ((*kv)->NumTables(), 2u);
  // Tombstones shadow across tables before compaction...
  std::string v;
  EXPECT_TRUE((*kv)->Get(Key(10), &v).IsNotFound());
  ASSERT_TRUE((*kv)->Compact().ok());
  EXPECT_EQ((*kv)->NumTables(), 1u);
  // ...and are physically gone afterwards: the surviving table holds
  // exactly the 50 live keys.
  EXPECT_EQ((*kv)->ApproximateCount(), 50u);
  EXPECT_TRUE((*kv)->Get(Key(10), &v).IsNotFound());
  ASSERT_TRUE((*kv)->Get(Key(75), &v).ok());
  fs::remove_all(dir);
}

TEST(MiniKvTest, CompactingEverythingAwayLeavesNoTables) {
  const std::string dir = TempPath("kvm_mini_allgone");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("a", "1").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  ASSERT_TRUE((*kv)->Delete("a").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  ASSERT_TRUE((*kv)->Compact().ok());
  EXPECT_EQ((*kv)->NumTables(), 0u);
  EXPECT_FALSE((*kv)->Scan("", "")->Valid());
  fs::remove_all(dir);
}

TEST(MiniKvTest, StatsCountTombstonesFlushesAndCompactions) {
  const std::string dir = TempPath("kvm_mini_lsmstats");
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  EventLog log;
  (*kv)->SetEventLog(&log);

  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*kv)->Put(Key(i), "v").ok());
  ASSERT_TRUE((*kv)->Flush().ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE((*kv)->Delete(Key(i)).ok());
  ASSERT_TRUE((*kv)->Flush().ok());

  MiniKv::LsmStats stats = (*kv)->Stats();
  EXPECT_EQ(stats.tombstones_written, 40u);
  EXPECT_EQ(stats.flushes, 2u);
  EXPECT_EQ(stats.compactions, 0u);

  ASSERT_TRUE((*kv)->Compact().ok());
  stats = (*kv)->Stats();
  EXPECT_EQ(stats.compactions, 1u);
  // 140 entries in (100 puts + 40 tombstones), 60 live out.
  EXPECT_EQ(stats.compaction_dropped, 80u);

  // The compaction surfaced as a structured event...
  const auto counts = log.CountsByType();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].first, std::string(kEventCompaction));
  EXPECT_EQ(counts[0].second, 1u);
  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"entries_in\":140"), std::string::npos);
  EXPECT_NE(lines[0].find("\"entries_live\":60"), std::string::npos);
  EXPECT_NE(lines[0].find("\"dropped\":80"), std::string::npos);

  // ...and the cumulative totals ride the backend gauges.
  std::vector<std::pair<std::string, uint64_t>> gauges;
  (*kv)->FillGauges(&gauges);
  auto find = [&gauges](const std::string& name) -> const uint64_t* {
    for (const auto& [n, v] : gauges) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("tables"), nullptr);
  EXPECT_EQ(*find("tables"), 1u);
  ASSERT_NE(find("tombstones_written_total"), nullptr);
  EXPECT_EQ(*find("tombstones_written_total"), 40u);
  ASSERT_NE(find("flushes_total"), nullptr);
  EXPECT_GE(*find("flushes_total"), 2u);
  ASSERT_NE(find("compactions_total"), nullptr);
  EXPECT_EQ(*find("compactions_total"), 1u);
  fs::remove_all(dir);
}

TEST(MiniKvTest, LargeRandomWorkloadMatchesStdMap) {
  const std::string dir = TempPath("kvm_mini_random");
  fs::remove_all(dir);
  MiniKv::Options opts;
  opts.memtable_limit_bytes = 4096;
  auto kv = MiniKv::Open(dir, opts);
  ASSERT_TRUE(kv.ok());
  Rng rng(77);
  std::map<std::string, std::string> truth;
  for (int i = 0; i < 3000; ++i) {
    const std::string k = Key(static_cast<int>(rng.UniformInt(0, 999)));
    const std::string v = std::to_string(rng.Next());
    truth[k] = v;
    ASSERT_TRUE((*kv)->Put(k, v).ok());
  }
  // Full scan equals the map.
  auto expect = truth.begin();
  for (auto it = (*kv)->Scan("", ""); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, truth.end());
    EXPECT_EQ(it->key(), expect->first);
    EXPECT_EQ(it->value(), expect->second);
  }
  EXPECT_EQ(expect, truth.end());
  fs::remove_all(dir);
}

// ---- InstrumentedKvStore: the observability decorator ----

// The decorator must be transparent: the same randomized op sequence
// driven through a wrapped store and a bare store of the same backend
// must yield byte-identical scans — for every backend.
TEST(InstrumentedKvStoreTest, WrappedBackendIsOpForOpIdenticalToBare) {
  for (const StoreKind kind :
       {StoreKind::kMem, StoreKind::kFile, StoreKind::kMini}) {
    StoreFixture bare = MakeStore(kind, "instr_bare");
    StoreFixture wrapped_base = MakeStore(kind, "instr_wrapped");
    InstrumentedKvStore wrapped(wrapped_base.store.get());

    Rng rng(20260808);
    auto random_key = [&rng] {
      return Key(static_cast<int>(rng.UniformInt(0, 99)));
    };
    for (int step = 0; step < 600; ++step) {
      const int64_t roll = rng.UniformInt(0, 99);
      if (roll < 55) {
        const std::string k = random_key();
        const std::string v = "v" + std::to_string(rng.Next() % 1000);
        ASSERT_TRUE(bare.store->Put(k, v).ok());
        ASSERT_TRUE(wrapped.Put(k, v).ok());
      } else if (roll < 70) {
        const std::string k = random_key();
        ASSERT_TRUE(bare.store->Delete(k).ok());
        ASSERT_TRUE(wrapped.Delete(k).ok());
      } else if (roll < 80) {
        std::string lo = random_key(), hi = random_key();
        if (hi < lo) std::swap(lo, hi);
        ASSERT_TRUE(bare.store->DeleteRange(lo, hi).ok());
        ASSERT_TRUE(wrapped.DeleteRange(lo, hi).ok());
      } else if (roll < 90) {
        WriteBatch batch;
        const int64_t ops = rng.UniformInt(2, 6);
        for (int64_t i = 0; i < ops; ++i) {
          const std::string k = random_key();
          if (rng.UniformInt(0, 2) == 0) {
            batch.Delete(k);
          } else {
            batch.Put(k, "b" + std::to_string(rng.Next() % 1000));
          }
        }
        ASSERT_TRUE(bare.store->Apply(batch).ok());
        ASSERT_TRUE(wrapped.Apply(batch).ok());
      } else {
        const std::string k = random_key();
        std::string v1, v2;
        const Status s1 = bare.store->Get(k, &v1);
        const Status s2 = wrapped.Get(k, &v2);
        ASSERT_EQ(s1.ok(), s2.ok());
        if (s1.ok()) ASSERT_EQ(v1, v2);
      }

      if (step % 200 == 199) {
        ASSERT_TRUE(bare.store->Flush().ok());
        ASSERT_TRUE(wrapped.Flush().ok());
        auto bit = bare.store->Scan("", "");
        auto wit = wrapped.Scan("", "");
        while (bit->Valid() && wit->Valid()) {
          ASSERT_EQ(bit->key(), wit->key());
          ASSERT_EQ(bit->value(), wit->value());
          bit->Next();
          wit->Next();
        }
        ASSERT_EQ(bit->Valid(), wit->Valid()) << "length mismatch";
      }
    }
    EXPECT_GT(wrapped.stats()->TakeSnapshot().TotalOps(), 0u);
  }
}

TEST(InstrumentedKvStoreTest, CountsOpsBytesScanRowsAndBatchSizes) {
  MemKvStore base;
  InstrumentedKvStore store(&base);
  const auto& stats = store.stats();

  ASSERT_TRUE(store.Put("alpha", "12345").ok());
  ASSERT_TRUE(store.Put("beta", "678").ok());
  std::string v;
  ASSERT_TRUE(store.Get("alpha", &v).ok());
  EXPECT_TRUE(store.Get("missing", &v).IsNotFound());
  ASSERT_TRUE(store.Delete("beta").ok());
  WriteBatch batch;
  batch.Put("g1", "x");
  batch.Put("g2", "y");
  batch.Delete("g1");
  ASSERT_TRUE(store.Apply(batch).ok());
  size_t rows = 0;
  for (auto it = store.Scan("", ""); it->Valid(); it->Next()) ++rows;
  EXPECT_EQ(rows, 2u);  // alpha, g2
  ASSERT_TRUE(store.Flush().ok());

  const KvStoreStats::Snapshot snap = stats->TakeSnapshot();
  EXPECT_EQ(snap.ops[KvStoreStats::kPut].count, 2u);
  EXPECT_EQ(snap.ops[KvStoreStats::kGet].count, 2u);
  EXPECT_EQ(snap.ops[KvStoreStats::kGet].errors, 0u);  // a miss is an answer
  EXPECT_EQ(snap.ops[KvStoreStats::kDelete].count, 1u);
  EXPECT_EQ(snap.ops[KvStoreStats::kApply].count, 1u);
  EXPECT_EQ(snap.ops[KvStoreStats::kScan].count, 1u);
  EXPECT_EQ(snap.ops[KvStoreStats::kFlush].count, 1u);
  // Writes: "alpha12345" (10) + "beta678" (7) + the batch's encoded bytes.
  EXPECT_GE(snap.bytes_written, 17u);
  // Reads: the "alpha" hit (5 + 5) plus the scanned rows' keys+values.
  EXPECT_GE(snap.bytes_read, 10u);
  EXPECT_EQ(snap.scan_rows, 2u);
  EXPECT_EQ(snap.batch_ops.total, 1u);           // one Apply...
  EXPECT_DOUBLE_EQ(snap.batch_ops.max_ms, 3.0);  // ...of three ops
  EXPECT_EQ(snap.TotalOps(), 8u);
}

TEST(InstrumentedKvStoreTest, ForwardsBackendGauges) {
  const std::string path = TempPath("kvm_instr_gauges");
  std::remove(path.c_str());
  auto file = FileKvStore::Open(path);
  ASSERT_TRUE(file.ok());
  InstrumentedKvStore store(file->get());
  ASSERT_TRUE(store.Put("k", "v").ok());
  ASSERT_TRUE(store.Flush().ok());
  std::vector<std::pair<std::string, uint64_t>> gauges;
  store.FillGauges(&gauges);
  bool saw_entries = false, saw_file_bytes = false;
  for (const auto& [name, value] : gauges) {
    if (name == "entries") saw_entries = value == 1;
    if (name == "file_bytes") saw_file_bytes = value > 0;
  }
  EXPECT_TRUE(saw_entries);
  EXPECT_TRUE(saw_file_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kvmatch
