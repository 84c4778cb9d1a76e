// Store deployment walkthrough (paper §VII-B): everything — the series,
// chunked into rows, and the whole KV-matchDP index stack — lives in ONE
// key-value store (MiniKv, our HBase stand-in). The query side cold-starts
// from the store, probes with the §VI-C row cache enabled, and answers
// both threshold and top-k queries. Exits 1 unless the repeated query is
// answered from the row cache alone, with the same matches, and the top-1
// is the query's own source window.
//
//   ./store_deployment
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "index/index_builder.h"
#include "matchdp/kv_match_dp.h"
#include "storage/minikv.h"
#include "ts/generator.h"
#include "ts/series_store.h"

using namespace kvmatch;

int main() {
  const size_t n = 1'000'000;
  const uint64_t seed = 42;
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("kvmatch_deployment_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);

  // ---- Ingestion side ----
  {
    Rng rng(seed);
    const TimeSeries x = GenerateUcrLike(n, &rng);
    auto kv = MiniKv::Open(dir);
    if (!kv.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   kv.status().ToString().c_str());
      return 1;
    }
    if (Status st = SeriesStore::Write(kv->get(), x, "data/"); !st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (const auto& index : BuildIndexSet(x, 25, 4)) {
      const std::string ns = "idx/w" + std::to_string(index.window()) + "/";
      if (Status st = index.Persist(kv->get(), ns); !st.ok()) {
        std::fprintf(stderr, "persist failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (Status st = (*kv)->Compact(); !st.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("ingested %zu points + 4 indexes into %s (%.1f MB, %zu "
                "SSTables)\n",
                x.size(), dir.c_str(),
                static_cast<double>((*kv)->TotalFileBytes()) / 1e6,
                (*kv)->NumTables());
  }

  // ---- Query side: cold start from the store ----
  auto kv = MiniKv::Open(dir);
  if (!kv.ok()) return 1;
  auto series = SeriesStore::Open(kv->get(), "data/");
  if (!series.ok()) return 1;
  auto data = series->ReadAll();  // phase 2 needs the values
  if (!data.ok()) return 1;
  const PrefixStats prefix(*data);

  std::vector<KvIndex> indexes;
  for (size_t w = 25; w <= 200; w *= 2) {
    auto index = KvIndex::Open(kv->get(), "idx/w" + std::to_string(w) + "/");
    if (!index.ok()) {
      std::fprintf(stderr, "index open failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    index->EnableRowCache(2048);  // §VI-C optimization 1
    indexes.push_back(std::move(index).value());
  }
  std::vector<const KvIndex*> ptrs;
  for (const auto& index : indexes) ptrs.push_back(&index);
  const KvMatchDp matcher(*data, prefix, ptrs);

  Rng qrng(seed + 9);
  const auto q = ExtractQuery(*data, n / 3, 400, 0.1, &qrng);

  // Threshold query, twice: second run shows cache reuse.
  QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 2.0, 0};
  std::vector<MatchResult> first;
  bool ok = true;
  for (int round = 0; round < 2; ++round) {
    MatchStats stats;
    auto results = matcher.Match(q, params, &stats);
    if (!results.ok()) {
      std::fprintf(stderr, "match failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    std::printf("cNSM-ED eps=%.1f: %zu matches | rows fetched=%llu "
                "cache hits=%llu | %.2f+%.2f ms\n",
                params.epsilon, results->size(),
                static_cast<unsigned long long>(stats.probe.rows_fetched),
                static_cast<unsigned long long>(stats.probe.cache_hits),
                stats.phase1_ms, stats.phase2_ms);
    if (round == 0) {
      first = *results;
    } else {
      ok &= stats.probe.rows_fetched == 0 && *results == first;
    }
  }

  // Top-k on the same stack: one pass with a live ε.
  auto top = matcher.MatchTopK(q, params, 5, {.exclusion_zone = q.size()});
  if (!top.ok()) return 1;
  std::printf("top-5 (exclusion zone |Q|):\n");
  for (const auto& m : *top) {
    std::printf("  offset=%-10zu dist=%.4f\n", m.offset, m.distance);
  }
  ok &= !top->empty() && (*top)[0].offset == n / 3;

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
