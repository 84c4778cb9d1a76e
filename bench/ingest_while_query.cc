// Query latency under a live ingest stream: the cost of the catalog's
// online write path (epoch builds, WriteBatch commits, retired-epoch
// cleanup) as seen by concurrent readers.
//
// Two phases over the same catalog and query batch:
//   1. baseline — queries only;
//   2. contended — the same queries while a writer thread streams chunked
//      AppendSeries calls into one series (each append installs a new
//      epoch) and periodically ReplaceSeries to force full rebuilds.
// Reported per phase: aggregate QPS and mean/p99 latency, plus the
// ingest-side throughput (points/s, epochs installed) and the mean commit
// latency of appends vs replaces. The interesting numbers are the p99
// delta — how much an epoch flip costs a reader — and the append/replace
// latency gap: with epoch delta-commits an append writes only the grown
// tail chunks (O(appended)), so it should stay flat as the series grows
// while a replace pays the full O(n) rewrite. (The per-stage commit time
// and the bytes written per point of the served store are kvbench's
// ingest.*_ms_mean and storage.api_bytes_per_point.)
//
//   ./bench_ingest_while_query [--n <points per series>] [--runs <mult>]
//                              [--seed <s>] [--quick] [--json OUT]
#include "bench_common.h"

#include <atomic>
#include <future>
#include <thread>

#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"

using namespace kvmatch;

namespace {

struct PhaseResult {
  double seconds = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  size_t queries = 0;
};

PhaseResult RunPhase(QueryService* service,
                     const std::vector<QueryRequest>& requests, int rounds) {
  LatencyHistogram latency;
  Stopwatch sw;
  size_t ok = 0;
  for (int r = 0; r < rounds; ++r) {
    auto futures = service->SubmitBatch(requests);
    for (auto& f : futures) {
      const QueryResponse response = f.get();
      latency.Record(response.latency_ms);
      if (response.status.ok()) ++ok;
    }
  }
  PhaseResult out;
  out.seconds = sw.Seconds();
  out.queries = ok;
  const LatencyHistogram::Snapshot h = latency.TakeSnapshot();
  out.mean_ms = h.MeanMs();
  out.p99_ms = h.Percentile(0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  size_t per_series = flags.n == 2'000'000 ? 200'000 : flags.n;
  size_t batch = 48 * static_cast<size_t>(std::max(1, flags.runs));
  int rounds = 4;
  size_t append_chunk = 20'000;
  if (flags.quick) {
    per_series = 50'000;
    batch = 16;
    rounds = 2;
    append_chunk = 10'000;
  }
  const size_t m = 256;
  const size_t kQuerySeries = 4;

  std::printf("ingest-while-query: %zu query series x %zu points, |Q|=%zu, "
              "%zu queries x %d rounds, append chunk %zu\n\n",
              kQuerySeries, per_series, m, batch, rounds, append_chunk);

  MemKvStore store;
  Catalog catalog(&store);
  std::vector<TimeSeries> references;
  for (size_t i = 0; i < kQuerySeries; ++i) {
    Rng rng(flags.seed + i);
    TimeSeries x = GenerateUcrLike(per_series, &rng);
    references.push_back(x);
    if (!catalog.CreateSeries("q" + std::to_string(i), std::move(x)).ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }
  // The series the writer hammers; queries touch it too, so epoch flips
  // land on the hot path instead of a cold bystander.
  {
    Rng rng(flags.seed + 500);
    if (!catalog.CreateSeries("hot", GenerateUcrLike(per_series, &rng))
             .ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }

  Rng rng(flags.seed + 100);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < batch; ++i) {
    const size_t series = i % (kQuerySeries + 1);
    QueryRequest req;
    const bool hot = series == kQuerySeries;
    req.series = hot ? "hot" : "q" + std::to_string(series);
    const auto& ref = references[hot ? 0 : series];
    const size_t qoff = (1237 * i) % (per_series - m);
    req.query = ExtractQuery(ref, qoff, m, 0.05, &rng);
    req.params.type = i % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd;
    req.params.epsilon = 3.0;
    req.params.alpha = 1.5;
    req.params.beta = 3.0;
    requests.push_back(std::move(req));
  }

  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.max_queue = 4 * batch;
  QueryService service(&catalog, sopts);

  const PhaseResult baseline = RunPhase(&service, requests, rounds);

  // Phase 2: identical query load with a live writer.
  std::atomic<bool> stop{false};
  std::atomic<size_t> points_ingested{0};
  std::atomic<size_t> epochs{0};
  std::atomic<double> append_ms_total{0.0};
  std::atomic<size_t> append_count{0};
  std::atomic<double> replace_ms_total{0.0};
  std::atomic<size_t> replace_count{0};
  std::thread writer([&] {
    Rng wrng(flags.seed + 900);
    size_t appends = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const TimeSeries chunk = GenerateUcrLike(append_chunk, &wrng);
      Status st;
      if (++appends % 8 == 0) {
        // Periodic wholesale replace: the worst-case write (full rebuild
        // into a fresh data generation). Generated outside the timer so
        // the commit latencies compare writes, not data generation.
        TimeSeries fresh = GenerateUcrLike(per_series, &wrng);
        Stopwatch commit_sw;
        st = catalog.ReplaceSeries("hot", std::move(fresh));
        if (st.ok()) {
          points_ingested += per_series;
          replace_ms_total.store(replace_ms_total.load() +
                                 commit_sw.Seconds() * 1e3);
          replace_count += 1;
        }
      } else {
        // Delta commit: only the grown tail chunks + header + index.
        Stopwatch commit_sw;
        st = catalog.AppendSeries("hot", chunk.values());
        if (st.ok()) {
          points_ingested += append_chunk;
          append_ms_total.store(append_ms_total.load() +
                                commit_sw.Seconds() * 1e3);
          append_count += 1;
        }
      }
      if (!st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        return;
      }
      epochs += 1;
    }
  });
  const PhaseResult contended = RunPhase(&service, requests, rounds);
  stop.store(true);
  writer.join();
  const double ingest_pps =
      contended.seconds > 0.0
          ? static_cast<double>(points_ingested.load()) / contended.seconds
          : 0.0;

  TablePrinter table({"Phase", "Queries", "Wall (s)", "QPS", "Mean (ms)",
                      "p99 (ms)"});
  table.AddRow({"query only", TablePrinter::FmtInt(baseline.queries),
                TablePrinter::Fmt(baseline.seconds, 2),
                TablePrinter::Fmt(baseline.queries / baseline.seconds, 1),
                TablePrinter::Fmt(baseline.mean_ms, 2),
                TablePrinter::Fmt(baseline.p99_ms, 2)});
  table.AddRow({"with ingest", TablePrinter::FmtInt(contended.queries),
                TablePrinter::Fmt(contended.seconds, 2),
                TablePrinter::Fmt(contended.queries / contended.seconds, 1),
                TablePrinter::Fmt(contended.mean_ms, 2),
                TablePrinter::Fmt(contended.p99_ms, 2)});
  table.Print();
  std::printf("\ningest stream: %zu epochs installed, %.0f points/s; "
              "p99 %.2f -> %.2f ms (%+.1f%%)\n",
              epochs.load(), ingest_pps, baseline.p99_ms, contended.p99_ms,
              baseline.p99_ms > 0.0
                  ? 100.0 * (contended.p99_ms - baseline.p99_ms) /
                        baseline.p99_ms
                  : 0.0);
  // Append vs replace commit latency: a delta commit writes the grown
  // tail chunks, a replace rewrites the series.
  TablePrinter commits({"Commit", "Count", "Points", "Mean (ms)"});
  auto add_commit = [&](const char* kind, size_t count, size_t points,
                        double total_ms) {
    commits.AddRow({kind, TablePrinter::FmtInt(count),
                    TablePrinter::FmtInt(points),
                    TablePrinter::Fmt(count > 0 ? total_ms / count : 0.0, 2)});
  };
  add_commit("append", append_count.load(), append_chunk,
             append_ms_total.load());
  add_commit("replace", replace_count.load(), per_series,
             replace_ms_total.load());
  std::printf("\n");
  commits.Print();
  const bool written = WriteJson(
      flags, {{"query latency", &table}, {"commit latency", &commits}});
  return written ? 0 : 1;
}
