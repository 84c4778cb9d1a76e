// kvmatch_cli: end-to-end command-line front-end for the library — the
// workflow a downstream user runs without writing C++. Each command takes
// only its own flags: an unknown flag, or one missing its value, prints the
// usage and exits 2; --help prints it and exits 0.
//
//   kvmatch_cli generate --out data.bin --n 1000000 [--kind ucr|synthetic]
//                        [--seed 42]
//   kvmatch_cli build    --data data.bin --index index.kvm
//                        [--wu 25] [--levels 5] [--width 0.5]
//                        [--threads N]
//   kvmatch_cli info     --index index.kvm
//   kvmatch_cli query    --data data.bin --index index.kvm
//                        --qoffset 1000 --qlen 512 --epsilon 3.0
//                        [--type rsm-ed|rsm-dtw|cnsm-ed|cnsm-dtw]
//                        [--alpha 1.5] [--beta 2.0] [--rho 25] [--limit 10]
//                        [--qnoise 0.0]
//
// Multi-series service front-end (Catalog + QueryService):
//   kvmatch_cli catalog-ingest --store catalog.kvm --data data.bin
//                              --name sensor1 [--wu 25] [--levels 5]
//                              [--width 0.5]
//   kvmatch_cli catalog-info   --store catalog.kvm [--json]
//     --json emits one machine-readable object: the crash-recovery
//     report, the series directory, and the recovery events the open
//     produced (roll-backs/forwards, orphan sweeps) as a JSON array.
//   kvmatch_cli batch-query    --store catalog.kvm --queries queries.txt
//                              [--threads N] [--queue 1024] [--limit 3]
//     queries.txt: one request per line of key=value tokens, e.g.
//       series=sensor1 type=cnsm-ed qoffset=1000 qlen=256 epsilon=3.0
//       series=sensor2 type=rsm-ed qoffset=0 qlen=128 k=10
//     ('#' starts a comment; k>0 switches to top-k search; timeout-ms
//     bounds the request's time in the queue.)
//
// Network front-end (src/net: wire protocol + TCP server):
//   kvmatch_cli serve        --store catalog.kvm [--port 7777] [--bind ADDR]
//                            [--threads N] [--queue 1024] [--max-conns 64]
//                            [--idle-ms 0] [--stream-chunk 2000000]
//                            [--drain-ms 30000] [--max-outbox-mb 256]
//                            [--slow-query-ms 0]
//                            [--event-log events.jsonl] [--dump-events]
//                            [--slow-commit-ms 0]
//     Serves the catalog until SIGINT/SIGTERM; shutdown drains in-flight
//     queries for --drain-ms, then cancels the stragglers mid-query.
//     Responses with more than --stream-chunk matches stream back in
//     bounded kMatchResponsePart frames (0 disables streaming).
//     --port 0 picks an ephemeral port (printed on stdout).
//     --slow-query-ms > 0 records every query at least that slow as a
//     slow_query event carrying its queue/probe/verify/serialize spans.
//     --event-log appends every event (epoch commits, recovery repairs,
//     evictions, compactions, slow queries) as JSONL to the given file;
//     --dump-events prints the in-memory flight recorder (the last 1024
//     events) to stderr on shutdown; --slow-commit-ms > 0 flags commits at
//     least that slow. GET /metrics (plain HTTP on the same port) serves
//     the Prometheus text dump; GET /healthz answers liveness.
//     With --shard-map map.txt --shard-id N the server joins a cluster:
//     it answers kShardInfo with shard N's identity under that map and
//     refuses ingest for series the map assigns to other shards.
//   kvmatch_cli coord        --shard-map map.txt [--port 7900]
//                            [--bind ADDR] [--threads 4] [--queue 256]
//                            [--shard-timeout-ms 10000] [--max-conns 64]
//     Scatter-gather coordinator over the shards in map.txt (format:
//     one "shard <id> <host> <port>" line per shard). Exact-series
//     queries are routed to the owner shard and answered byte-identical
//     to asking it directly; series patterns ('*'/'?') fan out to every
//     shard and merge into a kFederatedResponse. Ingest and LIST route
//     through the map; kCancel fans out to every shard a request
//     touched. A dead shard degrades pattern queries to typed partial
//     results instead of hanging.
//   kvmatch_cli remote-query --host 127.0.0.1 --port 7777 --queries q.txt
//                            [--trace] [--trace-json trace.json] [--limit 3]
//     Same query-file syntax as batch-query; qoffset/qlen windows are
//     resolved by the server (queries travel by reference, not by value).
//     --trace asks the server for per-stage spans and prints a
//     queue/probe/verify/serialize breakdown under each query;
//     --trace-json additionally writes all traces as one chrome://tracing
//     (or ui.perfetto.dev) document, one pid per query.
//   kvmatch_cli remote-cancel --host 127.0.0.1 --port 7777 --queries q.txt
//                             [--after-ms 100]
//     Pipelines the queries, waits --after-ms, then sends kCancel for
//     every one still outstanding and prints each final status — the
//     abort path a dashboard uses when a user navigates away. Queries
//     that finished before the cancel print their results normally.
//   kvmatch_cli remote-bench --host 127.0.0.1 --port 7777 [--clients 4]
//                            [--batch 64] [--qlen 256] [--seed 42]
//     Pipelined load from N concurrent client connections; reports QPS.
//   kvmatch_cli remote-ingest --host 127.0.0.1 --port 7777 --name sensor1
//                             --data data.bin [--chunk 262144] [--replace]
//                             [--append]
//     Registers (or, with --append, extends) a series on a running server
//     without filesystem access to its store: a CREATE frame with the
//     first chunk, then chunked APPEND frames. --replace drops an
//     existing series of the same name first. Queries keep running
//     throughout — each one completes on the epoch it pinned.
//   kvmatch_cli remote-drop  --host 127.0.0.1 --port 7777 --name sensor1
//     Unregisters a series; in-flight queries complete on their epoch.
//   kvmatch_cli stats        --host 127.0.0.1 --port 7777 [--watch SEC]
//     Prints the server's Prometheus-style stats dump. With --watch it
//     re-polls every SEC seconds until Ctrl-C, printing only the metrics
//     that changed (as deltas) — live monitoring during benches.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/table_printer.h"
#include "coord/coord_server.h"
#include "coord/shard_map.h"
#include "net/client.h"
#include "net/server.h"
#include "index/index_builder.h"
#include "match/kv_match.h"
#include "matchdp/kv_match_dp.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/file_kvstore.h"
#include "ts/generator.h"
#include "ts/io.h"

using namespace kvmatch;

namespace {

struct Args {
  std::map<std::string, std::string> kv;

  std::string Get(const std::string& key, const std::string& dflt = "") const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t dflt) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetF(const std::string& key, double dflt) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  bool Has(const std::string& key) const { return kv.count(key) > 0; }
};

/// Prints the usage, to stdout for --help (code 0) and to stderr
/// otherwise, and returns `code`.
int Usage(int code = 2);

bool ParseQueryType(const std::string& name, QueryType* type) {
  if (name == "rsm-ed") *type = QueryType::kRsmEd;
  else if (name == "rsm-dtw") *type = QueryType::kRsmDtw;
  else if (name == "cnsm-ed") *type = QueryType::kCnsmEd;
  else if (name == "cnsm-dtw") *type = QueryType::kCnsmDtw;
  else if (name == "rsm-l1") *type = QueryType::kRsmL1;
  else return false;
  return true;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int CmdGenerate(const Args& args) {
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  const size_t n = args.GetU64("n", 1'000'000);
  Rng rng(args.GetU64("seed", 42));
  const TimeSeries x = args.Get("kind", "ucr") == "synthetic"
                           ? GenerateSynthetic(n, &rng)
                           : GenerateUcrLike(n, &rng);
  const Status st = WriteBinary(x, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu points to %s\n", x.size(), out.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  const std::string data_path = args.Get("data");
  const std::string index_path = args.Get("index");
  if (data_path.empty() || index_path.empty()) return Usage();
  auto data = ReadBinary(data_path);
  if (!data.ok()) return Fail(data.status());

  const size_t wu = args.GetU64("wu", 25);
  const size_t levels = args.GetU64("levels", 5);
  const double width = args.GetF("width", 0.5);
  const size_t threads = args.GetU64("threads", 1);

  std::remove(index_path.c_str());
  auto store = FileKvStore::Open(index_path);
  if (!store.ok()) return Fail(store.status());

  size_t w = wu;
  for (size_t level = 0; level < levels; ++level, w *= 2) {
    IndexBuildOptions opts;
    opts.window = w;
    opts.width = width;
    const KvIndex index = threads > 1
                              ? BuildKvIndexParallel(*data, opts, threads)
                              : BuildKvIndex(*data, opts);
    const Status st =
        index.Persist(store->get(), "w" + std::to_string(w) + "/");
    if (!st.ok()) return Fail(st);
    std::printf("w=%-4zu rows=%-6zu ~%llu bytes\n", w, index.num_rows(),
                static_cast<unsigned long long>(index.EncodedSizeBytes()));
  }
  // Record the level layout so `query`/`info` can find the indexes.
  std::string layout;
  layout += std::to_string(wu) + " " + std::to_string(levels);
  if (Status st = (*store)->Put("!layout", layout); !st.ok()) return Fail(st);
  if (Status st = (*store)->Flush(); !st.ok()) return Fail(st);
  std::printf("index stack written to %s (%llu bytes on disk)\n",
              index_path.c_str(),
              static_cast<unsigned long long>((*store)->FileBytes()));
  return 0;
}

Result<std::pair<size_t, size_t>> ReadLayout(const KvStore& store) {
  std::string layout;
  KVMATCH_RETURN_NOT_OK(store.Get("!layout", &layout));
  size_t wu = 0, levels = 0;
  if (std::sscanf(layout.c_str(), "%zu %zu", &wu, &levels) != 2) {
    return Status::Corruption("bad !layout row");
  }
  return std::make_pair(wu, levels);
}

int CmdInfo(const Args& args) {
  const std::string index_path = args.Get("index");
  if (index_path.empty()) return Usage();
  auto store = FileKvStore::Open(index_path);
  if (!store.ok()) return Fail(store.status());
  auto layout = ReadLayout(**store);
  if (!layout.ok()) return Fail(layout.status());
  auto [wu, levels] = *layout;
  std::printf("index stack: wu=%zu levels=%zu file=%llu bytes\n", wu, levels,
              static_cast<unsigned long long>((*store)->FileBytes()));
  size_t w = wu;
  for (size_t level = 0; level < levels; ++level, w *= 2) {
    auto index = KvIndex::Open(store->get(), "w" + std::to_string(w) + "/");
    if (!index.ok()) return Fail(index.status());
    uint64_t intervals = 0, positions = 0;
    for (const auto& m : index->meta()) {
      intervals += m.num_intervals;
      positions += m.num_positions;
    }
    std::printf("  w=%-4zu rows=%-6zu nI=%-9llu nP=%llu\n", w,
                index->meta().size(),
                static_cast<unsigned long long>(intervals),
                static_cast<unsigned long long>(positions));
  }
  return 0;
}

int CmdQuery(const Args& args) {
  const std::string data_path = args.Get("data");
  const std::string index_path = args.Get("index");
  if (data_path.empty() || index_path.empty() || !args.Has("qlen")) {
    return Usage();
  }
  auto data = ReadBinary(data_path);
  if (!data.ok()) return Fail(data.status());
  auto store = FileKvStore::Open(index_path);
  if (!store.ok()) return Fail(store.status());
  auto layout = ReadLayout(**store);
  if (!layout.ok()) return Fail(layout.status());
  auto [wu, levels] = *layout;

  std::vector<KvIndex> indexes;
  size_t w = wu;
  for (size_t level = 0; level < levels; ++level, w *= 2) {
    auto index = KvIndex::Open(store->get(), "w" + std::to_string(w) + "/");
    if (!index.ok()) return Fail(index.status());
    index->EnableRowCache(1024);
    indexes.push_back(std::move(index).value());
  }
  std::vector<const KvIndex*> ptrs;
  for (const auto& index : indexes) ptrs.push_back(&index);

  const size_t q_off = args.GetU64("qoffset", 0);
  const size_t q_len = args.GetU64("qlen", 512);
  if (q_off > data->size() || q_len > data->size() - q_off) {
    return Fail(Status::InvalidArgument("query range past end of data"));
  }
  Rng rng(7);
  const auto q = ExtractQuery(*data, q_off, q_len,
                              args.GetF("qnoise", 0.0), &rng);

  QueryParams params;
  if (!ParseQueryType(args.Get("type", "cnsm-ed"), &params.type)) {
    return Usage();
  }
  params.epsilon = args.GetF("epsilon", 1.0);
  params.alpha = args.GetF("alpha", 1.5);
  params.beta = args.GetF("beta", 2.0);
  params.rho = args.GetU64("rho", q_len / 20);

  const PrefixStats prefix(*data);
  const KvMatchDp matcher(*data, prefix, ptrs);
  MatchStats stats;
  auto results = matcher.Match(q, params, &stats);
  if (!results.ok()) return Fail(results.status());

  std::printf("%zu matches | candidates=%llu scans=%llu cache_hits=%llu | "
              "phase1=%.2fms phase2=%.2fms\n",
              results->size(),
              static_cast<unsigned long long>(stats.candidate_positions),
              static_cast<unsigned long long>(stats.probe.index_accesses),
              static_cast<unsigned long long>(stats.probe.cache_hits),
              stats.phase1_ms, stats.phase2_ms);
  const size_t limit = args.GetU64("limit", 10);
  size_t shown = 0;
  for (const auto& m : *results) {
    std::printf("  offset=%-10zu dist=%.4f\n", m.offset, m.distance);
    if (++shown == limit) break;
  }
  return 0;
}

// ------------------------------------------------------------------------
// Multi-series service commands.

int CmdCatalogIngest(const Args& args) {
  const std::string store_path = args.Get("store");
  const std::string data_path = args.Get("data");
  const std::string name = args.Get("name");
  if (store_path.empty() || data_path.empty() || name.empty()) return Usage();
  auto data = ReadBinary(data_path);
  if (!data.ok()) return Fail(data.status());

  auto store = FileKvStore::Open(store_path);
  if (!store.ok()) return Fail(store.status());

  Catalog::Options copts;
  copts.session.wu = args.GetU64("wu", 25);
  copts.session.levels = args.GetU64("levels", 5);
  copts.session.width = args.GetF("width", 0.5);
  Catalog catalog(store->get(), copts);
  const size_t points = data->size();
  if (Status st = catalog.Ingest(name, std::move(data).value()); !st.ok()) {
    return Fail(st);
  }
  std::printf("ingested '%s' (%zu points, wu=%zu levels=%zu) into %s "
              "(%llu bytes, %zu series)\n",
              name.c_str(), points, copts.session.wu, copts.session.levels,
              store_path.c_str(),
              static_cast<unsigned long long>((*store)->FileBytes()),
              catalog.ListSeries().size());
  return 0;
}

/// What crash recovery repaired while the catalog opened, if anything.
void PrintRecovery(const Catalog::RecoveryReport& rec) {
  if (rec.clean()) return;
  std::printf("crash recovery: %llu epoch(s) rolled back, %llu rolled "
              "forward, %llu orphaned namespace(s) swept\n",
              static_cast<unsigned long long>(rec.epochs_rolled_back),
              static_cast<unsigned long long>(rec.epochs_rolled_forward),
              static_cast<unsigned long long>(rec.orphans_swept));
}

int CmdCatalogInfo(const Args& args) {
  const std::string store_path = args.Get("store");
  if (store_path.empty()) return Usage();
  auto store = FileKvStore::Open(store_path);
  if (!store.ok()) return Fail(store.status());
  // The event journal captures what recovery repaired while opening; the
  // ring is what --json surfaces as structured events.
  EventLog event_log;
  Catalog::Options copts;
  copts.event_log = &event_log;
  Catalog catalog(store->get(), copts);
  if (args.Has("json")) {
    const auto& rec = catalog.recovery_report();
    std::string out = "{\"recovery\":{\"epochs_rolled_back\":" +
                      std::to_string(rec.epochs_rolled_back) +
                      ",\"epochs_rolled_forward\":" +
                      std::to_string(rec.epochs_rolled_forward) +
                      ",\"orphans_swept\":" +
                      std::to_string(rec.orphans_swept) + "},\"series\":[";
    bool first = true;
    for (const auto& name : catalog.ListSeries()) {
      uint64_t epoch = 0, length = 0;
      if (auto e = catalog.SeriesEpoch(name); e.ok()) epoch = *e;
      if (auto l = catalog.SeriesLength(name); l.ok()) length = *l;
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + JsonEscape(name) +
             "\",\"points\":" + std::to_string(length) +
             ",\"epoch\":" + std::to_string(epoch) + "}";
    }
    out += "],\"events\":[";
    first = true;
    for (const auto& line : event_log.RingLines()) {
      if (!first) out += ',';
      first = false;
      out += line;  // ring lines are already JSON objects
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }
  PrintRecovery(catalog.recovery_report());
  TablePrinter table({"Series", "Points", "Epoch", "Indexes",
                      "Memory (MB)"});
  for (const auto& name : catalog.ListSeries()) {
    auto session = catalog.Acquire(name);
    if (!session.ok()) return Fail(session.status());
    uint64_t epoch = 0;
    if (auto e = catalog.SeriesEpoch(name); e.ok()) epoch = *e;
    table.AddRow({name, TablePrinter::FmtInt((*session)->series().size()),
                  TablePrinter::FmtInt(epoch),
                  TablePrinter::FmtInt((*session)->num_indexes()),
                  TablePrinter::Fmt(
                      static_cast<double>((*session)->MemoryBytes()) / 1e6,
                      1)});
  }
  table.Print();
  return 0;
}

/// Parses one query-file line of key=value tokens into a request plus the
/// qoffset/qlen window the query values come from. Shared by the local
/// batch-query path (which extracts the window itself) and remote-query
/// (which ships the window by reference for the server to extract).
Status ParseRequestTokens(const std::string& line, QueryRequest* out,
                          size_t* qoffset_out, size_t* qlen_out) {
  QueryRequest req;
  size_t qoffset = 0, qlen = 0;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad token: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "series") req.series = value;
    else if (key == "type") {
      if (!ParseQueryType(value, &req.params.type)) {
        return Status::InvalidArgument("bad query type: " + value);
      }
    }
    else if (key == "qoffset") qoffset = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "qlen") qlen = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "epsilon") req.params.epsilon = std::strtod(value.c_str(), nullptr);
    else if (key == "alpha") req.params.alpha = std::strtod(value.c_str(), nullptr);
    else if (key == "beta") req.params.beta = std::strtod(value.c_str(), nullptr);
    else if (key == "rho") req.params.rho = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "k") req.top_k = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "timeout-ms") req.timeout_ms = std::strtod(value.c_str(), nullptr);
    else return Status::InvalidArgument("unknown key: " + key);
  }
  if (req.series.empty() || qlen == 0) {
    return Status::InvalidArgument("line needs series=... and qlen=...");
  }
  *out = std::move(req);
  *qoffset_out = qoffset;
  *qlen_out = qlen;
  return Status::OK();
}

/// batch-query form: resolves the window against the local catalog.
Result<QueryRequest> ParseRequestLine(const std::string& line,
                                      Catalog* catalog) {
  QueryRequest req;
  size_t qoffset = 0, qlen = 0;
  KVMATCH_RETURN_NOT_OK(ParseRequestTokens(line, &req, &qoffset, &qlen));
  auto session = catalog->Acquire(req.series);
  if (!session.ok()) return session.status();
  const size_t series_len = (*session)->series().size();
  if (qoffset > series_len || qlen > series_len - qoffset) {
    return Status::InvalidArgument("query range past end of " + req.series);
  }
  const auto span = (*session)->series().Subsequence(qoffset, qlen);
  req.query.assign(span.begin(), span.end());
  return req;
}

/// remote-query form: the window stays a by-reference (offset, length)
/// pair that the server resolves.
Result<net::WireQueryRequest> ParseWireRequestLine(const std::string& line) {
  net::WireQueryRequest wire;
  size_t qoffset = 0, qlen = 0;
  KVMATCH_RETURN_NOT_OK(
      ParseRequestTokens(line, &wire.request, &qoffset, &qlen));
  wire.by_reference = true;
  wire.ref_offset = qoffset;
  wire.ref_length = qlen;
  return wire;
}

/// Reads a query file into `out` through `parse`, one request per line;
/// blank lines and '#' comments are skipped. Returns 0, or the exit code
/// after reporting why the file is unusable (a bad line as path:line).
template <typename Request, typename Parse>
int ReadQueryFile(const std::string& path, Parse parse,
                  std::vector<Request>* out) {
  std::ifstream in(path);
  if (!in) return Fail(Status::IOError("cannot open " + path));
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    auto req = parse(line);
    if (!req.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), lineno,
                   req.status().ToString().c_str());
      return 1;
    }
    out->push_back(std::move(req).value());
  }
  if (out->empty()) {
    return Fail(Status::InvalidArgument("no queries in " + path));
  }
  return 0;
}

/// One answer of batch-query or remote-query: its error, or its match
/// count, latency and first `limit` matches.
void PrintResponse(size_t i, const std::string& series,
                   const QueryResponse& response, size_t limit) {
  if (!response.status.ok()) {
    std::printf("[%zu] %s: %s\n", i, series.c_str(),
                response.status.ToString().c_str());
    return;
  }
  std::printf("[%zu] %s: %zu matches in %.2fms\n", i, series.c_str(),
              response.matches.size(), response.latency_ms);
  for (size_t j = 0; j < response.matches.size() && j < limit; ++j) {
    std::printf("      offset=%-10zu dist=%.4f\n", response.matches[j].offset,
                response.matches[j].distance);
  }
}

void PrintServiceStats(const ServiceStatsSnapshot& snap) {
  const double uptime = snap.Value(Metric::kUptime);
  TablePrinter table({"Series", "Queries", "Errors", "QPS", "Min (ms)",
                      "Mean (ms)", "p99 (ms)", "Candidates", "Scans"});
  for (const auto& s : snap.series) {
    table.AddRow({s.series, TablePrinter::FmtInt(s.queries),
                  TablePrinter::FmtInt(s.errors),
                  TablePrinter::Fmt(uptime > 0.0 ? s.queries / uptime : 0.0,
                                    1),
                  TablePrinter::Fmt(s.latency.min_ms, 2),
                  TablePrinter::Fmt(s.latency.mean_ms, 2),
                  TablePrinter::Fmt(s.latency.p99_ms, 2),
                  TablePrinter::FmtInt(s.match.candidate_positions),
                  TablePrinter::FmtInt(s.match.probe.index_accesses)});
  }
  table.Print();
  const LatencySummary latency =
      Summarize(snap.Histogram(Metric::kQueryLatency));
  std::printf("total: %.0f queries (%.0f errors, %.0f shed, %.0f expired, "
              "%.0f unknown) in %.2fs | mean=%.2fms p99=%.2fms\n",
              snap.Value(Metric::kQueries), snap.Value(Metric::kQueryErrors),
              snap.Value(Metric::kRejected),
              snap.Value(Metric::kDeadlineExceeded),
              snap.Value(Metric::kNotFound), uptime, latency.mean_ms,
              latency.p99_ms);
}

int CmdBatchQuery(const Args& args) {
  const std::string store_path = args.Get("store");
  const std::string queries_path = args.Get("queries");
  if (store_path.empty() || queries_path.empty()) return Usage();
  auto store = FileKvStore::Open(store_path);
  if (!store.ok()) return Fail(store.status());
  Catalog catalog(store->get());

  std::vector<QueryRequest> requests;
  if (int rc = ReadQueryFile(
          queries_path,
          [&catalog](const std::string& line) {
            return ParseRequestLine(line, &catalog);
          },
          &requests);
      rc != 0) {
    return rc;
  }

  QueryService::Options sopts;
  sopts.num_threads = args.GetU64("threads", 4);
  sopts.max_queue = args.GetU64("queue", 1024);
  QueryService service(&catalog, sopts);

  auto futures = service.SubmitBatch(requests);
  const size_t limit = args.GetU64("limit", 3);
  for (size_t i = 0; i < futures.size(); ++i) {
    PrintResponse(i, requests[i].series, futures[i].get(), limit);
  }
  std::printf("\n");
  PrintServiceStats(service.Stats());
  return 0;
}

// ------------------------------------------------------------------------
// Network front-end commands.

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

/// Sleeps in 100 ms slices until SIGINT/SIGTERM arrives or, when
/// `seconds` > 0, until that long has passed. True when a signal ended
/// the wait.
bool WaitForSignal(double seconds = 0.0) {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto wake =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!g_shutdown.load()) {
    if (seconds > 0.0 && std::chrono::steady_clock::now() >= wake) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return true;
}

/// The transport flags `serve` and `coord` share.
void ReadTransportOptions(const Args& args, uint64_t default_port,
                          net::Transport::Options* out) {
  out->bind_address = args.Get("bind", "127.0.0.1");
  out->port = static_cast<int>(args.GetU64("port", default_port));
  out->max_connections = args.GetU64("max-conns", 64);
  out->idle_timeout_ms = args.GetF("idle-ms", 0.0);
  out->stream_chunk_matches = args.GetU64("stream-chunk", 2'000'000);
  out->drain_timeout_ms = args.GetF("drain-ms", 30'000.0);
  out->max_outbox_bytes = args.GetU64("max-outbox-mb", 256) << 20;
}

int CmdServe(const Args& args) {
  const std::string store_path = args.Get("store");
  if (store_path.empty()) return Usage();
  auto store = FileKvStore::Open(store_path);
  if (!store.ok()) return Fail(store.status());

  // Declared before the catalog so every emitter dies first. The optional
  // file sink streams each event as it happens; the in-memory ring (the
  // flight recorder) goes to stderr after the drain with --dump-events.
  EventLog event_log;
  std::ofstream event_file;
  if (const std::string path = args.Get("event-log"); !path.empty()) {
    event_file.open(path, std::ios::app);
    if (!event_file) return Fail(Status::IOError("cannot open " + path));
    event_log.SetSink([&event_file](const std::string& line) {
      event_file << line << '\n';
      event_file.flush();
    });
  }

  Catalog::Options copts;
  copts.event_log = &event_log;
  copts.slow_commit_ms = args.GetF("slow-commit-ms", 0.0);
  Catalog catalog(store->get(), copts);
  PrintRecovery(catalog.recovery_report());

  QueryService::Options sopts;
  sopts.num_threads = args.GetU64("threads", 4);
  sopts.max_queue = args.GetU64("queue", 1024);
  QueryService service(&catalog, sopts);
  catalog.SetStatsRegistry(service.stats_registry());

  net::Server::Options nopts;
  ReadTransportOptions(args, 7777, &nopts);
  nopts.slow_query_ms = args.GetF("slow-query-ms", 0.0);
  // Cluster membership: with --shard-map and --shard-id this process
  // serves one slice of the hash space — it answers kShardInfo with its
  // identity and refuses ingest for series the map assigns elsewhere.
  coord::ShardMap shard_map;
  if (const std::string map_path = args.Get("shard-map");
      !map_path.empty()) {
    if (!args.Has("shard-id")) {
      std::fprintf(stderr, "--shard-map requires --shard-id\n");
      return 2;
    }
    auto loaded = coord::ShardMap::Load(map_path);
    if (!loaded.ok()) return Fail(loaded.status());
    shard_map = std::move(*loaded);
    const uint32_t shard_id =
        static_cast<uint32_t>(args.GetU64("shard-id", 0));
    if (shard_id >= shard_map.num_shards()) {
      std::fprintf(stderr, "--shard-id %u out of range (map has %zu)\n",
                   shard_id, shard_map.num_shards());
      return 2;
    }
    nopts.shard_id = shard_id;
    nopts.num_shards = static_cast<uint32_t>(shard_map.num_shards());
    nopts.shard_map_fingerprint = shard_map.Fingerprint();
    nopts.owns_series = [&shard_map, shard_id](const std::string& name) {
      return shard_map.OwnerOf(name) == shard_id;
    };
  }
  net::Server server(&catalog, &service, nopts);
  if (Status st = server.Start(); !st.ok()) return Fail(st);

  std::printf("serving %zu series on %s:%d (%zu workers, queue %zu); "
              "Ctrl-C to stop\n",
              catalog.ListSeries().size(), nopts.bind_address.c_str(),
              server.port(), service.num_threads(), sopts.max_queue);
  std::fflush(stdout);

  WaitForSignal();
  std::printf("draining %zu connection(s)...\n", server.ActiveConnections());
  server.Stop();
  // Flight recorder after the drain: the ring now includes everything the
  // drain produced (final commits, evictions, slow queries).
  if (args.Has("dump-events")) {
    for (const auto& line : event_log.RingLines()) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  PrintServiceStats(service.Stats());
  return 0;
}

int CmdCoord(const Args& args) {
  const std::string map_path = args.Get("shard-map");
  if (map_path.empty()) return Usage();
  auto map = coord::ShardMap::Load(map_path);
  if (!map.ok()) return Fail(map.status());

  coord::CoordServer::CoordOptions opts;
  ReadTransportOptions(args, 7900, &opts.server);
  opts.coord.client.call_timeout_ms = args.GetF("shard-timeout-ms",
                                                10'000.0);
  opts.num_threads = args.GetU64("threads", 4);
  opts.max_queue = args.GetU64("queue", 256);

  const size_t num_shards = map->num_shards();
  const uint64_t fingerprint = map->Fingerprint();
  coord::CoordServer server(std::move(*map), opts);
  if (Status st = server.Start(); !st.ok()) return Fail(st);

  std::printf("coordinating %zu shard(s) on %s:%d "
              "(map fingerprint %016llx); Ctrl-C to stop\n",
              num_shards, opts.server.bind_address.c_str(), server.port(),
              static_cast<unsigned long long>(fingerprint));
  std::fflush(stdout);

  WaitForSignal();
  std::printf("draining %zu connection(s)...\n", server.ActiveConnections());
  server.Stop();
  return 0;
}

/// The server the remote commands talk to: --host and --port.
Result<std::unique_ptr<net::Client>> Connect(const Args& args) {
  return net::Client::Connect(args.Get("host", "127.0.0.1"),
                              static_cast<int>(args.GetU64("port", 7777)));
}

/// The --queries file of remote-query or remote-cancel, sent on one
/// connection.
struct Pipelined {
  std::vector<net::WireQueryRequest> requests;
  std::unique_ptr<net::Client> client;
  std::vector<uint64_t> ids;  // one per request, in file order
};

/// Reads --queries and sends every request before waiting for any; the
/// server streams responses in completion order and the client re-sorts
/// them by request id. Returns 0, or the exit code after saying why not.
int SendQueryFile(const Args& args, bool collect_trace, Pipelined* out) {
  const std::string path = args.Get("queries");
  if (path.empty()) return Usage();
  if (int rc = ReadQueryFile(path, ParseWireRequestLine, &out->requests);
      rc != 0) {
    return rc;
  }
  auto client = Connect(args);
  if (!client.ok()) return Fail(client.status());
  out->client = std::move(*client);
  for (auto& req : out->requests) {
    req.request.collect_trace = collect_trace;
    auto id = out->client->SendRequest(req);
    if (!id.ok()) return Fail(id.status());
    out->ids.push_back(*id);
  }
  return 0;
}

int CmdRemoteQuery(const Args& args) {
  const bool want_trace = args.Has("trace") || args.Has("trace-json");
  Pipelined sent;
  if (int rc = SendQueryFile(args, want_trace, &sent); rc != 0) return rc;
  const auto& [requests, client, ids] = sent;
  const size_t limit = args.GetU64("limit", 3);
  std::string trace_events;  // combined chrome://tracing doc (--trace-json)
  for (size_t i = 0; i < ids.size(); ++i) {
    auto response = client->WaitResponse(ids[i]);
    if (!response.ok()) return Fail(response.status());
    PrintResponse(i, requests[i].request.series, *response, limit);
    if (want_trace && response->status.ok() && response->trace != nullptr) {
      const StageBreakdown b = ComputeStageBreakdown(*response->trace);
      const double total = response->latency_ms;
      std::printf("      trace: queue=%.2fms probe=%.2fms verify=%.2fms "
                  "serialize=%.2fms | stages sum %.2fms = %.0f%% of "
                  "%.2fms total\n",
                  b.queue_ms, b.probe_ms, b.verify_ms, b.serialize_ms,
                  b.TotalMs(),
                  total > 0.0 ? 100.0 * b.TotalMs() / total : 0.0, total);
      AppendChromeTraceEvents(*response->trace, /*pid=*/i, &trace_events);
    }
  }
  if (const std::string path = args.Get("trace-json"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Fail(Status::IOError("cannot write " + path));
    out << "{\"traceEvents\":[" << trace_events << "]}\n";
    std::printf("wrote %s (load it in chrome://tracing or "
                "ui.perfetto.dev)\n",
                path.c_str());
  }
  return 0;
}

int CmdRemoteCancel(const Args& args) {
  Pipelined sent;
  if (int rc = SendQueryFile(args, false, &sent); rc != 0) return rc;
  const auto& [requests, client, ids] = sent;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      args.GetF("after-ms", 100.0)));
  for (uint64_t id : ids) {
    if (Status st = client->Cancel(id); !st.ok()) return Fail(st);
  }

  size_t cancelled = 0, finished = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto response = client->WaitResponse(ids[i]);
    if (!response.ok()) return Fail(response.status());
    if (response->status.IsCancelled()) {
      ++cancelled;
      std::printf("[%zu] %s: cancelled after %llu candidates verified\n", i,
                  requests[i].request.series.c_str(),
                  static_cast<unsigned long long>(
                      response->stats.distance_calls +
                      response->stats.lb_pruned +
                      response->stats.constraint_pruned));
    } else if (!response->status.ok()) {
      std::printf("[%zu] %s: %s\n", i, requests[i].request.series.c_str(),
                  response->status.ToString().c_str());
    } else {
      ++finished;
      std::printf("[%zu] %s: finished first — %zu matches in %.2fms\n", i,
                  requests[i].request.series.c_str(),
                  response->matches.size(), response->latency_ms);
    }
  }
  std::printf("%zu cancelled, %zu finished before the cancel landed\n",
              cancelled, finished);
  return 0;
}

int CmdRemoteBench(const Args& args) {
  const size_t clients = std::max<uint64_t>(args.GetU64("clients", 4), 1);
  const size_t batch = std::max<uint64_t>(args.GetU64("batch", 64), 1);
  const size_t qlen = args.GetU64("qlen", 256);
  const uint64_t seed = args.GetU64("seed", 42);

  auto probe = Connect(args);
  if (!probe.ok()) return Fail(probe.status());
  auto series = (*probe)->ListSeries();
  if (!series.ok()) return Fail(series.status());
  std::vector<net::SeriesInfo> usable;
  for (const auto& s : *series) {
    if (s.length > qlen) usable.push_back(s);
  }
  if (usable.empty()) {
    return Fail(Status::InvalidArgument(
        "no series on the server is longer than qlen=" +
        std::to_string(qlen)));
  }

  std::vector<std::thread> threads;
  std::vector<size_t> completed(clients, 0);
  std::vector<Status> failures(clients);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Connect(args);
      if (!client.ok()) {
        failures[c] = client.status();
        return;
      }
      std::vector<uint64_t> ids;
      for (size_t i = 0; i < batch; ++i) {
        const auto& target = usable[(c + i) % usable.size()];
        net::WireQueryRequest wire;
        wire.request.series = target.name;
        wire.request.params.type =
            i % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd;
        wire.request.params.epsilon = 3.0;
        wire.request.params.alpha = 1.5;
        wire.request.params.beta = 3.0;
        wire.by_reference = true;
        wire.ref_length = qlen;
        wire.ref_offset =
            (seed + 1237 * (c * batch + i)) % (target.length - qlen);
        auto id = (*client)->SendRequest(wire);
        if (!id.ok()) {
          failures[c] = id.status();
          return;
        }
        ids.push_back(*id);
      }
      for (uint64_t id : ids) {
        auto response = (*client)->WaitResponse(id);
        if (!response.ok()) {
          failures[c] = response.status();
          return;
        }
        if (response->status.ok()) completed[c] += 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  size_t total = 0;
  for (size_t c = 0; c < clients; ++c) {
    if (!failures[c].ok()) return Fail(failures[c]);
    total += completed[c];
  }
  std::printf("%zu clients x %zu pipelined queries: %zu ok in %.2fs "
              "(%.1f QPS aggregate)\n",
              clients, batch, total, seconds,
              static_cast<double>(total) / seconds);
  return 0;
}

int CmdRemoteIngest(const Args& args) {
  const std::string name = args.Get("name");
  const std::string data_path = args.Get("data");
  if (name.empty() || data_path.empty()) return Usage();
  const size_t chunk = std::max<uint64_t>(args.GetU64("chunk", 262'144), 1);

  auto data = ReadBinary(data_path);
  if (!data.ok()) return Fail(data.status());
  auto client = Connect(args);
  if (!client.ok()) return Fail(client.status());

  if (args.Has("replace")) {
    if (Status st = (*client)->DropSeries(name);
        !st.ok() && !st.IsNotFound()) {
      return Fail(st);
    }
  }

  const auto& values = data->values();
  size_t offset = 0;
  net::IngestAck ack;
  if (!args.Has("append")) {
    const size_t first = std::min(chunk, values.size());
    auto created = (*client)->CreateSeries(
        name, std::span<const double>(values.data(), first));
    if (!created.ok()) return Fail(created.status());
    ack = *created;
    offset = first;
  }
  size_t frames = args.Has("append") ? 0 : 1;
  while (offset < values.size()) {
    const size_t len = std::min(chunk, values.size() - offset);
    auto appended = (*client)->AppendSeries(
        name, std::span<const double>(values.data() + offset, len));
    if (!appended.ok()) return Fail(appended.status());
    ack = *appended;
    offset += len;
    ++frames;
  }
  std::printf("ingested %zu points into '%s' over %zu frame(s); now at "
              "epoch %llu, %llu points\n",
              values.size(), name.c_str(), frames,
              static_cast<unsigned long long>(ack.epoch),
              static_cast<unsigned long long>(ack.length));
  return 0;
}

int CmdRemoteDrop(const Args& args) {
  const std::string name = args.Get("name");
  if (name.empty()) return Usage();
  auto client = Connect(args);
  if (!client.ok()) return Fail(client.status());
  if (Status st = (*client)->DropSeries(name); !st.ok()) return Fail(st);
  std::printf("dropped '%s'\n", name.c_str());
  return 0;
}

/// The counter and histogram samples of a Prometheus text dump, as
/// {sample key: value}: only those accumulate activity, so only their
/// deltas are worth printing. Each family's `# TYPE` line precedes its
/// samples.
std::map<std::string, double> ParseAccumulating(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  bool accumulates = false;
  while (std::getline(in, line)) {
    if (line.starts_with("# TYPE ")) {
      accumulates =
          line.ends_with(" counter") || line.ends_with(" histogram");
      continue;
    }
    if (!accumulates || line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

int CmdStats(const Args& args) {
  auto client = Connect(args);
  if (!client.ok()) return Fail(client.status());
  auto text = (*client)->StatsText();
  if (!text.ok()) return Fail(text.status());
  std::fputs(text->c_str(), stdout);

  const double watch_sec = args.GetF("watch", 0.0);
  if (watch_sec <= 0.0) return 0;
  auto prev = ParseAccumulating(*text);
  size_t tick = 0;
  while (!WaitForSignal(watch_sec)) {
    auto poll = (*client)->StatsText();
    if (!poll.ok()) return Fail(poll.status());
    auto cur = ParseAccumulating(*poll);
    std::printf("--- t+%.0fs ---\n", ++tick * watch_sec);
    for (const auto& [name, value] : cur) {
      const auto it = prev.find(name);
      const double delta = it == prev.end() ? value : value - it->second;
      if (delta != 0.0) {
        std::printf("%-56s %+.6g (now %.6g)\n", name.c_str(), delta, value);
      }
    }
    std::fflush(stdout);
    prev = std::move(cur);
  }
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* flags;     // the flags that take a value, as usage shows them
  const char* switches;  // the flags that take none, each in brackets
};

const Command kCommands[] = {
    {"generate", CmdGenerate, "--out --n --kind --seed", ""},
    {"build", CmdBuild, "--data --index --wu --levels --width --threads", ""},
    {"info", CmdInfo, "--index", ""},
    {"query", CmdQuery,
     "--data --index --qoffset --qlen --qnoise --type --epsilon --alpha "
     "--beta --rho --limit",
     ""},
    {"catalog-ingest", CmdCatalogIngest,
     "--store --data --name --wu --levels --width", ""},
    {"catalog-info", CmdCatalogInfo, "--store", "[--json]"},
    {"batch-query", CmdBatchQuery,
     "--store --queries --threads --queue --limit", ""},
    {"serve", CmdServe,
     "--store --threads --queue --slow-query-ms --event-log --slow-commit-ms "
     "--shard-map --shard-id --bind --port --max-conns --idle-ms "
     "--stream-chunk --drain-ms --max-outbox-mb",
     "[--dump-events]"},
    {"coord", CmdCoord,
     "--shard-map --threads --queue --shard-timeout-ms --bind --port "
     "--max-conns --idle-ms --stream-chunk --drain-ms --max-outbox-mb",
     ""},
    {"remote-query", CmdRemoteQuery,
     "--host --port --queries --limit --trace-json", "[--trace]"},
    {"remote-cancel", CmdRemoteCancel, "--host --port --queries --after-ms",
     ""},
    {"remote-bench", CmdRemoteBench,
     "--host --port --clients --batch --qlen --seed", ""},
    {"remote-ingest", CmdRemoteIngest, "--host --port --name --data --chunk",
     "[--replace] [--append]"},
    {"remote-drop", CmdRemoteDrop, "--host --port --name", ""},
    {"stats", CmdStats, "--host --port --watch", ""},
};

/// True when `word` is one of the space-separated words of `list`.
bool Lists(const std::string& list, const std::string& word) {
  return (" " + list + " ").find(" " + word + " ") != std::string::npos;
}

int Usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: kvmatch_cli <command> [--flag value]... "
                    "[--switch]...\n");
  for (const Command& cmd : kCommands) {
    std::fprintf(out, "  %-15s %s%s%s\n", cmd.name, cmd.flags,
                 *cmd.switches ? " " : "", cmd.switches);
  }
  std::fprintf(out, "see the header of tools/kvmatch_cli.cc for details\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  if (name == "--help") return Usage(0);
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (name == c.name) cmd = &c;
  }
  if (cmd == nullptr) return Usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return Usage(0);
    if (Lists(cmd->switches, "[" + arg + "]")) {
      args.kv[arg.substr(2)] = "1";
    } else if (Lists(cmd->flags, arg) && i + 1 < argc &&
               std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[arg.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown flag, or one missing its value: %s\n",
                   cmd->name, argv[i]);
      return Usage();
    }
  }
  return cmd->run(args);
}
