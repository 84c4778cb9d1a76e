// kvbench: the repository's end-to-end benchmark of the served path.
//
// One run measures one workload. The benchmark starts the deployed
// processes — `kvmatch_cli serve` over a fresh store, or two serve shards
// behind `kvmatch_cli coord` — loads them over the wire (CREATE frames),
// warms them, and then drives them from at most four client threads and
// connections over loopback TCP with net::Client for a fixed number of
// seconds. Every answer is checked: each timed query must contain its own
// window at distance 0, and afterwards a seeded sample of every request
// class is replayed and compared with brute force (ED, L1) or UCR Suite
// (DTW).
//
// The workloads and why they were chosen:
//   ed-warm        RSM-ED, cNSM-ED and RSM-L1 on series whose sessions fit
//                  the catalog's 256 MB budget: verify kernels dominate and
//                  storage is idle. The bypass for DTW, storage and
//                  coordinator changes.
//   dtw-warm       RSM-DTW and cNSM-DTW on the same data: the banded DTW
//                  dynamic programme dominates.
//   cold-evict     RSM-ED on uniformly chosen series whose sessions exceed
//                  the budget: session opens (store scans and decode)
//                  dominate.
//   ingest-append  One writer appends on a schedule while two connections
//                  query on a schedule (open loop, timed from the due time):
//                  the commit path, which rewrites the store file.
//   federated      Exact-series requests pipelined through the coordinator
//                  plus one glob request per round: the coordinator hop and
//                  its thread pool.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// traces every other block of four requests and prints the per-layer
// metrics, computed from the returned spans, the MatchStats of every answer,
// the servers' STATS dumps and /proc. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   kvbench --workload NAME --seed N --seconds S --trace 0|1
//           --cli PATH/kvmatch_cli [--tmp DIR] [--quick] [--trace-dir DIR]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "child.h"
#include "common/rng.h"
#include "distance/simd/kernels.h"
#include "net/client.h"
#include "oracle.h"
#include "service/trace.h"
#include "stats_text.h"
#include "ts/generator.h"

namespace kvbench {
namespace {

using namespace kvmatch;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr size_t kQueryLen = 256;
constexpr size_t kTopK = 10;
constexpr size_t kConnections = 4;
// ingest-append schedule: enough appends in a run for a p99, small enough
// that commits, which rewrite the store file, keep up.
constexpr double kAppendsPerSecond = 100.0;
constexpr size_t kAppendPoints = 32;
constexpr double kQueriesPerSecond = 100.0;  // per query connection
constexpr size_t kQueryConnections = 2;
// federated: exact-series requests in flight per round before the glob.
constexpr size_t kPipelined = 8;
// cNSM query windows have at least this standard deviation. The served
// path takes window statistics from prefix sums over the whole series; on
// flatter windows deep into a million-point series their rounding moves a
// normalized distance by about 1e-6, the exactness rule the checks use.
// This keeps about a quarter of the windows out of the cNSM traffic; drop
// the filter once the served statistics are exact on those windows.
constexpr double kMinNormalizedStd = 0.5;
// Points per independently generated chunk of a series (see Dataset).
constexpr size_t kChunkPoints = 25'000;
// Chrome trace size cap (requests written per workload).
constexpr size_t kMaxTraceRequests = 2000;

enum class Shape { kClosed, kIngest, kFederated };

struct Workload {
  std::string name;
  Shape shape;
  size_t series;
  size_t points;  // per series, at creation
  size_t shards;  // serve processes; more than one puts a coordinator first
  std::vector<QueryType> types;  // cycled by each connection
  bool topk;                     // every 4th request asks for the best k
  size_t setup_reps;             // set-ups per run; setup_s is their median
};

std::vector<Workload> AllWorkloads() {
  using T = QueryType;
  return {
      {"ed-warm", Shape::kClosed, 8, 250'000, 1,
       {T::kRsmEd, T::kCnsmEd, T::kRsmL1}, true, 5},
      {"dtw-warm", Shape::kClosed, 8, 250'000, 1, {T::kRsmDtw, T::kCnsmDtw},
       true, 5},
      // Three set-ups only: each writes about 250 MB of store files.
      {"cold-evict", Shape::kClosed, 4, 3'000'000, 1, {T::kRsmEd}, false, 3},
      {"ingest-append", Shape::kIngest, 4, 2'500, 1,
       {T::kRsmEd, T::kCnsmEd}, false, 5},
      {"federated", Shape::kFederated, 8, 250'000, 2,
       {T::kRsmEd, T::kCnsmEd}, false, 5},
  };
}

QueryParams ParamsFor(QueryType type) {
  QueryParams p;
  p.type = type;
  p.epsilon = IsL1(type) ? 60.0 : 3.0;
  if (IsNormalized(type)) {
    p.alpha = 1.5;
    p.beta = 3.0;
  }
  if (IsDtw(type)) p.rho = kQueryLen / 20;
  return p;
}

const char* TypeName(QueryType type) {
  switch (type) {
    case QueryType::kRsmEd: return "rsm-ed";
    case QueryType::kRsmDtw: return "rsm-dtw";
    case QueryType::kCnsmEd: return "cnsm-ed";
    case QueryType::kCnsmDtw: return "cnsm-dtw";
    case QueryType::kRsmL1: return "rsm-l1";
  }
  return "?";
}

std::string SeriesName(size_t i) { return "s" + std::to_string(i); }

/// Independent deterministic streams derived from the run's seed.
Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
             1);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Linear interpolation between order statistics; NaN when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// a / b, or 0 when nothing was counted.
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string cli;
  std::string tmp = ".bench_build/tmp";
  std::string trace_dir;
  uint64_t streams = 1000;  // first random stream of the load connections
};

/// The points of every series. For ingest-append each series also holds
/// the tail the writer appends; `created` is what the set-up loads.
///
/// A series is a concatenation of independently generated chunks, each at
/// its own baseline level, like the concatenated archive the generator
/// imitates. How selective a query is depends on how many windows share
/// its level; with many independent chunks per series that share is
/// nearly the same for every seed, so runs at different seeds are
/// comparable.
struct Dataset {
  std::vector<TimeSeries> series;
  size_t created = 0;
};

Dataset MakeDataset(const Workload& w, const Options& opt) {
  Dataset d;
  d.created = w.points;
  size_t tail = 0;
  if (w.shape == Shape::kIngest) {
    const size_t appends =
        static_cast<size_t>(opt.seconds * kAppendsPerSecond) + 2;
    tail = (appends / w.series + 1) * kAppendPoints;
  }
  for (size_t i = 0; i < w.series; ++i) {
    std::vector<double> values;
    for (uint64_t k = 0; values.size() < w.points + tail; ++k) {
      Rng rng = StreamRng(opt.seed, (uint64_t{1} << 32) + (i << 16) + k);
      const double level = rng.Uniform(-20.0, 20.0);
      const TimeSeries chunk = GenerateUcrLike(kChunkPoints, &rng);
      for (double v : chunk.values()) values.push_back(v + level);
    }
    values.resize(w.points + tail);
    d.series.emplace_back(std::move(values));
  }
  return d;
}

// ------------------------------------------------------------ the stack

int ReservePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// The processes a client talks to, with their stores under `dir`.
struct Stack {
  fs::path dir;
  std::vector<std::unique_ptr<ChildProcess>> servers;  // `serve` processes
  std::unique_ptr<ChildProcess> coord;                  // or null
  int port = 0;                                         // what clients dial
  std::vector<int> server_ports;
  uint64_t points_written = 0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    Stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  /// Stops every process; false if one did not exit cleanly.
  bool Stop() {
    bool clean = true;
    if (coord != nullptr) clean &= coord->Stop() == 0;
    for (auto& s : servers) clean &= s->Stop() == 0;
    return clean;
  }

  /// Each process's port and pid: the shards, then the coordinator.
  std::vector<std::pair<int, pid_t>> Processes() const {
    std::vector<std::pair<int, pid_t>> out;
    for (size_t i = 0; i < servers.size(); ++i) {
      out.emplace_back(server_ports[i], servers[i]->pid());
    }
    if (coord != nullptr) out.emplace_back(port, coord->pid());
    return out;
  }

  uint64_t StoreBytes() const {
    uint64_t bytes = 0;
    std::error_code ec;
    for (size_t i = 0; i < servers.size(); ++i) {
      for (const auto& e : fs::recursive_directory_iterator(
               dir / ("store" + std::to_string(i)), ec)) {
        if (e.is_regular_file(ec)) bytes += e.file_size(ec);
      }
    }
    return bytes;
  }
};

Status StartServer(const Options& opt, Stack* s,
                   std::vector<std::string> extra) {
  const fs::path store = s->dir / ("store" + std::to_string(s->servers.size()));
  fs::create_directories(store);
  std::vector<std::string> argv = {opt.cli, "serve", "--store",
                                   (store / "catalog.kvm").string(),
                                   "--threads", "4"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  auto server = ChildProcess::Spawn(
      argv, (s->dir / ("serve" + std::to_string(s->servers.size()) + ".log"))
                .string());
  if (!server.ok()) return server.status();
  s->servers.push_back(std::move(*server));
  auto port = s->servers.back()->WaitForPort(20'000);
  if (!port.ok()) return port.status();
  // Shard ports were reserved before the shard map was written; a lone
  // server picks its own.
  if (s->server_ports.size() < s->servers.size()) {
    s->server_ports.push_back(*port);
  }
  return Status::OK();
}

Status LaunchOnce(const Options& opt, const Workload& w, Stack* s) {
  if (w.shards == 1) {
    KVMATCH_RETURN_NOT_OK(StartServer(opt, s, {"--port", "0"}));
    s->port = s->server_ports[0];
    return Status::OK();
  }
  // Shards need their ports in the shard map before they start.
  const std::string map_path = (s->dir / "shards.txt").string();
  {
    std::ofstream map(map_path);
    for (size_t i = 0; i < w.shards; ++i) {
      s->server_ports.push_back(ReservePort());
      map << "shard " << i << " 127.0.0.1 " << s->server_ports.back() << "\n";
    }
  }
  for (size_t i = 0; i < w.shards; ++i) {
    KVMATCH_RETURN_NOT_OK(StartServer(
        opt, s,
        {"--port", std::to_string(s->server_ports[i]), "--shard-map",
         map_path, "--shard-id", std::to_string(i)}));
  }
  auto coord = ChildProcess::Spawn(
      {opt.cli, "coord", "--shard-map", map_path, "--port", "0", "--threads",
       "4"},
      (s->dir / "coord.log").string());
  if (!coord.ok()) return coord.status();
  s->coord = std::move(*coord);
  auto port = s->coord->WaitForPort(20'000);
  if (!port.ok()) return port.status();
  s->port = *port;
  return Status::OK();
}

Result<std::unique_ptr<Stack>> Launch(const Options& opt, const Workload& w,
                                      const fs::path& dir) {
  // A reserved shard port can be taken by someone else before the shard
  // binds it; start over with new ports.
  Status last = Status::OK();
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto s = std::make_unique<Stack>();
    s->dir = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    last = LaunchOnce(opt, w, s.get());
    if (last.ok()) return s;
  }
  return last;
}

/// A client connection to `port`, or null.
std::unique_ptr<net::Client> Dial(int port) {
  auto c = net::Client::Connect("127.0.0.1", port);
  if (!c.ok()) {
    std::fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*c);
}

// ------------------------------------------------------------- requests

enum class Kind { kQuery, kTopK, kGlob, kAppend };

struct Request {
  net::WireQueryRequest wire;
  Kind kind = Kind::kQuery;
  size_t series = 0;
  size_t offset = 0;  // the query window's start in `series`
};

/// One timed operation.
struct Sample {
  Kind kind = Kind::kQuery;
  bool ok = false;
  bool traced = false;
  bool partial = false;  // a glob answer with a shard missing
  double latency_ms = 0.0;
  double late_ms = 0.0;  // open loop: send time minus due time
  double sent_ms = 0.0;  // since the timed phase began
  size_t matches = 0;
  MatchStats stats;
  std::shared_ptr<QueryTrace> trace;
};

QueryType TypeAt(const Workload& w, size_t j) {
  return w.types[j % w.types.size()];
}
bool TopKAt(const Workload& w, size_t j) { return w.topk && j % 4 == 3; }
/// In a traced run every other block of four requests is traced, so traced
/// and untraced requests have the same mix of types and top-k.
bool TraceAt(const Options& opt, size_t j) { return opt.trace && j / 4 % 2; }

/// A request for a window of |Q| points of a random series whose current
/// length is lengths[series]. Exact series travel by reference; a glob
/// carries the window's values.
Request MakeQuery(const Dataset& d, std::span<const size_t> lengths,
                  Rng* rng, QueryType type, bool topk, bool glob,
                  bool trace) {
  Request r;
  r.series = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(lengths.size()) - 1));
  const TimeSeries& x = d.series[r.series];
  for (int attempt = 0; attempt < 1000; ++attempt) {
    r.offset = static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(lengths[r.series] - kQueryLen)));
    if (!IsNormalized(type) ||
        ComputeMeanStd(x.Subsequence(r.offset, kQueryLen)).std >=
            kMinNormalizedStd) {
      break;
    }
  }
  QueryRequest& q = r.wire.request;
  q.params = ParamsFor(type);
  q.collect_trace = trace;
  if (glob) {
    r.kind = Kind::kGlob;
    q.series = "s*";
    const auto window = x.Subsequence(r.offset, kQueryLen);
    q.query.assign(window.begin(), window.end());
    return r;
  }
  q.series = SeriesName(r.series);
  if (topk) {
    r.kind = Kind::kTopK;
    q.top_k = kTopK;
  }
  r.wire.by_reference = true;
  r.wire.ref_offset = r.offset;
  r.wire.ref_length = kQueryLen;
  return r;
}

Result<QueryResponse> Ask(net::Client* client, const Request& r) {
  auto id = client->SendRequest(r.wire);
  if (!id.ok()) return id.status();
  return client->WaitResponse(*id);
}

/// Every query is a window of the data, so its answer must contain that
/// window at distance 0.
bool HasSelfMatch(const std::vector<MatchResult>& matches, size_t offset) {
  for (const auto& m : matches) {
    if (m.offset == offset && m.distance <= kDistanceTolerance) return true;
  }
  return false;
}

void Record(const Request& r, Result<QueryResponse> resp, Sample* s) {
  s->kind = r.kind;
  s->traced = r.wire.request.collect_trace;
  if (!resp.ok() || !resp->status.ok()) {
    std::fprintf(stderr, "%s on %s failed: %s\n",
                 TypeName(r.wire.request.params.type),
                 r.wire.request.series.c_str(),
                 (resp.ok() ? resp->status : resp.status()).ToString().c_str());
    return;
  }
  s->ok = HasSelfMatch(resp->matches, r.offset);
  if (!s->ok) {
    std::fprintf(stderr, "%s on %s@%zu: answer lacks its own window\n",
                 TypeName(r.wire.request.params.type),
                 r.wire.request.series.c_str(), r.offset);
  }
  s->matches = resp->matches.size();
  s->stats = resp->stats;
  s->trace = resp->trace;
}

void RecordGlob(const Request& r, Result<net::FederatedResponse> resp,
                Sample* s) {
  s->kind = Kind::kGlob;
  s->traced = r.wire.request.collect_trace;
  if (!resp.ok() || !resp->status.ok()) {
    std::fprintf(stderr, "glob query failed: %s\n",
                 (resp.ok() ? resp->status : resp.status()).ToString().c_str());
    return;
  }
  s->partial = resp->partial();
  for (const auto& g : resp->groups) {
    s->matches += g.matches.size();
    if (g.series == SeriesName(r.series)) {
      s->ok = HasSelfMatch(g.matches, r.offset);
    }
  }
  s->ok = s->ok && !s->partial;
  if (!s->ok) std::fprintf(stderr, "glob answer lacks its own window\n");
  s->stats = resp->stats;
  s->trace = resp->trace;
}

// ------------------------------------------------------ set-up and load

struct Setup {
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;   // one per repetition
  std::vector<double> create_ms;  // every CREATE, all repetitions
  // (start, duration) of the kept stack's CREATEs, for the Chrome trace.
  std::vector<std::pair<double, double>> create_spans;
};

/// Starts the processes, loads every series and warms the sessions; all
/// of it is the set-up time. Repeated `reps` times in a fresh directory;
/// the last stack is kept for the timed phase.
Result<Setup> SetUp(const Options& opt, const Workload& w, const Dataset& d,
                    const fs::path& dir, size_t reps) {
  Setup out;
  const std::vector<size_t> lengths(w.series, d.created);
  for (size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    auto stack = Launch(opt, w, dir);
    if (!stack.ok()) return stack.status();
    auto client = Dial((*stack)->port);
    if (client == nullptr) return Status::IOError("cannot dial the stack");
    out.create_spans.clear();
    for (size_t i = 0; i < w.series; ++i) {
      const auto c0 = Clock::now();
      auto ack = client->CreateSeries(SeriesName(i),
                                      d.series[i].Subsequence(0, d.created));
      if (!ack.ok()) return ack.status();
      if (ack->length != d.created) {
        return Status::Internal("CREATE acknowledged a wrong length");
      }
      out.create_ms.push_back(MsBetween(c0, Clock::now()));
      out.create_spans.emplace_back(MsBetween(t0, c0), out.create_ms.back());
      (*stack)->points_written += d.created;
    }
    // Warm-up: one query per series opens every session (and, through a
    // coordinator, every shard connection and one glob plan). Raw ED, so
    // any window of series i is a valid query for it.
    Rng rng = StreamRng(opt.seed, 7);
    for (size_t i = 0; i < w.series; ++i) {
      Request r =
          MakeQuery(d, lengths, &rng, QueryType::kRsmEd, false, false, false);
      r.series = i;
      r.wire.request.series = SeriesName(i);
      Sample s;
      Record(r, Ask(client.get(), r), &s);
      if (!s.ok) return Status::Internal("warm-up query failed");
    }
    if (w.shape == Shape::kFederated) {
      const Request r =
          MakeQuery(d, lengths, &rng, QueryType::kRsmEd, false, true, false);
      Sample s;
      RecordGlob(r, client->FederatedQuery(r.wire), &s);
      if (!s.ok) return Status::Internal("warm-up glob failed");
    }
    out.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    client.reset();
    if (rep + 1 < reps) {
      if (!(*stack)->Stop()) return Status::Internal("a server exited badly");
    } else {
      out.stack = std::move(*stack);
    }
  }
  return out;
}

struct Phase {
  std::vector<Sample> samples;
  double seconds = 0.0;
  std::vector<size_t> appended;  // ingest-append: points per series
};

Phase Collect(std::vector<std::vector<Sample>> per, Clock::time_point t0) {
  Phase p;
  p.seconds = MsBetween(t0, Clock::now()) / 1000.0;
  for (auto& v : per) {
    for (auto& s : v) p.samples.push_back(std::move(s));
  }
  return p;
}

/// Closed loop: each connection sends its next request when the previous
/// one has answered.
Phase RunClosed(const Options& opt, const Workload& w, const Dataset& d,
                int port) {
  const std::vector<size_t> lengths(w.series, d.created);
  std::vector<std::vector<Sample>> per(kConnections);
  const auto t0 = Clock::now();
  const auto end = t0 + Seconds(opt.seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Dial(port);
      if (client == nullptr) {
        per[c].push_back(Sample{});
        return;
      }
      Rng rng = StreamRng(opt.seed, opt.streams + c);
      for (size_t j = 0; Clock::now() < end; ++j) {
        const Request r =
            MakeQuery(d, lengths, &rng, TypeAt(w, c + j), TopKAt(w, j),
                      false, TraceAt(opt, j));
        Sample s;
        const auto s0 = Clock::now();
        s.sent_ms = MsBetween(t0, s0);
        Record(r, Ask(client.get(), r), &s);
        s.latency_ms = MsBetween(s0, Clock::now());
        per[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  return Collect(std::move(per), t0);
}

/// Per connection, rounds of kPipelined exact-series requests in flight at
/// once followed by one blocking glob request.
Phase RunFederated(const Options& opt, const Workload& w, const Dataset& d,
                   int port) {
  const std::vector<size_t> lengths(w.series, d.created);
  std::vector<std::vector<Sample>> per(kConnections);
  const auto t0 = Clock::now();
  const auto end = t0 + Seconds(opt.seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Dial(port);
      if (client == nullptr) {
        per[c].push_back(Sample{});
        return;
      }
      Rng rng = StreamRng(opt.seed, opt.streams + c);
      for (size_t j = 0; Clock::now() < end;) {
        std::map<uint64_t, std::pair<Request, Clock::time_point>> flight;
        for (size_t k = 0; k < kPipelined; ++k, ++j) {
          Request r = MakeQuery(d, lengths, &rng, TypeAt(w, c + j), false,
                                false, TraceAt(opt, j));
          const auto s0 = Clock::now();
          auto id = client->SendRequest(r.wire);
          if (!id.ok()) {
            per[c].push_back(Sample{});
            return;
          }
          flight.emplace(*id, std::make_pair(std::move(r), s0));
        }
        while (!flight.empty()) {
          auto any = client->WaitAnyResponse();
          if (!any.ok()) {
            per[c].push_back(Sample{});
            return;
          }
          auto it = flight.find(any->first);
          if (it == flight.end()) continue;
          Sample s;
          s.sent_ms = MsBetween(t0, it->second.second);
          Record(it->second.first, std::move(any->second), &s);
          s.latency_ms = MsBetween(it->second.second, Clock::now());
          per[c].push_back(std::move(s));
          flight.erase(it);
        }
        const Request g = MakeQuery(d, lengths, &rng, QueryType::kRsmEd,
                                    false, true, TraceAt(opt, j));
        ++j;
        Sample s;
        const auto s0 = Clock::now();
        s.sent_ms = MsBetween(t0, s0);
        RecordGlob(g, client->FederatedQuery(g.wire), &s);
        s.latency_ms = MsBetween(s0, Clock::now());
        per[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  return Collect(std::move(per), t0);
}

/// Sleeps until shortly before `t`, then spins, so an open-loop request
/// leaves on time and its latency from the due time is the server's.
void WaitUntil(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(200));
  while (Clock::now() < t) {
  }
}

/// Open loop: one writer appends on a fixed schedule, round-robin over the
/// series, while query connections send on their own schedules. Latency
/// counts from the due time, so a stall also charges the requests queued
/// behind it.
Phase RunIngest(const Options& opt, const Workload& w, const Dataset& d,
                int port) {
  const std::vector<size_t> lengths(w.series, d.created);
  std::vector<std::vector<Sample>> per(1 + kQueryConnections);
  std::vector<size_t> appended(w.series, 0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto end = t0 + Seconds(opt.seconds);
  auto due = [t0](size_t i, double rate) {
    return t0 + Seconds(static_cast<double>(i) / rate);
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto client = Dial(port);
    if (client == nullptr) {
      per[0].push_back(Sample{});
      return;
    }
    for (size_t i = 0; due(i, kAppendsPerSecond) < end; ++i) {
      const auto at = due(i, kAppendsPerSecond);
      WaitUntil(at);
      const size_t series = i % w.series;
      const size_t from = d.created + appended[series];
      Sample s;
      s.kind = Kind::kAppend;
      const auto s0 = Clock::now();
      s.sent_ms = MsBetween(t0, s0);
      s.late_ms = MsBetween(at, s0);
      auto ack = client->AppendSeries(
          SeriesName(series),
          d.series[series].Subsequence(from, kAppendPoints));
      s.latency_ms = MsBetween(at, Clock::now());
      s.ok = ack.ok() && ack->length == from + kAppendPoints;
      if (s.ok) {
        appended[series] += kAppendPoints;
      } else {
        std::fprintf(stderr, "append to %s failed: %s\n",
                     SeriesName(series).c_str(),
                     ack.ok() ? "wrong length"
                              : ack.status().ToString().c_str());
      }
      per[0].push_back(std::move(s));
    }
  });
  for (size_t c = 0; c < kQueryConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Dial(port);
      if (client == nullptr) {
        per[1 + c].push_back(Sample{});
        return;
      }
      Rng rng = StreamRng(opt.seed, opt.streams + c);
      for (size_t j = 0; due(j, kQueriesPerSecond) < end; ++j) {
        const auto at = due(j, kQueriesPerSecond);
        const Request r = MakeQuery(d, lengths, &rng, TypeAt(w, c + j), false,
                                    false, TraceAt(opt, j));
        WaitUntil(at);
        Sample s;
        const auto s0 = Clock::now();
        s.sent_ms = MsBetween(t0, s0);
        s.late_ms = MsBetween(at, s0);
        Record(r, Ask(client.get(), r), &s);
        s.latency_ms = MsBetween(at, Clock::now());
        per[1 + c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase p = Collect(std::move(per), t0);
  p.appended = std::move(appended);
  return p;
}

// ------------------------------------------------------ correctness gate

/// Replays a seeded sample covering every request class of the workload
/// and compares each answer with the oracle. Returns (checked, failed).
std::pair<size_t, size_t> CheckSample(const Options& opt, const Workload& w,
                                      const Dataset& d, const Phase& phase,
                                      int port) {
  // The points each series holds now: after ingest, the created prefix
  // plus what the writer appended.
  std::vector<TimeSeries> grown;
  std::vector<const TimeSeries*> held;
  std::vector<size_t> lengths;
  for (size_t i = 0; i < w.series; ++i) {
    lengths.push_back(d.created +
                      (phase.appended.empty() ? 0 : phase.appended[i]));
  }
  if (w.shape == Shape::kIngest) {
    for (size_t i = 0; i < w.series; ++i) {
      const auto v = d.series[i].Subsequence(0, lengths[i]);
      grown.emplace_back(std::vector<double>(v.begin(), v.end()));
    }
    for (const auto& g : grown) held.push_back(&g);
  } else {
    for (const auto& s : d.series) held.push_back(&s);
  }

  auto client = Dial(port);
  if (client == nullptr) return {1, 1};
  size_t checked = 0, failed = 0;
  if (w.shape == Shape::kIngest) {
    // The writer has stopped: the directory must show every append.
    ++checked;
    auto listing = client->ListSeries();
    bool same = listing.ok() && listing->size() == w.series;
    for (size_t i = 0; same && i < w.series; ++i) {
      same = (*listing)[i].name == SeriesName(i) &&
             (*listing)[i].length == lengths[i];
    }
    if (!same) {
      ++failed;
      std::fprintf(stderr, "series lengths differ from what was appended\n");
    }
  }

  // Classes: each query type as threshold and, where the workload asks
  // for it, top-k; plus the glob through a coordinator.
  struct Case {
    Request req;
    std::vector<MatchResult> got;                     // exact series
    std::vector<net::FederatedSeriesMatches> groups;  // glob
    bool answered = false;
  };
  std::vector<Case> cases;
  Rng rng = StreamRng(opt.seed, 999);
  const size_t classes = w.types.size() * (w.topk ? 2 : 1) +
                         (w.shape == Shape::kFederated ? 1 : 0);
  const size_t per_class = std::max<size_t>(2, (8 + classes - 1) / classes);
  for (QueryType type : w.types) {
    for (bool topk : {false, true}) {
      if (topk && !w.topk) continue;
      for (size_t k = 0; k < per_class; ++k) {
        cases.emplace_back().req =
            MakeQuery(d, lengths, &rng, type, topk, false, false);
      }
    }
  }
  if (w.shape == Shape::kFederated) {
    for (size_t k = 0; k < per_class; ++k) {
      cases.emplace_back().req =
          MakeQuery(d, lengths, &rng, QueryType::kRsmEd, false, true, false);
    }
  }
  for (auto& c : cases) {
    if (c.req.kind == Kind::kGlob) {
      auto fed = client->FederatedQuery(c.req.wire);
      if (fed.ok() && fed->status.ok() && !fed->partial()) {
        c.groups = std::move(fed->groups);
        c.answered = true;
      }
    } else {
      auto got = Ask(client.get(), c.req);
      if (got.ok() && got->status.ok()) {
        c.got = std::move(got->matches);
        c.answered = true;
      }
    }
  }

  // The oracle work runs on at most four threads.
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min(kConnections, cases.size()); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < cases.size();
           i = next.fetch_add(1)) {
        const Case& c = cases[i];
        const QueryRequest& q = c.req.wire.request;
        const auto window =
            held[c.req.series]->Subsequence(c.req.offset, kQueryLen);
        std::string why;
        if (!c.answered) {
          why = "request failed";
        } else if (c.req.kind == Kind::kGlob) {
          std::map<std::string, const std::vector<MatchResult>*> by_series;
          for (const auto& g : c.groups) by_series[g.series] = &g.matches;
          const std::vector<MatchResult> none;
          for (size_t s = 0; s < w.series && why.empty(); ++s) {
            auto it = by_series.find(SeriesName(s));
            why = CheckThreshold(*held[s], window, q.params,
                                 it == by_series.end() ? none : *it->second);
          }
        } else if (c.req.kind == Kind::kTopK) {
          why = CheckTopK(*held[c.req.series], window, q.params, q.top_k,
                          c.got);
        } else {
          why = CheckThreshold(*held[c.req.series], window, q.params, c.got);
        }
        if (!why.empty()) {
          mismatches.fetch_add(1);
          std::fprintf(stderr, "oracle mismatch: %s %s@%zu%s: %s\n",
                       TypeName(q.params.type), q.series.c_str(),
                       c.req.offset, c.req.kind == Kind::kTopK ? " top-k" : "",
                       why.c_str());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return {checked + cases.size(), failed + mismatches.load()};
}

// --------------------------------------------------------------- metrics

/// What the servers report about themselves at one instant.
struct Snapshot {
  StatsText servers;  // STATS summed over the `serve` processes
  StatsText front;    // STATS of the coordinator; empty without one
  ProcCounters proc;  // summed over every process
};

Result<Snapshot> TakeSnapshot(const Stack& s) {
  Snapshot snap;
  const auto procs = s.Processes();
  for (size_t i = 0; i < procs.size(); ++i) {
    auto client = Dial(procs[i].first);
    if (client == nullptr) return Status::IOError("cannot dial for STATS");
    auto text = client->StatsText();
    if (!text.ok()) return text.status();
    const StatsText parsed = StatsText::Parse(*text);
    if (i < s.servers.size()) {
      snap.servers.Add(parsed);
    } else {
      snap.front.Add(parsed);
    }
    snap.proc.Add(ReadProcCounters(procs[i].second));
  }
  return snap;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The requests the end-to-end rate and latencies describe: the appends
/// on ingest-append (its queries are background load, reported per layer),
/// the queries everywhere else.
bool Measured(const Workload& w, const Sample& x) {
  return (x.kind == Kind::kAppend) == (w.shape == Shape::kIngest);
}

std::vector<Metric> EndToEnd(const Workload& w, const Setup& setup,
                             const Phase& p, const Stack& s,
                             const Snapshot& after, uint64_t points_held) {
  std::vector<double> latency_ms;
  size_t done = 0;
  for (const auto& x : p.samples) {
    if (!Measured(w, x)) continue;
    latency_ms.push_back(x.latency_ms);
    done += x.ok;
  }
  return {
      {"setup_s", Quantile(setup.setup_s, 0.5), "s"},
      {"qps", static_cast<double>(done) / p.seconds, "req/s"},
      {"p50_ms", Quantile(latency_ms, 0.5), "ms"},
      {"p95_ms", Quantile(latency_ms, 0.95), "ms"},
      {"disk_bytes_per_point",
       static_cast<double>(after.proc.write_bytes) /
           static_cast<double>(s.points_written),
       "B/point"},
      {"store_bytes_per_point",
       static_cast<double>(s.StoreBytes()) / static_cast<double>(points_held),
       "B/point"},
      {"peak_rss_mb", static_cast<double>(after.proc.hwm_kb) / 1024.0, "MiB"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const Setup& setup,
                             const Phase& p, const Stack& s,
                             const Snapshot& before, const Snapshot& after) {
  // Spans of traced requests.
  std::vector<double> gap, serialize, queue, acquire, probe, verify, rounds;
  std::vector<double> coord_overhead, coord_skew, traced_ms, untraced_ms;
  // Counters of every answer.
  MatchStats sum;
  double matches = 0.0, queries = 0.0, partial = 0.0, late = 0.0, open = 0.0;
  std::vector<double> query_ms, measured_ms;
  for (const auto& x : p.samples) {
    if (Measured(w, x)) measured_ms.push_back(x.latency_ms);
    if (x.late_ms > 0.0) {
      open += 1.0;
      late += x.late_ms > 1.0;
    }
    if (x.kind == Kind::kAppend || !x.ok) continue;
    query_ms.push_back(x.latency_ms);
    queries += 1.0;
    matches += static_cast<double>(x.matches);
    partial += x.partial;
    sum.Add(x.stats);
    if (x.kind != Kind::kGlob) {
      (x.traced ? traced_ms : untraced_ms).push_back(x.latency_ms);
    }
    if (x.trace == nullptr) continue;
    double extent = 0.0, queue_end = -1.0, first_probe = -1.0, probes = 0.0;
    double shard_max = 0.0, shard_min = 1e300;
    for (const auto& sp : x.trace->spans()) {
      extent = std::max(extent, sp.start_ms + sp.dur_ms);
      if (sp.name == kSpanQueue) {
        queue_end = sp.start_ms + sp.dur_ms;
      } else if (sp.name == kSpanProbe) {
        if (first_probe < 0.0) first_probe = sp.start_ms;
        probes += 1.0;
      } else if (sp.name.rfind("shard", 0) == 0 &&
                 sp.name.find('/') == std::string::npos) {
        shard_max = std::max(shard_max, sp.dur_ms);
        shard_min = std::min(shard_min, sp.dur_ms);
      }
    }
    gap.push_back(x.latency_ms - extent);
    if (x.kind == Kind::kGlob) {
      if (shard_max > 0.0) {
        coord_overhead.push_back((x.latency_ms - shard_max) / x.latency_ms);
        coord_skew.push_back((shard_max - shard_min) / shard_max);
      }
      continue;
    }
    const StageBreakdown stages = ComputeStageBreakdown(*x.trace);
    queue.push_back(stages.queue_ms);
    probe.push_back(stages.probe_ms);
    verify.push_back(stages.verify_ms);
    serialize.push_back(stages.serialize_ms);
    if (queue_end >= 0.0 && first_probe >= 0.0) {
      acquire.push_back(first_probe - queue_end);
    }
    if (x.kind == Kind::kTopK) rounds.push_back(probes);
  }

  const StatsText delta = after.servers.Minus(before.servers);
  StatsText net_delta = delta;
  net_delta.Add(after.front.Minus(before.front));
  const StatsText& life = after.servers;  // the stack's whole life
  const double commits = life.Get("kvmatch_commits_total{kind=\"create\"}") +
                         life.Get("kvmatch_commits_total{kind=\"append\"}") +
                         life.Get("kvmatch_commits_total{kind=\"replace\"}");
  auto stage = [&](const char* name) {
    return Ratio(life.Get(std::string("kvmatch_commit_stage_ms_total{stage=\"") +
                          name + "\"}"),
                 commits);
  };
  const double candidates = static_cast<double>(sum.candidate_positions);
  const double hits = static_cast<double>(sum.probe.cache_hits);
  const double fetched = static_cast<double>(sum.probe.rows_fetched);
  const double p50_traced = Quantile(traced_ms, 0.5);
  return {
      {"net.client_gap_ms_p50", Quantile(gap, 0.5), "ms"},
      {"net.serialize_ms_mean", Mean(serialize), "ms"},
      {"net.wakeups_per_query",
       Ratio(net_delta.Get("kvmatch_net_epoll_wakeups_total"), queries),
       "count"},
      {"net.loop_iters_per_query",
       Ratio(net_delta.Get("kvmatch_net_loop_iterations_total"), queries),
       "count"},
      {"coord.overhead_frac",
       coord_overhead.empty() ? 0.0 : Quantile(coord_overhead, 0.5), "ratio"},
      {"coord.shard_skew_frac",
       coord_skew.empty() ? 0.0 : Quantile(coord_skew, 0.5), "ratio"},
      {"coord.partial_answers", partial, "count"},
      {"service.queue_ms_p50", Quantile(queue, 0.5), "ms"},
      {"service.queue_ms_p99", Quantile(queue, 0.99), "ms"},
      {"service.acquire_ms_p50", Quantile(acquire, 0.5), "ms"},
      {"service.evictions_per_query",
       Ratio(delta.Get("kvmatch_series_evicted_total"), queries), "count"},
      {"service.resident_mb",
       after.servers.Get("kvmatch_resident_bytes") / (1 << 20), "MiB"},
      {"match.probe_ms_mean", Mean(probe), "ms"},
      {"match.verify_ms_mean", Mean(verify), "ms"},
      {"match.rounds_per_topk", rounds.empty() ? 0.0 : Mean(rounds), "count"},
      {"match.candidates_per_query", Ratio(candidates, queries), "count"},
      {"match.matches_per_candidate", Ratio(matches, candidates), "ratio"},
      {"index.accesses_per_query",
       Ratio(static_cast<double>(sum.probe.index_accesses), queries), "count"},
      {"index.rows_per_query", Ratio(fetched, queries), "count"},
      {"index.cache_hit_ratio", Ratio(hits, hits + fetched), "ratio"},
      {"index.bytes_per_query",
       Ratio(static_cast<double>(sum.probe.bytes_fetched), queries), "B"},
      {"distance.calls_per_query",
       Ratio(static_cast<double>(sum.distance_calls), queries), "count"},
      {"distance.lb_prune_ratio",
       Ratio(static_cast<double>(sum.lb_pruned), candidates), "ratio"},
      {"distance.constraint_prune_ratio",
       Ratio(static_cast<double>(sum.constraint_pruned), candidates), "ratio"},
      {"distance.verify_us_per_candidate",
       Ratio(sum.phase2_ms * 1000.0, candidates), "us"},
      {"storage.scans_per_query",
       Ratio(delta.Get("kvmatch_kvstore_ops_total{op=\"scan\"}"), queries),
       "count"},
      {"storage.scan_ms_p50",
       life.Percentile("kvmatch_kvstore_scan_latency_ms", 0.5), "ms"},
      {"storage.scan_ms_p99",
       life.Percentile("kvmatch_kvstore_scan_latency_ms", 0.99), "ms"},
      {"storage.bytes_read_per_query",
       Ratio(delta.Get("kvmatch_kvstore_bytes_read_total"), queries), "B"},
      {"storage.flush_ms_p50",
       life.Percentile("kvmatch_kvstore_flush_latency_ms", 0.5), "ms"},
      {"storage.flush_ms_p99",
       life.Percentile("kvmatch_kvstore_flush_latency_ms", 0.99), "ms"},
      {"storage.flushes_per_commit",
       Ratio(life.Get("kvmatch_kvstore_ops_total{op=\"flush\"}"), commits),
       "count"},
      {"storage.apply_ms_p50",
       life.Percentile("kvmatch_kvstore_apply_latency_ms", 0.5), "ms"},
      {"storage.api_bytes_per_point",
       life.Get("kvmatch_kvstore_bytes_written_total") /
           static_cast<double>(s.points_written),
       "B/point"},
      {"ingest.commit_ms_p50", life.Percentile("kvmatch_commit_latency_ms", 0.5),
       "ms"},
      {"ingest.commit_ms_p99",
       life.Percentile("kvmatch_commit_latency_ms", 0.99), "ms"},
      {"ingest.journal_ms_mean", stage("journal"), "ms"},
      {"ingest.data_ms_mean", stage("data"), "ms"},
      {"ingest.index_ms_mean", stage("index"), "ms"},
      {"ingest.header_ms_mean", stage("header"), "ms"},
      {"ingest.flip_ms_mean", stage("flip"), "ms"},
      {"ingest.create_ms_mean", Mean(setup.create_ms), "ms"},
      {"load.p99_ms", Quantile(measured_ms, 0.99), "ms"},
      {"load.query_p50_ms", Quantile(query_ms, 0.5), "ms"},
      {"load.query_p99_ms", Quantile(query_ms, 0.99), "ms"},
      {"load.late_frac", Ratio(late, open), "ratio"},
      {"proc.cpu_ms_per_query",
       Ratio(after.proc.cpu_ms - before.proc.cpu_ms, queries), "ms"},
      {"proc.threads_max",
       static_cast<double>(std::max(before.proc.threads, after.proc.threads)),
       "count"},
      {"proc.ctx_switches_per_query",
       Ratio(static_cast<double>(after.proc.ctx_switches -
                                 before.proc.ctx_switches),
             queries),
       "count"},
      {"trace.overhead_frac", p50_traced / Quantile(untraced_ms, 0.5) - 1.0,
       "ratio"},
  };
}

/// Chrome trace of the run: the benchmark's own spans (the kept set-up's
/// CREATEs on their own timeline as pid 0, then each append and each traced
/// request from due time to answer) with the servers' spans placed inside
/// the request that carried them.
void WriteChromeTrace(const std::string& path, const Setup& setup,
                      const Phase& p) {
  std::string out = "{\"traceEvents\":[";
  QueryTrace creates;
  for (const auto& [start, dur] : setup.create_spans) {
    creates.AddSpanAt(TraceSpan{"client/create", start, dur, 0, {}});
  }
  AppendChromeTraceEvents(creates, 0, &out);
  size_t written = 0;
  for (size_t i = 0; i < p.samples.size() && written < kMaxTraceRequests;
       ++i) {
    const Sample& x = p.samples[i];
    if (x.kind != Kind::kAppend && x.trace == nullptr) continue;
    ++written;
    QueryTrace t;
    const char* name = x.kind == Kind::kAppend ? "client/append"
                       : x.kind == Kind::kGlob ? "client/glob"
                       : x.kind == Kind::kTopK ? "client/topk"
                                               : "client/query";
    const double due = x.sent_ms - x.late_ms;
    t.AddSpanAt(TraceSpan{name, due, x.latency_ms, 0, {}});
    if (x.trace != nullptr) {
      // Server times are relative to the server's own origin; centre the
      // server's extent inside the client's round trip.
      const auto spans = x.trace->spans();
      double extent = 0.0;
      for (const auto& sp : spans) {
        extent = std::max(extent, sp.start_ms + sp.dur_ms);
      }
      const double shift = due + std::max(0.0, x.latency_ms - extent) / 2;
      for (TraceSpan sp : spans) {
        sp.start_ms += shift;
        sp.worker += 1;
        t.AddSpanAt(std::move(sp));
      }
    }
    AppendChromeTraceEvents(t, 1 + i, &out);
  }
  out += "]}\n";
  std::ofstream(path) << out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH [--tmp DIR] [--quick] "
               "[--trace-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      opt.quick = true;
    } else if (!has_value) {
      return Usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--cli") {
      opt.cli = argv[++i];
    } else if (a == "--tmp") {
      opt.tmp = argv[++i];
    } else if (a == "--trace-dir") {
      opt.trace_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  std::vector<Workload> all = AllWorkloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == opt.workload;
  });
  if (it == all.end() || opt.cli.empty() || !(opt.seconds > 0.0)) {
    return Usage();
  }
  Workload w = *it;
  if (opt.quick) {
    // Smoke size: a tenth of the data (still many query windows per
    // series), a short phase, one set-up.
    w.points = std::max<size_t>(w.points / 10, 8 * kQueryLen);
    opt.seconds = std::min(opt.seconds, 1.0);
    w.setup_reps = 1;
  }

  const Dataset d = MakeDataset(w, opt);
  const fs::path dir = fs::absolute(fs::path(opt.tmp) /
                                    (w.name + "-" + std::to_string(getpid())));
  auto setup = SetUp(opt, w, d, dir, w.setup_reps);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  Stack& stack = *setup->stack;
  auto run = [&](const Options& o) {
    return w.shape == Shape::kClosed   ? RunClosed(o, w, d, stack.port)
           : w.shape == Shape::kIngest ? RunIngest(o, w, d, stack.port)
                                       : RunFederated(o, w, d, stack.port);
  };
  // One untimed second of the same load, from other request streams:
  // freshly started servers run their first second measurably slower. Not
  // on ingest-append, where it would grow the store the phase starts from,
  // nor in a smoke run.
  size_t attempted = 0, failed = 0;
  if (w.shape != Shape::kIngest && !opt.quick) {
    Options warm = opt;
    warm.seconds = std::min(1.0, opt.seconds);
    warm.trace = false;
    warm.streams = 2000;
    for (const auto& x : run(warm).samples) {
      ++attempted;
      failed += !x.ok;
    }
  }
  auto before = TakeSnapshot(stack);
  const Phase phase = run(opt);
  auto after = TakeSnapshot(stack);
  if (!before.ok() || !after.ok()) {
    std::fprintf(stderr, "STATS failed: %s\n",
                 (before.ok() ? after.status() : before.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  const auto [checked, mismatched] = CheckSample(opt, w, d, phase, stack.port);
  uint64_t points_held = 0;
  for (size_t i = 0; i < w.series; ++i) {
    points_held += d.created + (phase.appended.empty() ? 0 : phase.appended[i]);
  }
  stack.points_written += points_held - w.series * d.created;
  const std::vector<Metric> metrics =
      opt.trace ? PerLayer(w, *setup, phase, stack, *before, *after)
                : EndToEnd(w, *setup, phase, stack, *after, points_held);
  const bool clean_exit = stack.Stop();

  failed += mismatched + (clean_exit ? 0 : 1);
  for (const auto& x : phase.samples) failed += !x.ok;
  attempted += phase.samples.size() + checked + 1;

  if (!opt.trace_dir.empty() && opt.trace) {
    fs::create_directories(opt.trace_dir);
    WriteChromeTrace(
        (fs::path(opt.trace_dir) / (w.name + ".trace.json")).string(),
        *setup, phase);
  }
  std::printf("workload %s seed %llu: %zu timed requests in %.2f s, %zu "
              "sampled answers checked, dispatch tier %s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              phase.samples.size(), phase.seconds, checked,
              simd::TierName(simd::ActiveTier()));
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) { return kvbench::Main(argc, argv); }
