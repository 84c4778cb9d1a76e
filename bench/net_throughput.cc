// Network front-end scaling: aggregate QPS through the TCP server as the
// number of concurrent remote clients grows from 1 to N, against an
// 8-series catalog over loopback.
//
// Each simulated client is one TCP connection pipelining `batch`
// by-reference queries (the remote-bench shape): requests are a few bytes
// on the wire and the server extracts the query window from the series it
// already holds. The same total work is replayed at every client count,
// so the table isolates connection fan-in + response streaming overhead
// from query execution cost (compare bench_service_throughput, which
// drives the QueryService in-process).
//
// With --shards N the same catalog is instead hash-partitioned across
// 1/2/.../N in-process shard servers behind a scatter-gather
// coordinator, and a fixed client pool replays the identical workload
// through it — the table shows how federated QPS scales with shard
// count (overhead of the extra hop included).
//
// With --idle-connections N the bench instead measures C10k behavior:
// N idle frame connections are parked against one server (held by forked
// helper processes so the bench side's fd budget never caps the sweep)
// while a single active client runs its queries — the table reports the
// active client's p99, the server process's RSS, fd count and thread
// count at N = 100 / 1000 / ... / N. The thread count staying flat as N
// grows is the point of the epoll reactor: connections cost one fd and
// one registration, not two threads.
//
// In every mode a failed query makes the bench exit non-zero.
//
//   ./bench_net_throughput [--n <total points>] [--runs <batch mult>]
//                          [--seed <s>] [--quick] [--shards N]
//                          [--idle-connections N] [--json OUT]
#include "bench_common.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

#include "coord/coord_server.h"
#include "coord/shard_map.h"
#include "net/client.h"
#include "net/server.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"

using namespace kvmatch;

namespace {

/// One self-contained shard process-in-miniature: its own store,
/// catalog, service and wire server on an ephemeral loopback port.
struct ShardStack {
  MemKvStore store;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
};

constexpr size_t kSeries = 8;
constexpr size_t kQueryLen = 256;

/// Points per series: --n (400k by default, 100k with --quick) over
/// kSeries series.
size_t PerSeries(const BenchFlags& flags) {
  const size_t total =
      flags.quick ? 100'000 : flags.n == 2'000'000 ? 400'000 : flags.n;
  return total / kSeries;
}

/// Ingests series "bench<i>", i < kSeries, each into `catalog_of(name)`.
/// False, after saying so, when an ingest fails.
template <typename CatalogOf>
bool IngestSeries(const BenchFlags& flags, CatalogOf catalog_of) {
  for (size_t i = 0; i < kSeries; ++i) {
    const std::string name = "bench" + std::to_string(i);
    Rng rng(flags.seed + i);
    if (!catalog_of(name)
             ->Ingest(name, GenerateUcrLike(PerSeries(flags), &rng))
             .ok()) {
      std::fprintf(stderr, "ingest failed\n");
      return false;
    }
  }
  return true;
}

/// Query `j` of a run, by reference (the remote-bench shape): RSM-ED and
/// cNSM-ED in turn, over the series in turn.
net::WireQueryRequest BenchQuery(const BenchFlags& flags, size_t j) {
  net::WireQueryRequest wire;
  wire.request.series = "bench" + std::to_string(j % kSeries);
  wire.request.params = {j % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd,
                         3.0, 1.5, 3.0, 0};
  wire.by_reference = true;
  wire.ref_length = kQueryLen;
  wire.ref_offset = (flags.seed + 1237 * j) % (PerSeries(flags) - kQueryLen);
  return wire;
}

/// `clients` connections to `port`, each pipelining its `batch` queries
/// and then collecting the answers; each answer's server-side latency goes
/// to `latency` when it is set. Returns the number of failed queries.
size_t RunClients(const BenchFlags& flags, int port, size_t clients,
                  size_t batch, LatencyHistogram* latency) {
  std::vector<std::thread> threads;
  std::vector<size_t> errors(clients, 0);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        errors[c] = batch;
        return;
      }
      std::vector<uint64_t> ids;
      for (size_t i = 0; i < batch; ++i) {
        auto id = (*client)->SendRequest(BenchQuery(flags, c * batch + i));
        if (!id.ok()) {
          errors[c] += batch - i;
          break;
        }
        ids.push_back(*id);
      }
      for (uint64_t id : ids) {
        auto response = (*client)->WaitResponse(id);
        if (!response.ok() || !response->status.ok()) {
          errors[c] += 1;
        } else if (latency != nullptr) {
          latency->Record(response->latency_ms);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  size_t failed = 0;
  for (size_t e : errors) failed += e;
  return failed;
}

int RunShardScaling(const BenchFlags& flags, size_t max_shards) {
  const size_t batch =
      flags.quick ? 16 : 32 * static_cast<size_t>(std::max(1, flags.runs));
  const size_t clients = 4;

  std::printf("federated net throughput: %zu series x %zu points, "
              "|Q|=%zu, %zu clients x %zu queries, scatter-gather over "
              "loopback shards\n\n",
              kSeries, PerSeries(flags), kQueryLen, clients, batch);

  TablePrinter table(
      {"Shards", "Queries", "Seconds", "QPS", "Speedup", "p99 (ms)"});
  double baseline_seconds = 0.0;
  bool any_failed = false;
  for (size_t num_shards : {1u, 2u, 4u}) {
    if (num_shards > max_shards) break;

    // Shards first (ephemeral ports), then the map from their ports.
    std::vector<std::unique_ptr<ShardStack>> shards;
    std::vector<coord::ShardEndpoint> endpoints;
    for (size_t s = 0; s < num_shards; ++s) {
      auto stack = std::make_unique<ShardStack>();
      stack->catalog = std::make_unique<Catalog>(&stack->store);
      stack->service = std::make_unique<QueryService>(
          stack->catalog.get(),
          QueryService::Options{.num_threads = 4, .max_queue = 4096});
      net::Server::Options sopts;
      sopts.port = 0;
      stack->server = std::make_unique<net::Server>(
          stack->catalog.get(), stack->service.get(), sopts);
      if (Status st = stack->server->Start(); !st.ok()) {
        std::fprintf(stderr, "shard %zu: %s\n", s, st.ToString().c_str());
        return 1;
      }
      endpoints.push_back(
          coord::ShardEndpoint{"127.0.0.1", stack->server->port()});
      shards.push_back(std::move(stack));
    }
    auto map = coord::ShardMap::FromEndpoints(endpoints);
    if (!map.ok()) {
      std::fprintf(stderr, "map: %s\n", map.status().ToString().c_str());
      return 1;
    }

    // Hash-partitioned ingest: each series lands on its owner only.
    if (!IngestSeries(flags, [&](const std::string& name) {
          return shards[map->OwnerOf(name)]->catalog.get();
        })) {
      return 1;
    }

    coord::CoordServer::CoordOptions copts;
    copts.server.port = 0;
    copts.num_threads = 2 * clients;
    copts.coord.verify_shard_identity = false;  // ephemeral shard ports
    coord::CoordServer coordinator(std::move(*map), copts);
    if (Status st = coordinator.Start(); !st.ok()) {
      std::fprintf(stderr, "coord: %s\n", st.ToString().c_str());
      return 1;
    }

    Stopwatch sw;
    const size_t failed =
        RunClients(flags, coordinator.port(), clients, batch, nullptr);
    const double seconds = sw.Seconds();
    if (num_shards == 1) baseline_seconds = seconds;
    const size_t total = clients * batch - failed;
    const ServiceStatsSnapshot snap =
        coordinator.stats_registry()->Snapshot();
    table.AddRow(
        {TablePrinter::FmtInt(num_shards), TablePrinter::FmtInt(total),
         TablePrinter::Fmt(seconds, 2),
         TablePrinter::Fmt(static_cast<double>(total) / seconds, 1),
         TablePrinter::Fmt(
             baseline_seconds > 0.0 ? baseline_seconds / seconds : 0.0, 2),
         TablePrinter::Fmt(
             Summarize(snap.Histogram(Metric::kQueryLatency)).p99_ms, 2)});
    if (failed > 0) {
      std::fprintf(stderr, "error: %zu queries failed at %zu shards\n",
                   failed, num_shards);
      any_failed = true;
    }
    coordinator.Stop();
    for (auto& stack : shards) stack->server->Stop();
  }
  table.Print();
  const bool written = WriteJson(flags, {{"shard scaling", &table}});
  return written && !any_failed ? 0 : 1;
}

// ------------------------------------------------- idle-connection sweep

/// "VmRSS:", "Threads:", ... from /proc/self/status (Linux). 0 if absent.
size_t ReadProcStatus(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t value = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

size_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count > 0 ? count - 1 : 0;  // exclude the dirfd itself
}

/// Child-process body after fork: park `count` idle connections against
/// the server, report readiness, hold until the parent says stop. The
/// parent is multithreaded, so the child sticks to raw syscalls — no
/// stdio, no allocation (either could deadlock on a lock some other
/// parent thread held at fork time).
[[noreturn]] void HoldIdleConnections(int port, size_t count, int ready_fd,
                                      int stop_fd) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) _exit(2);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      _exit(3);
    }
    // Pace the storm: keep the aggregate in-flight connect count under
    // the server's listen backlog so no SYN hits a retransmit timeout.
    if (i % 64 == 63) ::usleep(2000);
  }
  char byte = 1;
  if (::write(ready_fd, &byte, 1) != 1) _exit(4);
  (void)!::read(stop_fd, &byte, 1);  // parked until the parent signals
  _exit(0);                          // kernel closes every held socket
}

int RunIdleConnections(const BenchFlags& flags, size_t max_idle) {
  // Each forked holder owns at most this many sockets, comfortably under
  // typical fd limits even before the setrlimit below.
  constexpr size_t kConnsPerChild = 4000;
  // The server side needs one fd per idle connection plus headroom;
  // raise the soft limit to the hard cap up front.
  struct rlimit lim = {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
  if (lim.rlim_max != RLIM_INFINITY &&
      max_idle + 200 > static_cast<size_t>(lim.rlim_max)) {
    std::fprintf(stderr,
                 "warning: fd hard limit %llu caps the sweep below "
                 "--idle-connections %zu\n",
                 static_cast<unsigned long long>(lim.rlim_max), max_idle);
  }

  const size_t queries =
      flags.quick ? 48 : 64 * static_cast<size_t>(std::max(1, flags.runs));
  MemKvStore store;
  Catalog catalog(&store);
  if (!IngestSeries(flags, [&](const std::string&) { return &catalog; })) {
    return 1;
  }
  QueryService service(&catalog, {.num_threads = 4, .max_queue = 4096});
  net::Server::Options nopts;
  nopts.port = 0;
  nopts.max_connections = max_idle + 64;
  net::Server server(&catalog, &service, nopts);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("idle-connection scaling: %zu series x %zu points, |Q|=%zu, "
              "%zu active queries per row, idle holders in forked "
              "processes\n\n",
              kSeries, PerSeries(flags), kQueryLen, queries);

  std::vector<size_t> sweep;
  for (size_t n : {size_t{100}, size_t{1000}, size_t{10000}}) {
    if (n <= max_idle) sweep.push_back(n);
  }
  if (sweep.empty() || sweep.back() != max_idle) sweep.push_back(max_idle);

  TablePrinter table({"Idle conns", "Queries", "p99 (ms)", "mean (ms)",
                      "QPS", "RSS (MB)", "FDs", "Threads"});
  bool any_failed = false;
  for (size_t idle : sweep) {
    // Spawn the holders and wait until every idle connection is up.
    int ready_pipe[2], stop_pipe[2];
    if (::pipe(ready_pipe) != 0 || ::pipe(stop_pipe) != 0) {
      std::fprintf(stderr, "pipe failed\n");
      return 1;
    }
    std::vector<pid_t> children;
    size_t remaining = idle;
    while (remaining > 0) {
      const size_t batch = std::min(remaining, kConnsPerChild);
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::fprintf(stderr, "fork failed\n");
        return 1;
      }
      if (pid == 0) {
        ::close(ready_pipe[0]);
        ::close(stop_pipe[1]);
        HoldIdleConnections(server.port(), batch, ready_pipe[1],
                            stop_pipe[0]);
      }
      children.push_back(pid);
      remaining -= batch;
    }
    ::close(ready_pipe[1]);
    ::close(stop_pipe[0]);
    for (size_t c = 0; c < children.size(); ++c) {
      char byte = 0;
      if (::read(ready_pipe[0], &byte, 1) != 1) {
        std::fprintf(stderr, "idle holder died before connecting %zu\n",
                     idle);
        return 1;
      }
    }

    // One active client measured against the parked fleet.
    auto client = net::Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    std::vector<double> latencies;
    latencies.reserve(queries);
    size_t failed = 0;
    Stopwatch total;
    for (size_t i = 0; i < queries; ++i) {
      Stopwatch sw;
      auto id = (*client)->SendRequest(BenchQuery(flags, i));
      if (!id.ok()) {
        failed += 1;
        continue;
      }
      auto response = (*client)->WaitResponse(*id);
      if (!response.ok() || !response->status.ok()) {
        failed += 1;
        continue;
      }
      latencies.push_back(sw.Ms());
    }
    const double seconds = total.Seconds();
    std::sort(latencies.begin(), latencies.end());
    double mean = 0.0;
    for (double v : latencies) mean += v;
    if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
    const double p99 =
        latencies.empty()
            ? 0.0
            : latencies[std::min(latencies.size() - 1,
                                 latencies.size() * 99 / 100)];

    const double qps =
        seconds > 0.0 ? static_cast<double>(latencies.size()) / seconds : 0.0;
    table.AddRow({TablePrinter::FmtInt(idle),
                  TablePrinter::FmtInt(latencies.size()),
                  TablePrinter::Fmt(p99, 2), TablePrinter::Fmt(mean, 2),
                  TablePrinter::Fmt(qps, 1),
                  TablePrinter::Fmt(
                      static_cast<double>(ReadProcStatus("VmRSS:")) / 1024.0,
                      1),
                  TablePrinter::FmtInt(CountOpenFds()),
                  TablePrinter::FmtInt(ReadProcStatus("Threads:"))});
    if (failed > 0) {
      std::fprintf(stderr, "error: %zu queries failed at %zu idle\n",
                   failed, idle);
      any_failed = true;
    }

    // Release the fleet and reap.
    ::close(stop_pipe[1]);  // EOF wakes every holder's read()
    ::close(ready_pipe[0]);
    for (pid_t pid : children) {
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
    // Let the server observe the disconnects before the next row.
    for (int spin = 0; spin < 200 && server.ActiveConnections() > 1;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  table.Print();
  server.Stop();
  const bool written = WriteJson(flags, {{"idle connections", &table}});
  return written && !any_failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t shards = 0;
  size_t idle = 0;
  const BenchFlags flags = BenchFlags::Parse(
      argc, argv, {{"--shards", &shards}, {"--idle-connections", &idle}});
  if (idle > 0) return RunIdleConnections(flags, idle);
  if (shards > 0) return RunShardScaling(flags, shards);
  const size_t batch =
      flags.quick ? 16 : 32 * static_cast<size_t>(std::max(1, flags.runs));
  std::printf("net throughput: %zu series x %zu points, |Q|=%zu, "
              "batch=%zu per client, loopback TCP\n\n",
              kSeries, PerSeries(flags), kQueryLen, batch);

  MemKvStore store;
  {
    Catalog ingest_catalog(&store);
    Stopwatch sw;
    if (!IngestSeries(flags,
                      [&](const std::string&) { return &ingest_catalog; })) {
      return 1;
    }
    std::printf("ingest: %.2fs\n\n", sw.Seconds());
  }

  Catalog catalog(&store);
  QueryService service(&catalog, {.num_threads = 4, .max_queue = 4096});
  net::Server::Options nopts;
  nopts.port = 0;
  net::Server server(&catalog, &service, nopts);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }

  TablePrinter table(
      {"Clients", "Queries", "Seconds", "QPS", "Speedup", "p99 (ms)"});
  double baseline_seconds = 0.0;
  bool any_failed = false;
  for (size_t clients : {1u, 2u, 4u, 8u}) {
    LatencyHistogram latency;  // server-side, this client count only
    Stopwatch sw;
    const size_t failed =
        RunClients(flags, server.port(), clients, batch, &latency);
    const double seconds = sw.Seconds();
    if (clients == 1) baseline_seconds = seconds;
    const size_t total = clients * batch - failed;
    table.AddRow({TablePrinter::FmtInt(clients), TablePrinter::FmtInt(total),
                  TablePrinter::Fmt(seconds, 2),
                  TablePrinter::Fmt(static_cast<double>(total) / seconds, 1),
                  TablePrinter::Fmt(
                      baseline_seconds > 0.0
                          ? (baseline_seconds * static_cast<double>(clients)) /
                                seconds
                          : 0.0,
                      2),
                  TablePrinter::Fmt(latency.TakeSnapshot().Percentile(0.99),
                                    2)});
    if (failed > 0) {
      std::fprintf(stderr, "error: %zu queries failed at %zu clients\n",
                   failed, clients);
      any_failed = true;
    }
  }
  table.Print();
  server.Stop();
  const bool written = WriteJson(flags, {{"client scaling", &table}});
  return written && !any_failed ? 0 : 1;
}
