// Tests for the network front-end: protocol framing round-trips and
// rejection of damaged frames, and a loopback server driven by concurrent
// pipelined clients that must return exactly the serial in-process
// results. The damaged-frame tests speak raw bytes on purpose — they
// assert the server survives input no well-behaved client would send.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <regex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/event_log.h"
#include "common/rng.h"
#include "latched_kvstore.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/transport.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace net {
namespace {

// Teardown-time bounds are drain budget + one reactor tick. Sanitizer
// builds run several times slower, so there the bound gets a wider
// margin; Release keeps the tight one.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVMATCH_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVMATCH_TEST_SANITIZED 1
#endif
#endif
#ifdef KVMATCH_TEST_SANITIZED
constexpr double kTeardownSlackMs = 2000.0;
#else
constexpr double kTeardownSlackMs = 0.0;
#endif

// ---------------------------------------------------------------- protocol

Frame RoundTrip(const Frame& in) {
  std::string wire;
  EncodeFrame(in, &wire);
  FrameDecoder decoder;
  // Feed byte-by-byte: a complete frame must assemble from any chunking.
  Frame out;
  Status error;
  for (char c : wire) {
    EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Event::kNeedMore);
    decoder.Feed(std::string_view(&c, 1));
  }
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Event::kFrame)
      << error.ToString();
  return out;
}

TEST(ProtocolTest, FrameRoundTripsForEveryType) {
  for (FrameType type :
       {FrameType::kQueryRequest, FrameType::kQueryResponse,
        FrameType::kError, FrameType::kStatsRequest,
        FrameType::kStatsResponse, FrameType::kListRequest,
        FrameType::kListResponse, FrameType::kPing, FrameType::kPong,
        FrameType::kCreateRequest, FrameType::kAppendRequest,
        FrameType::kDropRequest, FrameType::kIngestResponse,
        FrameType::kCancel, FrameType::kMatchResponsePart}) {
    Frame in;
    in.type = type;
    in.request_id = 0xdeadbeefcafeull + static_cast<uint64_t>(type);
    in.body = "body-" + std::to_string(static_cast<int>(type));
    const Frame out = RoundTrip(in);
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_EQ(out.body, in.body);
  }
}

TEST(ProtocolTest, QueryRequestRoundTripsLiteralAndReference) {
  const QueryType kTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                              QueryType::kCnsmEd, QueryType::kCnsmDtw,
                              QueryType::kRsmL1};
  for (QueryType type : kTypes) {
    WireQueryRequest in;
    in.request.series = "sensor-7";
    in.request.params.type = type;
    in.request.params.epsilon = 2.25;
    in.request.params.alpha = 1.5;
    in.request.params.beta = 3.0;
    in.request.params.rho = 11;
    in.request.top_k = 5;
    in.request.topk_options.exclusion_zone = 32;
    in.request.timeout_ms = 125.5;
    in.request.query = {1.0, -2.5, 3.75, 0.0, 1e-9};

    std::string body;
    EncodeQueryRequestBody(in, &body);
    WireQueryRequest out;
    ASSERT_TRUE(DecodeQueryRequestBody(body, &out).ok());
    EXPECT_EQ(out.request.series, in.request.series);
    EXPECT_EQ(out.request.params.type, type);
    EXPECT_EQ(out.request.params.epsilon, in.request.params.epsilon);
    EXPECT_EQ(out.request.params.alpha, in.request.params.alpha);
    EXPECT_EQ(out.request.params.beta, in.request.params.beta);
    EXPECT_EQ(out.request.params.rho, in.request.params.rho);
    EXPECT_EQ(out.request.top_k, in.request.top_k);
    EXPECT_EQ(out.request.topk_options.exclusion_zone,
              in.request.topk_options.exclusion_zone);
    EXPECT_EQ(out.request.timeout_ms, in.request.timeout_ms);
    EXPECT_EQ(out.request.query, in.request.query);
    EXPECT_FALSE(out.by_reference);

    in.by_reference = true;
    in.ref_offset = 12345;
    in.ref_length = 256;
    in.request.query.clear();
    body.clear();
    EncodeQueryRequestBody(in, &body);
    ASSERT_TRUE(DecodeQueryRequestBody(body, &out).ok());
    EXPECT_TRUE(out.by_reference);
    EXPECT_EQ(out.ref_offset, 12345u);
    EXPECT_EQ(out.ref_length, 256u);
  }
}

// An in-process QueryRequest::reference travels as the by-reference wire
// form, not as an empty literal query.
TEST(ProtocolTest, InProcessReferenceTravelsByReference) {
  WireQueryRequest in;
  in.request.series = "s0";
  in.request.reference = QueryRequest::Window{700, 128};
  std::string body;
  EncodeQueryRequestBody(in, &body);
  WireQueryRequest out;
  ASSERT_TRUE(DecodeQueryRequestBody(body, &out).ok());
  EXPECT_TRUE(out.by_reference);
  EXPECT_EQ(out.ref_offset, 700u);
  EXPECT_EQ(out.ref_length, 128u);
  EXPECT_TRUE(out.request.query.empty());

  // The wire fields win when both are set.
  in.by_reference = true;
  in.ref_offset = 5;
  in.ref_length = 64;
  body.clear();
  EncodeQueryRequestBody(in, &body);
  ASSERT_TRUE(DecodeQueryRequestBody(body, &out).ok());
  EXPECT_EQ(out.ref_offset, 5u);
  EXPECT_EQ(out.ref_length, 64u);
}

TEST(ProtocolTest, QueryResponseRoundTrips) {
  QueryResponse in;
  in.status = Status::OK();
  in.latency_ms = 12.75;
  in.matches = {{100, 1.5}, {2048, 2.25}, {999999, 0.0}};
  in.stats.probe.index_accesses = 7;
  in.stats.probe.rows_fetched = 21;
  in.stats.probe.cache_hits = 4;
  in.stats.candidate_positions = 900;
  in.stats.candidate_intervals = 33;
  in.stats.distance_calls = 12;
  in.stats.lb_pruned = 888;
  in.stats.constraint_pruned = 5;
  in.stats.phase1_ms = 1.25;
  in.stats.phase2_ms = 11.5;

  std::string body;
  EncodeQueryResponseBody(in, &body);
  QueryResponse out;
  ASSERT_TRUE(DecodeQueryResponseBody(body, &out).ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.latency_ms, in.latency_ms);
  EXPECT_EQ(out.matches, in.matches);
  EXPECT_EQ(out.stats.probe.index_accesses, 7u);
  EXPECT_EQ(out.stats.probe.rows_fetched, 21u);
  EXPECT_EQ(out.stats.probe.cache_hits, 4u);
  EXPECT_EQ(out.stats.candidate_positions, 900u);
  EXPECT_EQ(out.stats.candidate_intervals, 33u);
  EXPECT_EQ(out.stats.distance_calls, 12u);
  EXPECT_EQ(out.stats.lb_pruned, 888u);
  EXPECT_EQ(out.stats.constraint_pruned, 5u);
  EXPECT_EQ(out.stats.phase1_ms, 1.25);
  EXPECT_EQ(out.stats.phase2_ms, 11.5);
}

TEST(ProtocolTest, ErrorBodyCarriesEveryStatusCode) {
  const Status statuses[] = {
      Status::NotFound("x"),          Status::InvalidArgument("y"),
      Status::IOError("z"),           Status::Corruption("c"),
      Status::NotSupported("n"),      Status::OutOfRange("o"),
      Status::Internal("i"),          Status::ResourceExhausted("shed"),
      Status::DeadlineExceeded("late"), Status::Cancelled("aborted")};
  for (const Status& in : statuses) {
    std::string body;
    EncodeErrorBody(in, &body);
    Status out;
    ASSERT_TRUE(DecodeErrorBody(body, &out).ok());
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
}

TEST(ProtocolTest, ListResponseRoundTrips) {
  const std::vector<SeriesInfo> in = {{"a", 100}, {"bench3", 1u << 20}};
  std::string body;
  EncodeListResponseBody(in, &body);
  std::vector<SeriesInfo> out;
  ASSERT_TRUE(DecodeListResponseBody(body, &out).ok());
  EXPECT_EQ(out, in);
}

TEST(ProtocolTest, IngestBodiesRoundTrip) {
  WireIngestRequest in;
  in.series = "sensor-9";
  in.values = {0.5, -1.25, 3.0, 1e-12};
  std::string body;
  EncodeIngestRequestBody(in, &body);
  WireIngestRequest out;
  ASSERT_TRUE(DecodeIngestRequestBody(body, &out).ok());
  EXPECT_EQ(out, in);

  // Empty values (the DROP shape) round-trips too.
  in.values.clear();
  body.clear();
  EncodeIngestRequestBody(in, &body);
  ASSERT_TRUE(DecodeIngestRequestBody(body, &out).ok());
  EXPECT_EQ(out, in);

  IngestAck ack_in{42, 123456};
  body.clear();
  EncodeIngestResponseBody(ack_in, &body);
  IngestAck ack_out;
  ASSERT_TRUE(DecodeIngestResponseBody(body, &ack_out).ok());
  EXPECT_EQ(ack_out, ack_in);

  // A value count that disagrees with the body size is rejected before
  // any allocation.
  body.clear();
  EncodeIngestRequestBody(in, &body);
  body.back() = '\x7f';  // corrupt the count varint
  EXPECT_FALSE(DecodeIngestRequestBody(body, &out).ok());
  EXPECT_FALSE(DecodeIngestRequestBody("", &out).ok());
  EXPECT_FALSE(DecodeIngestResponseBody("", &ack_out).ok());
}

TEST(ProtocolTest, MatchPartBodyRoundTripsAndAppends) {
  const std::vector<MatchResult> first = {{10, 0.5}, {999, 1.25}};
  const std::vector<MatchResult> second = {{123456789, 2.0}};
  std::string body;
  EncodeMatchPartBody(first, &body);
  std::vector<MatchResult> out;
  ASSERT_TRUE(DecodeMatchPartBody(body, &out).ok());
  EXPECT_EQ(out, first);
  // Decoding appends: a second part extends the reassembly buffer.
  body.clear();
  EncodeMatchPartBody(second, &body);
  ASSERT_TRUE(DecodeMatchPartBody(body, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], second[0]);

  // An empty part is legal; a count the body cannot hold is rejected
  // before any allocation.
  body.clear();
  EncodeMatchPartBody({}, &body);
  std::vector<MatchResult> empty_out;
  ASSERT_TRUE(DecodeMatchPartBody(body, &empty_out).ok());
  EXPECT_TRUE(empty_out.empty());
  std::string bogus;
  PutVarint64(&bogus, 1u << 30);
  EXPECT_FALSE(DecodeMatchPartBody(bogus, &empty_out).ok());
  EXPECT_FALSE(DecodeMatchPartBody("\xff", &empty_out).ok());
}

TEST(ProtocolTest, OversizedDeclaredLengthIsFatal) {
  std::string wire;
  PutFixed32(&wire, static_cast<uint32_t>(kMaxPayloadBytes + 1));
  PutFixed32(&wire, 0);  // CRC never inspected: length check comes first
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Event::kFatal);
  EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
  // The stream stays dead even if more valid bytes arrive.
  Frame good;
  good.type = FrameType::kPing;
  std::string more;
  EncodeFrame(good, &more);
  decoder.Feed(more);
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Event::kFatal);
}

TEST(ProtocolTest, CorruptCrcConsumesFrameAndStreamRecovers) {
  Frame first;
  first.type = FrameType::kPing;
  first.request_id = 1;
  Frame second;
  second.type = FrameType::kPong;
  second.request_id = 2;

  std::string wire;
  EncodeFrame(first, &wire);
  wire[kFrameHeaderBytes + 3] ^= 0x40;  // flip a payload bit in frame 1
  EncodeFrame(second, &wire);

  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Event::kBadFrame);
  EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  // The damaged frame was consumed; the next one decodes normally.
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Event::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 2u);
}

TEST(ProtocolTest, PayloadShorterThanPrologueIsBadFrame) {
  const std::string payload = "abc";  // valid CRC, but < type + request id
  std::string wire;
  PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
  PutFixed32(&wire, crc32c::Mask(crc32c::Value(payload)));
  wire += payload;
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Event::kBadFrame);
  EXPECT_TRUE(error.IsCorruption());
}

TEST(ProtocolTest, MalformedBodiesAreRejected) {
  WireQueryRequest request_out;
  EXPECT_FALSE(DecodeQueryRequestBody("garbage", &request_out).ok());
  QueryResponse response_out;
  EXPECT_FALSE(DecodeQueryResponseBody("\x01\x02", &response_out).ok());
  // A match count promising more entries than the body can hold must be
  // rejected before any allocation happens.
  std::string body;
  EncodeErrorBody(Status::OK(), &body);  // code 0 + empty message
  PutDouble(&body, 0.0);                 // latency
  PutVarint64(&body, 1u << 30);          // absurd match count
  EXPECT_FALSE(DecodeQueryResponseBody(body, &response_out).ok());
}

TEST(ProtocolTest, QueryValueCountOverflowIsRejected) {
  // count * 8 wraps back onto the actual body size for count = 2^61 + 1
  // with 8 trailing bytes; the decoder must reject it instead of
  // attempting a multi-exabyte allocation.
  WireQueryRequest req;
  req.request.series = "s";
  std::string body;
  EncodeQueryRequestBody(req, &body);  // empty literal query: count byte 0
  body.pop_back();                     // strip the zero-count varint
  PutVarint64(&body, (1ull << 61) + 1);
  body.append(8, '\0');
  WireQueryRequest out;
  EXPECT_FALSE(DecodeQueryRequestBody(body, &out).ok());
}

// Seeded byte-level fuzzing of the incremental decoder: random flips,
// truncations, garbage insertions and splices of valid frames, fed in
// random-sized chunks, must never crash, hang, or surface a frame whose
// canonical encoding is not one of the originals (the CRC must catch
// every mutation that reaches a frame boundary). Runs under ASan in CI;
// ctest label: fuzzish.
TEST(ProtocolTest, DecoderSurvivesRandomMutationsWithoutAcceptingGarbage) {
  // A pool of valid frames of every shape and a few sizes.
  std::vector<std::string> pool;
  {
    Rng rng(20260701);
    for (int i = 0; i < 18; ++i) {
      Frame frame;
      frame.request_id = rng.Next();
      switch (i % 6) {
        case 0: {
          frame.type = FrameType::kQueryRequest;
          WireQueryRequest req;
          req.request.series = "series" + std::to_string(i);
          for (int k = 0; k < 8 * (i + 1); ++k) {
            req.request.query.push_back(static_cast<double>(rng.Next()) /
                                        1e9);
          }
          EncodeQueryRequestBody(req, &frame.body);
          break;
        }
        case 1: {
          frame.type = FrameType::kError;
          EncodeErrorBody(Status::NotFound("nope"), &frame.body);
          break;
        }
        case 2: {
          frame.type = FrameType::kAppendRequest;
          WireIngestRequest req;
          req.series = "s";
          for (int k = 0; k < 16 * (i + 1); ++k) {
            req.values.push_back(static_cast<double>(k));
          }
          EncodeIngestRequestBody(req, &frame.body);
          break;
        }
        case 3: {
          frame.type = FrameType::kMatchResponsePart;
          std::vector<MatchResult> matches;
          for (int k = 0; k < 12 * (i + 1); ++k) {
            matches.push_back({static_cast<size_t>(rng.Next() % 100000),
                               static_cast<double>(k) * 0.25});
          }
          EncodeMatchPartBody(matches, &frame.body);
          break;
        }
        case 4:
          frame.type = FrameType::kCancel;  // empty body
          break;
        default:
          frame.type = FrameType::kPing;
          break;
      }
      std::string wire;
      EncodeFrame(frame, &wire);
      pool.push_back(std::move(wire));
    }
  }

  Rng rng(987654321);
  auto random_byte = [&rng] {
    return static_cast<char>(rng.UniformInt(0, 255));
  };
  size_t frames_accepted = 0, frames_rejected = 0;

  for (int trial = 0; trial < 400; ++trial) {
    // A stream of 1-4 frames from the pool...
    std::string stream;
    const int64_t count = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < count; ++i) {
      stream += pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    }
    // ...damaged by 1-4 random mutations.
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations && !stream.empty(); ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:  // flip one byte
          stream[pos] = static_cast<char>(stream[pos] ^
                                          (1 << rng.UniformInt(0, 7)));
          break;
        case 1:  // truncate
          stream.resize(pos);
          break;
        case 2: {  // insert garbage
          std::string junk;
          for (int64_t k = rng.UniformInt(1, 24); k > 0; --k) {
            junk.push_back(random_byte());
          }
          stream.insert(pos, junk);
          break;
        }
        default: {  // splice: overwrite with a slice of another frame
          const std::string& donor = pool[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
          const size_t n = std::min<size_t>(
              donor.size(), static_cast<size_t>(rng.UniformInt(1, 32)));
          stream.replace(pos, std::min(n, stream.size() - pos),
                         donor.substr(0, n));
          break;
        }
      }
    }

    // Feed in random-sized chunks, draining after each feed. Cap the
    // event count: the decoder must always make progress (consume bytes
    // or report kNeedMore/kFatal), so a spin here is a hang bug.
    FrameDecoder decoder;
    size_t fed = 0;
    size_t events = 0;
    const size_t event_cap = 16 * (stream.size() + 16);
    bool fatal = false;
    while (fed < stream.size() && !fatal) {
      const size_t n = std::min<size_t>(
          stream.size() - fed, static_cast<size_t>(rng.UniformInt(1, 64)));
      decoder.Feed(std::string_view(stream).substr(fed, n));
      fed += n;
      for (;;) {
        ASSERT_LT(++events, event_cap) << "decoder spun without progress";
        Frame out;
        Status error;
        const FrameDecoder::Event event = decoder.Next(&out, &error);
        if (event == FrameDecoder::Event::kNeedMore) break;
        if (event == FrameDecoder::Event::kFatal) {
          fatal = true;
          break;
        }
        if (event == FrameDecoder::Event::kBadFrame) {
          ++frames_rejected;
          EXPECT_FALSE(error.ok());
          continue;
        }
        ASSERT_EQ(event, FrameDecoder::Event::kFrame);
        // Anything the decoder accepts must be byte-identical to a frame
        // we actually encoded — a corrupt frame slipping through means
        // the CRC or length checks have a hole.
        std::string reencoded;
        EncodeFrame(out, &reencoded);
        bool known = false;
        for (const auto& valid : pool) {
          if (valid == reencoded) {
            known = true;
            break;
          }
        }
        EXPECT_TRUE(known) << "decoder accepted a mutated frame (trial "
                           << trial << ")";
        ++frames_accepted;
      }
    }
  }
  // The fuzz must actually exercise both paths to mean anything.
  EXPECT_GT(frames_accepted, 0u);
  EXPECT_GT(frames_rejected, 0u);
}

// ----------------------------------------------------------------- server

constexpr size_t kNumSeries = 4;
constexpr size_t kSeriesLen = 3000;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

std::string SeriesName(size_t i) { return "s" + std::to_string(i); }

std::vector<TimeSeries> IngestFixture(KvStore* store) {
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog ingest_catalog(store, copts);
  std::vector<TimeSeries> references;
  for (size_t i = 0; i < kNumSeries; ++i) {
    Rng rng(2000 + i);
    TimeSeries x = GenerateSynthetic(kSeriesLen, &rng);
    references.push_back(x);
    EXPECT_TRUE(ingest_catalog.Ingest(SeriesName(i), std::move(x)).ok());
  }
  return references;
}

std::vector<QueryRequest> MakeWorkload(const std::vector<TimeSeries>& refs,
                                       size_t count) {
  const QueryType kTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                              QueryType::kCnsmEd, QueryType::kCnsmDtw,
                              QueryType::kRsmL1};
  Rng rng(55);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    const size_t series = i % refs.size();
    QueryRequest req;
    req.series = SeriesName(series);
    const size_t qlen = 100 + 25 * (i % 4);
    const size_t qoff = (211 * i) % (kSeriesLen - qlen);
    req.query = ExtractQuery(refs[series], qoff, qlen, 0.1, &rng);
    req.params.type = kTypes[i % 5];
    req.params.epsilon = 2.0 + static_cast<double>(i % 3);
    req.params.alpha = 1.5;
    req.params.beta = 3.0;
    req.params.rho = 5;
    if (i % 6 == 2) req.top_k = 4;
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<std::vector<MatchResult>> RunSerial(
    Catalog* catalog, const std::vector<QueryRequest>& requests) {
  std::vector<std::vector<MatchResult>> results;
  for (const auto& req : requests) {
    auto session = catalog->Acquire(req.series);
    EXPECT_TRUE(session.ok());
    auto matches = req.top_k > 0
                       ? (*session)->QueryTopK(req.query, req.params,
                                               req.top_k, req.topk_options)
                       : (*session)->Query(req.query, req.params);
    EXPECT_TRUE(matches.ok());
    results.push_back(std::move(matches).value());
  }
  return results;
}

struct ServerFixture {
  MemKvStore store;
  std::vector<TimeSeries> refs;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  explicit ServerFixture(size_t threads = 4, size_t max_conns = 64,
                         size_t max_queue = 1024,
                         size_t stream_chunk = 2'000'000,
                         double drain_ms = 30'000.0) {
    refs = IngestFixture(&store);
    Catalog::Options copts;
    copts.session = SmallOptions();
    catalog = std::make_unique<Catalog>(&store, copts);
    QueryService::Options sopts;
    sopts.num_threads = threads;
    sopts.max_queue = max_queue;
    service = std::make_unique<QueryService>(catalog.get(), sopts);
    catalog->SetStatsRegistry(service->stats_registry());
    Server::Options nopts;
    nopts.port = 0;  // ephemeral
    nopts.max_connections = max_conns;
    nopts.stream_chunk_matches = stream_chunk;
    nopts.drain_timeout_ms = drain_ms;
    server = std::make_unique<Server>(catalog.get(), service.get(), nopts);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

TEST(NetServerTest, ConcurrentPipelinedClientsMatchSerialExecution) {
  ServerFixture fx(/*threads=*/4);
  const auto requests = MakeWorkload(fx.refs, 32);

  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog serial_catalog(&fx.store, copts);
  const auto expected = RunSerial(&serial_catalog, requests);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", fx.server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      // Pipeline the whole workload, then collect in submission order
      // even though the server streams responses in completion order.
      std::vector<uint64_t> ids;
      for (const auto& req : requests) {
        auto id = (*client)->SendRequest(req);
        if (!id.ok()) {
          failures[c] = id.status().ToString();
          return;
        }
        ids.push_back(*id);
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        auto response = (*client)->WaitResponse(ids[i]);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (!response->status.ok()) {
          failures[c] = response->status.ToString();
          return;
        }
        if (response->matches != expected[i]) {
          failures[c] = "client " + std::to_string(c) + " request " +
                        std::to_string(i) + ": wrong matches";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& failure : failures) EXPECT_EQ(failure, "");

  const ServiceStatsSnapshot snap = fx.service->Stats();
  EXPECT_EQ(snap.Value(Metric::kQueries), kClients * requests.size());
  EXPECT_EQ(snap.Value(Metric::kQueryErrors), 0u);
  EXPECT_EQ(snap.Value(Metric::kConnectionsAccepted), static_cast<uint64_t>(kClients));
}

TEST(NetServerTest, ByReferenceQueryEqualsLiteralQuery) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The same window sent literally (extracted client-side, no noise) and
  // by reference must produce identical matches.
  auto session = fx.catalog->Acquire("s1");
  ASSERT_TRUE(session.ok());
  WireQueryRequest by_ref;
  by_ref.request.series = "s1";
  by_ref.request.params.epsilon = 3.0;
  by_ref.by_reference = true;
  by_ref.ref_offset = 500;
  by_ref.ref_length = 128;
  auto ref_id = (*client)->SendRequest(by_ref);
  ASSERT_TRUE(ref_id.ok());

  QueryRequest literal;
  literal.series = "s1";
  literal.params.epsilon = 3.0;
  const auto span = (*session)->series().Subsequence(500, 128);
  literal.query.assign(span.begin(), span.end());
  auto lit_id = (*client)->SendRequest(literal);
  ASSERT_TRUE(lit_id.ok());

  auto ref_response = (*client)->WaitResponse(*ref_id);
  auto lit_response = (*client)->WaitResponse(*lit_id);
  ASSERT_TRUE(ref_response.ok());
  ASSERT_TRUE(lit_response.ok());
  ASSERT_TRUE(ref_response->status.ok()) << ref_response->status.ToString();
  EXPECT_FALSE(ref_response->matches.empty());  // the window matches itself
  EXPECT_EQ(ref_response->matches, lit_response->matches);

  // Out-of-range references come back as typed InvalidArgument.
  by_ref.ref_offset = kSeriesLen;
  by_ref.ref_length = 128;
  auto bad = (*client)->SendRequest(by_ref);
  ASSERT_TRUE(bad.ok());
  auto bad_response = (*client)->WaitResponse(*bad);
  ASSERT_TRUE(bad_response.ok());
  EXPECT_TRUE(bad_response->status.IsInvalidArgument())
      << bad_response->status.ToString();
}

// A by-reference query is resolved by the worker that runs it, so a cold
// session open never blocks the event loop: while one connection's open
// is stalled in the store, another connection's query on a warm series
// still answers. (When the loop resolved references itself, the stalled
// open held every connection.)
TEST(NetServerTest, ColdOpenDoesNotStallOtherConnections) {
  MemKvStore base;
  IngestFixture(&base);
  LatchedKvStore store(&base);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  QueryService service(&catalog, QueryService::Options{.num_threads = 2});
  Server::Options nopts;
  nopts.port = 0;
  Server server(&catalog, &service, nopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(catalog.Acquire("s0").ok());  // warm
  store.Arm("series/s1/");                  // s1 opens stall

  auto cold = Client::Connect("127.0.0.1", server.port());
  auto warm = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(cold.ok() && warm.ok());
  WireQueryRequest by_ref;
  by_ref.request.series = "s1";
  by_ref.request.params.epsilon = 3.0;
  by_ref.by_reference = true;
  by_ref.ref_offset = 500;
  by_ref.ref_length = 128;
  auto cold_id = (*cold)->SendRequest(by_ref);
  ASSERT_TRUE(cold_id.ok());
  ASSERT_TRUE(store.WaitForStalled(1, 5000.0)) << "s1 open never started";

  by_ref.request.series = "s0";
  (*warm)->set_wait_timeout_ms(5000.0);
  auto warm_id = (*warm)->SendRequest(by_ref);
  ASSERT_TRUE(warm_id.ok());
  auto warm_response = (*warm)->WaitResponse(*warm_id);
  store.Release();
  ASSERT_TRUE(warm_response.ok()) << warm_response.status().ToString();
  ASSERT_TRUE(warm_response->status.ok())
      << warm_response->status.ToString();
  EXPECT_FALSE(warm_response->matches.empty());

  auto cold_response = (*cold)->WaitResponse(*cold_id);
  ASSERT_TRUE(cold_response.ok()) << cold_response.status().ToString();
  ASSERT_TRUE(cold_response->status.ok())
      << cold_response->status.ToString();
  EXPECT_FALSE(cold_response->matches.empty());

  // The out-of-range text is the one the loop thread used to send.
  by_ref.ref_offset = kSeriesLen;
  auto bad_id = (*warm)->SendRequest(by_ref);
  ASSERT_TRUE(bad_id.ok());
  auto bad = (*warm)->WaitResponse(*bad_id);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->status.IsInvalidArgument());
  EXPECT_NE(bad->status.ToString().find(
                "query reference [3000, +128) is outside 's0'"),
            std::string::npos)
      << bad->status.ToString();
  server.Stop();
}

// STATS and /metrics are answered on the loop thread, so they must never
// wait for a commit: while an append's flush is held in the store, STATS
// and PING on other connections still answer. (When the catalog's gauges
// took the ingest lock, one slow commit stalled the whole reactor.)
TEST(NetServerTest, StatsDoesNotWaitForACommit) {
  MemKvStore base;
  IngestFixture(&base);
  LatchedKvStore store(&base);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  QueryService service(&catalog, QueryService::Options{.num_threads = 2});
  catalog.SetStatsRegistry(service.stats_registry());
  Server::Options nopts;
  nopts.port = 0;
  Server server(&catalog, &service, nopts);
  ASSERT_TRUE(server.Start().ok());

  store.ArmFlush();
  std::thread writer([&catalog] {
    const std::vector<double> tail(256, 1.0);
    EXPECT_TRUE(catalog.AppendSeries("s0", tail).ok());
  });
  ASSERT_TRUE(store.WaitForStalled(1, 5000.0)) << "append never flushed";

  auto stats = Client::Connect("127.0.0.1", server.port());
  auto ping = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(stats.ok() && ping.ok());
  (*stats)->set_wait_timeout_ms(2000.0);
  (*ping)->set_wait_timeout_ms(2000.0);
  auto text = (*stats)->StatsText();
  const Status pong = (*ping)->Ping();
  store.Release();
  writer.join();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("kvmatch_ingest_state_bytes"), std::string::npos);
  EXPECT_TRUE(pong.ok()) << pong.ToString();
  server.Stop();
}

TEST(NetServerTest, TypedErrorsTravelTheWire) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());

  QueryRequest unknown;
  unknown.series = "no-such-series";
  unknown.query.assign(100, 0.0);
  unknown.params.epsilon = 1.0;
  auto response = (*client)->Query(unknown);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsNotFound()) << response->status.ToString();
}

TEST(NetServerTest, WireDeadlineExpiresInQueueAsDeadlineExceeded) {
  ServerFixture fx(/*threads=*/1);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());

  // Occupy the single worker, then pipeline a request whose budget is a
  // nanosecond: it must be shed at dequeue via the QueryService deadline
  // path and come back as a typed DeadlineExceeded, not execute.
  auto requests = MakeWorkload(fx.refs, 2);
  auto busy_id = (*client)->SendRequest(requests[0]);
  ASSERT_TRUE(busy_id.ok());
  requests[1].timeout_ms = 1e-6;
  auto doomed_id = (*client)->SendRequest(requests[1]);
  ASSERT_TRUE(doomed_id.ok());

  auto busy = (*client)->WaitResponse(*busy_id);
  ASSERT_TRUE(busy.ok());
  EXPECT_TRUE(busy->status.ok()) << busy->status.ToString();
  auto doomed = (*client)->WaitResponse(*doomed_id);
  ASSERT_TRUE(doomed.ok());
  EXPECT_TRUE(doomed->status.IsDeadlineExceeded())
      << doomed->status.ToString();
  EXPECT_EQ(fx.service->Stats().Value(Metric::kDeadlineExceeded), 1u);
}

TEST(NetServerTest, ListStatsAndPing) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());

  auto series = (*client)->ListSeries();
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), kNumSeries);
  for (size_t i = 0; i < kNumSeries; ++i) {
    EXPECT_EQ((*series)[i].length, kSeriesLen);
  }

  // Run one query so the dump has a series section, then fetch STATS.
  auto requests = MakeWorkload(fx.refs, 1);
  auto response = (*client)->Query(requests[0]);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());

  auto text = (*client)->StatsText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("kvmatch_queries_total 1"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("kvmatch_connections_open 1"), std::string::npos);
  EXPECT_NE(text->find("kvmatch_series_queries_total{series=\"s0\"} 1"),
            std::string::npos);
  EXPECT_NE(text->find("kvmatch_connection_requests_total{conn=\"1\"} 1"),
            std::string::npos)
      << *text;
}

// A raw socket speaking deliberately damaged bytes; Client would never
// produce these.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      data.remove_prefix(static_cast<size_t>(n));
    }
  }

  /// Blocks until one full frame arrives (or the peer closes).
  bool ReadFrame(Frame* out) {
    char buf[4096];
    for (;;) {
      Status error;
      switch (decoder_.Next(out, &error)) {
        case FrameDecoder::Event::kFrame: return true;
        case FrameDecoder::Event::kNeedMore: break;
        default: return false;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// One plain-HTTP exchange on the server's (frame) port: sends `request`
/// verbatim, reads until the server closes (it answers Connection: close).
std::string RawHttpExchange(int port, std::string_view request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string_view remaining = request;
  while (!remaining.empty()) {
    const ssize_t n =
        ::send(fd, remaining.data(), remaining.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    remaining.remove_prefix(static_cast<size_t>(n));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(NetServerTest, HttpMetricsScrapeOnTheFramePort) {
  ServerFixture fx;
  // The fixture's ingest went through the instrumented store and the
  // registry is attached, so the scrape must carry live storage metrics.
  const std::string resp = RawHttpExchange(
      fx.server->port(),
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nUser-Agent: "
      "Prometheus/2.0\r\nAccept: */*\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  // Storage decorator histograms and counters.
  EXPECT_NE(resp.find("kvmatch_kvstore_ops_total{op=\"put\"}"),
            std::string::npos);
  EXPECT_NE(resp.find("kvmatch_kvstore_put_latency_ms_bucket"),
            std::string::npos);
  EXPECT_NE(resp.find("kvmatch_kvstore_bytes_written_total"),
            std::string::npos);
  // Catalog MVCC gauges.
  EXPECT_NE(resp.find("kvmatch_live_epochs"), std::string::npos);
  EXPECT_NE(resp.find("kvmatch_data_generations"), std::string::npos);
  EXPECT_NE(resp.find("kvmatch_pinned_snapshots"), std::string::npos);
  // The declared length matches the delivered body.
  const size_t cl_at = resp.find("Content-Length: ");
  ASSERT_NE(cl_at, std::string::npos);
  const size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const size_t declared = std::strtoull(
      resp.c_str() + cl_at + std::strlen("Content-Length: "), nullptr, 10);
  EXPECT_EQ(resp.size() - (body_at + 4), declared);
}

TEST(NetServerTest, HttpHealthzNotFoundAndMethodNotAllowed) {
  ServerFixture fx;
  const std::string health =
      RawHttpExchange(fx.server->port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string missing =
      RawHttpExchange(fx.server->port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string post =
      RawHttpExchange(fx.server->port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos);

  // HEAD answers headers only, with the body's true length declared.
  const std::string head =
      RawHttpExchange(fx.server->port(), "HEAD /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(head.find("\r\n\r\nok"), std::string::npos);

  // Binary clients are untouched by HTTP traffic having come and gone.
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());

  // And the scrapes were counted.
  EXPECT_GE(fx.service->Stats().Value(Metric::kHttpRequests), 4u);
}

TEST(NetServerTest, RemoteIngestLifecycleOverTheWire) {
  ServerFixture fx;
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Create + chunked appends, no filesystem access to the store.
  Rng rng(321);
  const TimeSeries full = GenerateSynthetic(2400, &rng);
  const auto& values = full.values();
  auto created = (*client)->CreateSeries(
      "wire", std::span<const double>(values.data(), 1000));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->length, 1000u);
  for (size_t offset = 1000; offset < values.size(); offset += 700) {
    const size_t len = std::min<size_t>(700, values.size() - offset);
    auto appended = (*client)->AppendSeries(
        "wire", std::span<const double>(values.data() + offset, len));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  }

  // The series is listed, queryable by reference, and identical to the
  // in-process view.
  auto series = (*client)->ListSeries();
  ASSERT_TRUE(series.ok());
  bool listed = false;
  for (const auto& s : *series) {
    if (s.name == "wire") {
      listed = true;
      EXPECT_EQ(s.length, values.size());
    }
  }
  EXPECT_TRUE(listed);

  WireQueryRequest by_ref;
  by_ref.request.series = "wire";
  by_ref.request.params.epsilon = 2.0;
  by_ref.by_reference = true;
  by_ref.ref_offset = 1500;  // crosses the create/append boundary
  by_ref.ref_length = 200;
  auto id = (*client)->SendRequest(by_ref);
  ASSERT_TRUE(id.ok());
  auto response = (*client)->WaitResponse(*id);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  auto local = fx.catalog->Acquire("wire");
  ASSERT_TRUE(local.ok());
  auto expected = (*local)->Query(
      (*local)->series().Subsequence(1500, 200), by_ref.request.params);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(response->matches, *expected);

  // Ingest metrics flow through the STATS frame.
  auto stats = (*client)->StatsText();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("kvmatch_ingest_points_total"), std::string::npos);
  EXPECT_NE(stats->find("kvmatch_series_epoch{series=\"wire\"}"),
            std::string::npos);

  // Error shapes: duplicate create, append to unknown, drop unknown.
  auto dup = (*client)->CreateSeries(
      "wire", std::span<const double>(values.data(), 1000));
  EXPECT_TRUE(dup.status().IsInvalidArgument()) << dup.status().ToString();
  auto missing = (*client)->AppendSeries(
      "nope", std::span<const double>(values.data(), 100));
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_TRUE((*client)->DropSeries("nope").IsNotFound());

  // Drop: subsequent remote queries answer NotFound.
  ASSERT_TRUE((*client)->DropSeries("wire").ok());
  id = (*client)->SendRequest(by_ref);
  ASSERT_TRUE(id.ok());
  response = (*client)->WaitResponse(*id);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.IsNotFound())
      << response->status.ToString();
}

TEST(NetServerTest, RemoteIngestRunsWhileAnotherConnectionQueries) {
  ServerFixture fx;
  std::atomic<bool> done{false};
  std::string reader_failure;
  // Connection A: a steady by-reference query stream over s0.
  std::thread reader([&] {
    auto client = Client::Connect("127.0.0.1", fx.server->port());
    if (!client.ok()) {
      reader_failure = client.status().ToString();
      return;
    }
    WireQueryRequest req;
    req.request.series = "s0";
    req.request.params.epsilon = 3.0;
    req.by_reference = true;
    req.ref_offset = 100;
    req.ref_length = 128;
    while (!done.load(std::memory_order_relaxed)) {
      auto id = (*client)->SendRequest(req);
      if (!id.ok()) {
        reader_failure = id.status().ToString();
        return;
      }
      auto response = (*client)->WaitResponse(*id);
      if (!response.ok() || !response->status.ok()) {
        reader_failure = (response.ok() ? response->status
                                        : response.status())
                             .ToString();
        return;
      }
    }
  });
  // Connection B: creates and repeatedly appends to a separate series.
  auto writer = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(writer.ok());
  Rng rng(555);
  const TimeSeries base = GenerateSynthetic(1200, &rng);
  auto created = (*writer)->CreateSeries("live", base.values());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  uint64_t last_epoch = created->epoch;
  size_t expected_len = base.size();
  for (int i = 0; i < 5; ++i) {
    const TimeSeries ext = GenerateSynthetic(300, &rng);
    auto ack = (*writer)->AppendSeries("live", ext.values());
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    // Epoch numbers are catalog-global; each append advances them.
    EXPECT_GT(ack->epoch, last_epoch);
    last_epoch = ack->epoch;
    expected_len += ext.size();
    EXPECT_EQ(ack->length, expected_len);
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(reader_failure, "");
}

// ------------------------------------------- transport without a catalog

/// A RequestHandler with no Catalog or QueryService behind it: a query's
/// body comes straight back as its response body, and LIST holds its
/// reply on the blocking-work thread until the test opens a latch.
class EchoHandler : public RequestHandler {
 public:
  void HandleQuery(Transport& transport, const ConnectionPtr& conn,
                   uint64_t id, std::string_view body,
                   std::chrono::steady_clock::time_point) override {
    ASSERT_NE(transport.BeginRequest(conn, id), nullptr);
    Frame echo;
    echo.type = FrameType::kQueryResponse;
    echo.request_id = id;
    echo.body = std::string(body);
    std::string wire;
    EncodeFrame(echo, &wire);
    std::vector<std::string> wires;
    wires.push_back(std::move(wire));
    transport.CompleteRequest(conn, id, std::move(wires));
  }
  void HandleIngest(Transport& transport, const ConnectionPtr& conn,
                    FrameType, uint64_t id, std::string_view) override {
    transport.SendError(conn, id, Status::NotSupported("echo handler"));
  }
  void HandleList(Transport& transport, const ConnectionPtr& conn,
                  uint64_t id) override {
    transport.RunBlocking(conn, [this, &transport, conn, id] {
      std::unique_lock<std::mutex> lock(mu_);
      list_held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return latch_open_; });
      std::string body;
      EncodeListResponseBody({}, &body);
      transport.Send(conn, FrameType::kListResponse, id, std::move(body));
    });
  }
  void HandleShardInfo(Transport& transport, const ConnectionPtr& conn,
                       uint64_t id) override {
    transport.SendError(conn, id, Status::NotSupported("echo handler"));
  }
  std::string StatsText(const Transport& transport) const override {
    ServiceStatsSnapshot snap;
    transport.FillConnectionStats(&snap);
    return "echo_handler_up 1\n" + StatsToText(snap);
  }

  void WaitUntilListHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return list_held_; });
  }
  void OpenLatch() {
    std::lock_guard<std::mutex> lock(mu_);
    latch_open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool list_held_ = false;
  bool latch_open_ = false;
};

void SendFrame(RawConnection* raw, FrameType type, uint64_t id,
               std::string body = "") {
  Frame frame;
  frame.type = type;
  frame.request_id = id;
  frame.body = std::move(body);
  std::string wire;
  EncodeFrame(frame, &wire);
  raw->Send(wire);
}

TEST(TransportTest, ServesAFakeHandlerWithoutCatalogOrService) {
  EchoHandler handler;
  StatsRegistry registry;
  Transport transport(Transport::Options{}, &handler, &registry);
  ASSERT_TRUE(transport.Start().ok());
  RawConnection raw(transport.port());
  Frame frame;

  // Request frames reach the handler; its reply is what comes back.
  SendFrame(&raw, FrameType::kQueryRequest, 1, "echo me");
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kQueryResponse);
  EXPECT_EQ(frame.request_id, 1u);
  EXPECT_EQ(frame.body, "echo me");

  // PING is the transport's own; STATS carries the handler's text.
  SendFrame(&raw, FrameType::kPing, 2);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  SendFrame(&raw, FrameType::kStatsRequest, 3);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kStatsResponse);
  EXPECT_EQ(frame.body.find("echo_handler_up 1\n"), 0u) << frame.body;
  EXPECT_NE(frame.body.find("kvmatch_connection_requests_total{conn=\"1\"} 1"),
            std::string::npos)
      << frame.body;

  // RunBlocking: LIST holds this connection's frames behind it, so the
  // PING pipelined after it must wait — while every other connection,
  // plain HTTP included, keeps being served.
  SendFrame(&raw, FrameType::kListRequest, 4);
  SendFrame(&raw, FrameType::kPing, 5);
  handler.WaitUntilListHeld();
  RawConnection other(transport.port());
  SendFrame(&other, FrameType::kPing, 6);
  ASSERT_TRUE(other.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 6u);
  const std::string metrics = RawHttpExchange(
      transport.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("echo_handler_up 1\n"), std::string::npos);

  handler.OpenLatch();
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kListResponse);
  EXPECT_EQ(frame.request_id, 4u);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 5u);
  transport.Stop();
}

TEST(NetServerTest, CorruptFrameYieldsErrorAndConnectionSurvives) {
  ServerFixture fx;
  RawConnection raw(fx.server->port());

  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 42;
  std::string corrupt;
  EncodeFrame(ping, &corrupt);
  corrupt[kFrameHeaderBytes + 2] ^= 0x10;  // damage the payload
  raw.Send(corrupt);

  Frame frame;
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.request_id, 0u);  // not attributable to a request
  Status carried;
  ASSERT_TRUE(DecodeErrorBody(frame.body, &carried).ok());
  EXPECT_TRUE(carried.IsCorruption()) << carried.ToString();

  // Same connection, next frame is healthy: it must still be served.
  std::string good;
  EncodeFrame(ping, &good);
  raw.Send(good);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(fx.service->Stats().Value(Metric::kProtocolErrors), 1u);
}

TEST(NetServerTest, MalformedQueryBodyYieldsErrorAndConnectionSurvives) {
  ServerFixture fx;
  RawConnection raw(fx.server->port());

  Frame bogus;
  bogus.type = FrameType::kQueryRequest;
  bogus.request_id = 7;
  bogus.body = "not a query";  // valid CRC, undecodable body
  std::string wire;
  EncodeFrame(bogus, &wire);
  raw.Send(wire);

  Frame frame;
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.request_id, 7u);  // attributable: CRC was valid
  Status carried;
  ASSERT_TRUE(DecodeErrorBody(frame.body, &carried).ok());
  EXPECT_FALSE(carried.ok());

  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 8;
  wire.clear();
  EncodeFrame(ping, &wire);
  raw.Send(wire);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
}

TEST(NetServerTest, ResponseFramesSentToServerCountAsProtocolErrors) {
  // A response-type frame is as much a client protocol violation as a
  // corrupt or undecodable one: answered with a typed error AND counted.
  ServerFixture fx;
  RawConnection raw(fx.server->port());
  const uint64_t before = fx.service->Stats().Value(Metric::kProtocolErrors);
  uint64_t id = 30;
  for (const FrameType type : {FrameType::kPong, FrameType::kQueryResponse}) {
    Frame bogus;
    bogus.type = type;
    bogus.request_id = ++id;
    std::string wire;
    EncodeFrame(bogus, &wire);
    raw.Send(wire);

    Frame frame;
    ASSERT_TRUE(raw.ReadFrame(&frame));
    EXPECT_EQ(frame.type, FrameType::kError);
    EXPECT_EQ(frame.request_id, id);
    Status carried;
    ASSERT_TRUE(DecodeErrorBody(frame.body, &carried).ok());
    EXPECT_TRUE(carried.IsInvalidArgument()) << carried.ToString();
  }
  EXPECT_EQ(fx.service->Stats().Value(Metric::kProtocolErrors), before + 2);
}

TEST(NetServerTest, OversizedFrameYieldsErrorThenClose) {
  ServerFixture fx;
  RawConnection raw(fx.server->port());

  std::string wire;
  PutFixed32(&wire, static_cast<uint32_t>(kMaxPayloadBytes + 1));
  PutFixed32(&wire, 0);
  raw.Send(wire);

  Frame frame;
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  // The framing offset is untrustworthy, so the server closes this
  // connection — but keeps accepting and serving new ones.
  EXPECT_FALSE(raw.ReadFrame(&frame));
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(NetServerTest, RefusesConnectionsOverTheLimit) {
  ServerFixture fx(/*threads=*/2, /*max_conns=*/1);
  auto first = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Ping().ok());  // fully established and registered

  auto second = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(second.ok());  // TCP connects; refusal arrives as a frame
  const Status refused = (*second)->Ping();
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  EXPECT_EQ(fx.service->Stats().Value(Metric::kConnectionsRejected), 1u);

  // The first connection is unaffected.
  EXPECT_TRUE((*first)->Ping().ok());
}

/// Registers a series and returns a wire request that runs for many
/// seconds uncancelled: loose cNSM-DTW bounds over `n` points force the
/// full verify cascade on ~every position.
QueryRequest IngestHeavySeries(Catalog* catalog, size_t n) {
  Rng rng(4242);
  TimeSeries series = GenerateSynthetic(n, &rng);
  QueryRequest req;
  req.series = "heavy";
  req.query = ExtractQuery(series, n / 2, 512, 0.3, &rng);
  req.params.type = QueryType::kCnsmDtw;
  req.params.epsilon = 1e6;
  req.params.alpha = 1e6;
  req.params.beta = 1e6;
  req.params.rho = 32;
  EXPECT_TRUE(catalog->Ingest("heavy", std::move(series)).ok());
  return req;
}

TEST(NetServerTest, StreamedResponseReassemblesToSingleFrameResult) {
  // Tiny chunk: a ~2900-match response must stream as many parts. The
  // reassembled response has to be byte-identical to what the in-process
  // (single-frame) path returns.
  ServerFixture fx(/*threads=*/2, /*max_conns=*/64, /*max_queue=*/1024,
                   /*stream_chunk=*/100);
  QueryRequest req;
  req.series = "s0";
  req.query.assign(100, 0.0);
  req.params.type = QueryType::kRsmEd;
  req.params.epsilon = 1e9;  // everything matches: n - m + 1 offsets

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  auto streamed = (*client)->Query(req);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(streamed->status.ok()) << streamed->status.ToString();
  EXPECT_EQ(streamed->matches.size(), kSeriesLen - req.query.size() + 1);

  const QueryResponse direct = fx.service->Submit(req).get();
  ASSERT_TRUE(direct.status.ok());
  ASSERT_EQ(streamed->matches, direct.matches);

  // Byte-identical reassembly: after normalizing the run-dependent
  // latency figure, the full re-encoded response bodies must agree.
  QueryResponse a = *streamed;
  QueryResponse b = direct;
  a.latency_ms = b.latency_ms = 0.0;
  a.stats = b.stats = MatchStats();
  std::string wire_a, wire_b;
  EncodeQueryResponseBody(a, &wire_a);
  EncodeQueryResponseBody(b, &wire_b);
  EXPECT_EQ(wire_a, wire_b);

  // Offset order survived chunking.
  for (size_t i = 1; i < streamed->matches.size(); ++i) {
    ASSERT_LT(streamed->matches[i - 1].offset, streamed->matches[i].offset);
  }
}

TEST(NetServerTest, StreamedAndPipelinedResponsesInterleaveSafely) {
  // Two streamed queries and a ping pipelined on one connection: parts
  // for different ids may interleave on the wire, and each must
  // reassemble to its own complete result.
  ServerFixture fx(/*threads=*/2, /*max_conns=*/64, /*max_queue=*/1024,
                   /*stream_chunk=*/64);
  QueryRequest req;
  req.series = "s1";
  req.query.assign(150, 0.0);
  req.params.epsilon = 1e9;

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  auto id1 = (*client)->SendRequest(req);
  auto id2 = (*client)->SendRequest(req);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE((*client)->Ping().ok());

  // Wait in reverse submission order to force parking of id1's stream.
  auto r2 = (*client)->WaitResponse(*id2);
  auto r1 = (*client)->WaitResponse(*id1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r1->status.ok());
  ASSERT_TRUE(r2->status.ok());
  EXPECT_EQ(r1->matches.size(), kSeriesLen - req.query.size() + 1);
  EXPECT_EQ(r1->matches, r2->matches);
}

TEST(NetServerTest, RemoteCancelAbortsRunningQuery) {
  ServerFixture fx(/*threads=*/2);
  const QueryRequest heavy = IngestHeavySeries(fx.catalog.get(), 60'000);

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  auto id = (*client)->SendRequest(heavy);
  ASSERT_TRUE(id.ok());
  // Give the worker time to dequeue, then abort mid-flight. Uncancelled
  // the query runs for minutes; the typed Cancelled answer must arrive
  // within a slice.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE((*client)->Cancel(*id).ok());
  auto response = (*client)->WaitResponse(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsCancelled())
      << response->status.ToString();
  EXPECT_EQ(fx.service->Stats().Value(Metric::kCancelled), 1u);

  // Cancelling an id that is not in flight is a harmless no-op, and the
  // connection keeps serving.
  ASSERT_TRUE((*client)->Cancel(987654).ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST(NetServerTest, DuplicateRequestIdIsRejectedNotClobbered) {
  ServerFixture fx(/*threads=*/2);
  const QueryRequest heavy = IngestHeavySeries(fx.catalog.get(), 60'000);
  RawConnection raw(fx.server->port());

  // Two query frames with the SAME id while the first is running: the
  // second must bounce as a typed error (accepting it would clobber the
  // first query's cancel token), and the first must stay cancellable.
  WireQueryRequest wire_req;
  wire_req.request = heavy;
  Frame query;
  query.type = FrameType::kQueryRequest;
  query.request_id = 7;
  EncodeQueryRequestBody(wire_req, &query.body);
  std::string wire;
  EncodeFrame(query, &wire);
  raw.Send(wire);
  raw.Send(wire);  // duplicate id, first one still in flight

  Frame frame;
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.request_id, 7u);
  Status carried;
  ASSERT_TRUE(DecodeErrorBody(frame.body, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument()) << carried.ToString();

  // The original query's token survived the duplicate: cancel still works.
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.request_id = 7;
  wire.clear();
  EncodeFrame(cancel, &wire);
  raw.Send(wire);
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  ASSERT_TRUE(DecodeErrorBody(frame.body, &carried).ok());
  EXPECT_TRUE(carried.IsCancelled()) << carried.ToString();
}

TEST(NetServerTest, StopCancelsStragglersAfterDrainTimeout) {
  // drain budget 100ms << query runtime: Stop() must cancel the running
  // query via its token and return promptly instead of draining forever
  // (the pre-executor server would hang here for minutes).
  auto fx = std::make_unique<ServerFixture>(
      /*threads=*/2, /*max_conns=*/64, /*max_queue=*/1024,
      /*stream_chunk=*/size_t{2'000'000}, /*drain_ms=*/100.0);
  const QueryRequest heavy = IngestHeavySeries(fx->catalog.get(), 60'000);

  auto client = Client::Connect("127.0.0.1", fx->server->port());
  ASSERT_TRUE(client.ok());
  auto id = (*client)->SendRequest(heavy);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*client)->Ping().ok());  // the query frame has been read
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  fx->server->Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Generous bound: far below the query's runtime, so the return proves
  // the cancel fired (not that the query finished).
  EXPECT_LT(stop_seconds, 30.0);
  EXPECT_EQ(fx->service->Stats().Value(Metric::kCancelled), 1u);

  // The cancelled response was flushed to the client before the close.
  auto response = (*client)->WaitResponse(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsCancelled())
      << response->status.ToString();
}

TEST(NetServerTest, DestructorDrainsInFlightQueryWithoutExplicitStop) {
  // The server goes out of scope while a minutes-long query runs, with
  // no Stop() call: its transport (declared after its handler) drains
  // first, cancels the query once the drain budget is spent, and flushes
  // the Cancelled answer, all while the handler is still alive.
  constexpr double kDrainMs = 200.0;
  constexpr double kTickMs = 50.0;  // the reactor's periodic-work tick
  ServerFixture fx(/*threads=*/2);
  const QueryRequest heavy = IngestHeavySeries(fx.catalog.get(), 60'000);
  std::unique_ptr<Client> client;
  uint64_t id = 0;
  std::chrono::steady_clock::time_point t0;
  {
    Server::Options nopts;
    nopts.port = 0;
    nopts.drain_timeout_ms = kDrainMs;
    Server server(fx.catalog.get(), fx.service.get(), nopts);
    ASSERT_TRUE(server.Start().ok());
    auto connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    client = std::move(*connected);
    auto sent = client->SendRequest(heavy);
    ASSERT_TRUE(sent.ok());
    id = *sent;
    ASSERT_TRUE(client->Ping().ok());  // the query frame has been read
    t0 = std::chrono::steady_clock::now();
  }
  const double teardown_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  EXPECT_LT(teardown_ms, kDrainMs + kTickMs + kTeardownSlackMs)
      << teardown_ms;
  auto response = client->WaitResponse(id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsCancelled()) << response->status.ToString();
}

TEST(NetServerTest, GracefulStopDrainsPipelinedWork) {
  ServerFixture fx(/*threads=*/2);
  const auto requests = MakeWorkload(fx.refs, 8);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  std::vector<uint64_t> ids;
  for (const auto& req : requests) {
    auto id = (*client)->SendRequest(req);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // The pong proves the server has read (and submitted) every query frame
  // ahead of it in the stream, so none can be lost to the shutdown below.
  ASSERT_TRUE((*client)->Ping().ok());
  // Stop concurrently with the in-flight pipeline: every accepted request
  // must still be answered before the connection closes.
  std::thread stopper([&] { fx.server->Stop(); });
  size_t answered = 0;
  for (uint64_t id : ids) {
    auto response = (*client)->WaitResponse(id);
    if (!response.ok()) break;  // connection closed after the drain
    ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, ids.size());
}

// ------------------------------------------------------------- tracing

TEST(ProtocolTest, QueryRequestTraceFlagRoundTrips) {
  WireQueryRequest in;
  in.request.series = "s";
  in.request.query = {1.0, 2.0, 3.0};
  for (bool flag : {false, true}) {
    in.request.collect_trace = flag;
    std::string body;
    EncodeQueryRequestBody(in, &body);
    WireQueryRequest out;
    ASSERT_TRUE(DecodeQueryRequestBody(body, &out).ok());
    EXPECT_EQ(out.request.collect_trace, flag);
  }
}

TEST(ProtocolTest, QueryResponseTraceRoundTrips) {
  QueryResponse in;
  in.latency_ms = 42.0;
  in.matches = {{7, 1.25}};
  in.trace = std::make_shared<QueryTrace>();
  const auto origin = in.trace->origin();
  in.trace->AddSpan(kSpanQueue, origin,
                    origin + std::chrono::milliseconds(2),
                    {{"queue_depth", 3}});
  in.trace->AddSpan(kSpanProbe, origin + std::chrono::milliseconds(2),
                    origin + std::chrono::milliseconds(9),
                    {{"windows", 4}, {"rows_fetched", 1234}});
  in.trace->AddSpan(kSpanVerify, origin + std::chrono::milliseconds(9),
                    origin + std::chrono::milliseconds(30),
                    {{"slice", 0}, {"candidates", 512}});

  std::string body;
  EncodeQueryResponseBody(in, &body);

  // The split encoding the server uses (prefix, then trace appended after
  // the serialize span is known) must be byte-identical to the one-shot.
  std::string split;
  EncodeQueryResponsePrefix(in, &split);
  AppendQueryResponseTrace(in.trace.get(), &split);
  EXPECT_EQ(split, body);

  QueryResponse out;
  ASSERT_TRUE(DecodeQueryResponseBody(body, &out).ok());
  ASSERT_NE(out.trace, nullptr);
  const auto in_spans = in.trace->spans();
  const auto out_spans = out.trace->spans();
  ASSERT_EQ(out_spans.size(), in_spans.size());
  for (size_t i = 0; i < in_spans.size(); ++i) {
    EXPECT_EQ(out_spans[i].name, in_spans[i].name);
    EXPECT_EQ(out_spans[i].start_ms, in_spans[i].start_ms);
    EXPECT_EQ(out_spans[i].dur_ms, in_spans[i].dur_ms);
    EXPECT_EQ(out_spans[i].worker, in_spans[i].worker);
    EXPECT_EQ(out_spans[i].args, in_spans[i].args);
  }

  // No trace → a one-byte marker, and the decode yields a null trace.
  QueryResponse plain;
  plain.latency_ms = 1.0;
  std::string plain_body;
  EncodeQueryResponseBody(plain, &plain_body);
  QueryResponse plain_out;
  ASSERT_TRUE(DecodeQueryResponseBody(plain_body, &plain_out).ok());
  EXPECT_EQ(plain_out.trace, nullptr);
}

TEST(ProtocolTest, TruncatedTraceBodyIsRejected) {
  QueryResponse in;
  in.trace = std::make_shared<QueryTrace>();
  const auto origin = in.trace->origin();
  in.trace->AddSpan(kSpanProbe, origin, origin + std::chrono::milliseconds(5),
                    {{"windows", 4}});
  std::string body;
  EncodeQueryResponseBody(in, &body);
  // Chop the trailing trace bytes off one at a time: every truncation
  // must be rejected, never mis-decoded.
  for (size_t cut = 1; cut <= 12; ++cut) {
    QueryResponse out;
    EXPECT_FALSE(DecodeQueryResponseBody(
                     std::string_view(body.data(), body.size() - cut), &out)
                     .ok());
  }
}

TEST(NetServerTest, WireTraceCarriesStageBreakdown) {
  ServerFixture fx(/*threads=*/2);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());

  QueryRequest req = MakeWorkload(fx.refs, 1)[0];
  // Untraced by default: no trace rides the response.
  auto plain = (*client)->Query(req);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->status.ok());
  EXPECT_EQ(plain->trace, nullptr);

  req.collect_trace = true;
  auto traced = (*client)->Query(req);
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(traced->status.ok());
  ASSERT_NE(traced->trace, nullptr);

  bool saw_queue = false, saw_probe = false, saw_serialize = false;
  for (const auto& s : traced->trace->spans()) {
    if (s.name == kSpanQueue) saw_queue = true;
    if (s.name == kSpanProbe) saw_probe = true;
    if (s.name == kSpanSerialize) saw_serialize = true;
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_serialize);

  // The stage breakdown accounts for the latency without exceeding it
  // (small gaps — session acquire, callback dispatch — are real).
  const StageBreakdown b = ComputeStageBreakdown(*traced->trace);
  EXPECT_GT(b.TotalMs(), 0.0);
  EXPECT_LE(b.TotalMs(), traced->latency_ms + 0.05 * traced->latency_ms + 1.0);
}

// A loopback server whose slow-query threshold is test controlled
// (ServerFixture hard-codes the default options), over a catalog whose
// EventLog sink collects the slow_query events.
struct SlowLogFixture {
  std::mutex mu;
  std::vector<std::string> lines;

  EventLog events;
  MemKvStore store;
  std::vector<TimeSeries> refs;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  explicit SlowLogFixture(double slow_query_ms) {
    events.SetSink([this](const std::string& line) {
      if (line.find("\"event\":\"slow_query\"") == std::string::npos) {
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    });
    refs = IngestFixture(&store);
    Catalog::Options copts;
    copts.session = SmallOptions();
    copts.event_log = &events;
    catalog = std::make_unique<Catalog>(&store, copts);
    QueryService::Options sopts;
    sopts.num_threads = 2;
    service = std::make_unique<QueryService>(catalog.get(), sopts);
    Server::Options nopts;
    nopts.port = 0;
    nopts.slow_query_ms = slow_query_ms;
    server = std::make_unique<Server>(catalog.get(), service.get(), nopts);
    EXPECT_TRUE(server->Start().ok());
  }

  std::vector<std::string> Lines() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
};

TEST(NetServerTest, SlowQueryLogEmitsExactlyOneLinePerSlowQuery) {
  // Threshold ~0: every completed query is "slow".
  SlowLogFixture fx(/*slow_query_ms=*/0.0001);
  const auto requests = MakeWorkload(fx.refs, 6);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  for (const auto& req : requests) {
    auto response = (*client)->Query(req);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    // The server traces for its own log, but the client didn't ask for a
    // trace, so none is shipped back.
    EXPECT_EQ(response->trace, nullptr);
  }
  const auto lines = fx.Lines();
  ASSERT_EQ(lines.size(), requests.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"event\":\"slow_query\""), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"series\":\"" + requests[i].series + "\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"status\":\"ok\""), std::string::npos)
        << lines[i];
    // Milliseconds with three decimals, never exponent form.
    EXPECT_TRUE(std::regex_search(
        lines[i], std::regex("\"latency_ms\":[0-9]+\\.[0-9]{3},")))
        << lines[i];
    EXPECT_NE(lines[i].find("\"name\":\"probe\""), std::string::npos);
    EXPECT_EQ(lines[i].find('\n'), std::string::npos);
  }
}

TEST(NetServerTest, FastQueriesNeverHitTheSlowLog) {
  // Threshold far above anything this tiny fixture can take.
  SlowLogFixture fx(/*slow_query_ms=*/1e9);
  const auto requests = MakeWorkload(fx.refs, 4);
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  for (const auto& req : requests) {
    auto response = (*client)->Query(req);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
  }
  EXPECT_TRUE(fx.Lines().empty());
}

// -------------------------------------------------- federation codecs

TEST(ProtocolTest, ShardInfoBodyRoundTrips) {
  ShardInfo in;
  in.shard_id = 3;
  in.num_shards = 8;
  in.map_fingerprint = 0x1122334455667788ull;
  in.series_count = 42;
  std::string body;
  EncodeShardInfoBody(in, &body);
  ShardInfo out;
  ASSERT_TRUE(DecodeShardInfoBody(body, &out).ok());
  EXPECT_EQ(out, in);
  // Any truncation is a decode error, never a half-read identity.
  for (size_t cut = 1; cut <= body.size(); ++cut) {
    EXPECT_FALSE(
        DecodeShardInfoBody(std::string_view(body.data(), body.size() - cut),
                            &out)
            .ok());
  }
}

TEST(ProtocolTest, FederatedResponseBodyRoundTrips) {
  FederatedResponse in;
  in.latency_ms = 12.5;
  in.shards_total = 3;
  in.shards_ok = 2;
  in.shard_errors = {{2u, Status::DeadlineExceeded("slow shard")}};
  in.groups = {{"alpha", {{1, 0.5}, {7, 1.25}}}, {"beta", {}}};
  in.stats.candidate_positions = 10;
  in.stats.distance_calls = 4;
  in.trace = std::make_shared<QueryTrace>();
  const auto origin = in.trace->origin();
  in.trace->AddSpan("shard0", origin, origin + std::chrono::milliseconds(4));
  in.trace->AddSpan("merge", origin + std::chrono::milliseconds(4),
                    origin + std::chrono::milliseconds(5));

  std::string body;
  EncodeFederatedResponseBody(in, &body);
  FederatedResponse out;
  ASSERT_TRUE(DecodeFederatedResponseBody(body, &out).ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.latency_ms, in.latency_ms);
  EXPECT_EQ(out.shards_total, in.shards_total);
  EXPECT_EQ(out.shards_ok, in.shards_ok);
  EXPECT_TRUE(out.partial());
  ASSERT_EQ(out.shard_errors.size(), 1u);
  EXPECT_EQ(out.shard_errors[0].first, 2u);
  EXPECT_TRUE(out.shard_errors[0].second.IsDeadlineExceeded());
  EXPECT_EQ(out.groups, in.groups);
  EXPECT_EQ(out.stats.candidate_positions, in.stats.candidate_positions);
  EXPECT_EQ(out.stats.distance_calls, in.stats.distance_calls);
  ASSERT_NE(out.trace, nullptr);
  ASSERT_EQ(out.trace->spans().size(), 2u);
  EXPECT_EQ(out.trace->spans()[0].name, "shard0");
  EXPECT_EQ(out.trace->spans()[1].name, "merge");

  for (size_t cut = 1; cut <= 16; ++cut) {
    EXPECT_FALSE(DecodeFederatedResponseBody(
                     std::string_view(body.data(), body.size() - cut), &out)
                     .ok());
  }
}

// -------------------------------------------- client parked-state leaks

/// A fake server that plays scripted frames to one accepted client —
/// sequences the real server only produces under timings a test cannot
/// force deterministically.
class ScriptedServer {
 public:
  ScriptedServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_,
                            reinterpret_cast<struct sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~ScriptedServer() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  int port() const { return port_; }

  void Accept() {
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(conn_fd_, 0);
  }

  std::vector<Frame> ReadFrames(size_t count) {
    std::vector<Frame> frames;
    char buf[4096];
    while (frames.size() < count) {
      Frame frame;
      Status error;
      switch (decoder_.Next(&frame, &error)) {
        case FrameDecoder::Event::kFrame:
          frames.push_back(std::move(frame));
          continue;
        case FrameDecoder::Event::kNeedMore:
          break;
        default:
          ADD_FAILURE() << "bad frame from client: " << error.ToString();
          return frames;
      }
      const ssize_t n = ::recv(conn_fd_, buf, sizeof(buf), 0);
      if (n <= 0) return frames;
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    return frames;
  }

  void SendFrame(const Frame& frame) {
    std::string wire;
    EncodeFrame(frame, &wire);
    std::string_view data = wire;
    while (!data.empty()) {
      const ssize_t n =
          ::send(conn_fd_, data.data(), data.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      data.remove_prefix(static_cast<size_t>(n));
    }
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  int port_ = 0;
  FrameDecoder decoder_;
};

TEST(NetClientTest, TerminalErrorFrameReleasesParkedStreamChunks) {
  ScriptedServer server;
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  server.Accept();

  QueryRequest req;
  req.series = "s";
  req.query = {1.0, 2.0, 3.0};
  auto id_a = (*client)->SendRequest(req);
  auto id_b = (*client)->SendRequest(req);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  const auto sent = server.ReadFrames(2);
  ASSERT_EQ(sent.size(), 2u);
  ASSERT_EQ(sent[0].request_id, *id_a);
  ASSERT_EQ(sent[1].request_id, *id_b);

  // Stream two chunks for A, terminate A with an ERROR, then answer B —
  // all delivered while the client waits on B, so A's frames park.
  Frame part;
  part.type = FrameType::kMatchResponsePart;
  part.request_id = *id_a;
  EncodeMatchPartBody(std::vector<MatchResult>{{1, 1.0}, {2, 2.0}},
                      &part.body);
  server.SendFrame(part);
  part.body.clear();
  EncodeMatchPartBody(std::vector<MatchResult>{{3, 3.0}}, &part.body);
  server.SendFrame(part);
  Frame error;
  error.type = FrameType::kError;
  error.request_id = *id_a;
  EncodeErrorBody(Status::InvalidArgument("boom"), &error.body);
  server.SendFrame(error);
  Frame final_b;
  final_b.type = FrameType::kQueryResponse;
  final_b.request_id = *id_b;
  QueryResponse response_b;
  response_b.matches = {{9, 0.5}};
  EncodeQueryResponseBody(response_b, &final_b.body);
  server.SendFrame(final_b);

  auto b = (*client)->WaitResponse(*id_b);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->matches, response_b.matches);

  // THE LEAK REGRESSION: an error never carries matches, so A's parked
  // chunks must be dropped the moment its terminal frame arrives — not
  // held until a WaitResponse that may never come.
  EXPECT_EQ((*client)->parked_part_ids(), 0u);
  EXPECT_EQ((*client)->parked_frames(), 1u);  // A's terminal error itself

  auto a = (*client)->WaitResponse(*id_a);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->status.IsInvalidArgument()) << a->status.ToString();
  EXPECT_TRUE(a->matches.empty());
  EXPECT_EQ((*client)->parked_frames(), 0u);
}

TEST(NetClientTest, ForgetDiscardsLateFramesAndRetiresTombstone) {
  ScriptedServer server;
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  server.Accept();

  QueryRequest req;
  req.series = "s";
  req.query = {1.0};
  auto id = (*client)->SendRequest(req);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(server.ReadFrames(1).size(), 1u);

  (*client)->Forget(*id);
  EXPECT_EQ((*client)->forgotten_ids(), 1u);

  // The abandoned query's stream chunk and terminal frame arrive late.
  Frame part;
  part.type = FrameType::kMatchResponsePart;
  part.request_id = *id;
  EncodeMatchPartBody(std::vector<MatchResult>{{4, 4.0}}, &part.body);
  server.SendFrame(part);
  Frame final_frame;
  final_frame.type = FrameType::kQueryResponse;
  final_frame.request_id = *id;
  QueryResponse late;
  late.matches = {{4, 4.0}};
  EncodeQueryResponseBody(late, &final_frame.body);
  server.SendFrame(final_frame);

  // A ping walks the client through the late frames: both are discarded
  // (nothing parks) and the tombstone retires on the terminal frame, so
  // Forget cannot accumulate state either.
  std::thread ponger([&server] {
    const auto pings = server.ReadFrames(1);
    ASSERT_EQ(pings.size(), 1u);
    Frame pong;
    pong.type = FrameType::kPong;
    pong.request_id = pings[0].request_id;
    server.SendFrame(pong);
  });
  EXPECT_TRUE((*client)->Ping().ok());
  ponger.join();
  EXPECT_EQ((*client)->parked_part_ids(), 0u);
  EXPECT_EQ((*client)->parked_frames(), 0u);
  EXPECT_EQ((*client)->forgotten_ids(), 0u);
}

// ------------------------------------------------- idle-reaper quiescence

TEST(NetServerTest, IdleReaperSparesConnectionDrainingAResponse) {
  // A connection whose only activity is OUTBOUND — megabytes of response
  // draining into a tiny client window — must not be reaped as idle even
  // when the drain takes much longer than the idle timeout. The pre-fix
  // server clocked inbound bytes only and killed such connections
  // mid-write.
  MemKvStore store;
  Catalog::Options copts;
  copts.session = SmallOptions();
  {
    Catalog ingest(&store, copts);
    Rng rng(99);
    // ~400k matches ≈ 7 MB encoded: more than the kernel will buffer for
    // the server (tcp_wmem caps at 4 MB here), so the writer thread is
    // provably mid-WriteAll while the client stalls.
    ASSERT_TRUE(ingest.Ingest("wide", GenerateSynthetic(400'000, &rng)).ok());
  }
  Catalog catalog(&store, copts);
  QueryService service(&catalog,
                       QueryService::Options{.num_threads = 2,
                                             .max_queue = 64});
  Server::Options nopts;
  nopts.port = 0;
  nopts.idle_timeout_ms = 300.0;
  Server server(&catalog, &service, nopts);
  ASSERT_TRUE(server.Start().ok());

  // Raw client with a deliberately tiny receive window.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0);

  WireQueryRequest wire;
  wire.request.series = "wide";
  wire.request.query.assign(100, 0.0);
  wire.request.params.epsilon = 1e9;  // everything matches
  Frame request;
  request.type = FrameType::kQueryRequest;
  request.request_id = 1;
  EncodeQueryRequestBody(wire, &request.body);
  std::string bytes;
  EncodeFrame(request, &bytes);
  std::string_view data = bytes;
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data.remove_prefix(static_cast<size_t>(n));
  }

  // Stall without reading a byte for 3x the idle timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));

  // Pipeline a ping BEFORE draining: the reader thread handles it while
  // the writer is still blocked mid-response, so the pong queues behind
  // the big frame and the answer proves the whole stall + drain happened
  // on one surviving connection (no timing window between the server
  // finishing its write and our next request, which would make the
  // assertion a race on this process's decode speed).
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 2;
  bytes.clear();
  EncodeFrame(ping, &bytes);
  data = bytes;
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data.remove_prefix(static_cast<size_t>(n));
  }

  // Drain. The connection must still be alive and deliver the complete
  // response AND the pong — in either order: the pong overtakes the
  // response when the query is still executing as the ping arrives.
  FrameDecoder decoder;
  char buf[64 * 1024];
  Frame frame;
  bool got_final = false, got_pong = false;
  std::vector<MatchResult> matches;
  while (!got_final || !got_pong) {
    Status error;
    switch (decoder.Next(&frame, &error)) {
      case FrameDecoder::Event::kFrame:
        if (frame.type == FrameType::kMatchResponsePart) {
          ASSERT_TRUE(DecodeMatchPartBody(frame.body, &matches).ok());
        } else if (frame.type == FrameType::kPong) {
          EXPECT_EQ(frame.request_id, 2u);
          got_pong = true;
        } else {
          ASSERT_EQ(frame.type, FrameType::kQueryResponse);
          QueryResponse response;
          ASSERT_TRUE(DecodeQueryResponseBody(frame.body, &response).ok());
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
          matches.insert(matches.end(), response.matches.begin(),
                         response.matches.end());
          got_final = true;
        }
        continue;
      case FrameDecoder::Event::kNeedMore:
        break;
      default:
        FAIL() << "stream corrupted: " << error.ToString();
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed the connection mid-drain";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  EXPECT_EQ(matches.size(), 400'000u - 100u + 1u);
  ::close(fd);
  server.Stop();

  // Genuinely idle connections ARE still reaped: reconnect, go silent,
  // and the server closes us.
  Server idle_server(&catalog, &service, nopts);
  ASSERT_TRUE(idle_server.Start().ok());
  RawConnection idle(idle_server.port());
  Frame unused;
  EXPECT_FALSE(idle.ReadFrame(&unused));  // blocks until the reaper closes
  idle_server.Stop();
}

// ------------------------------------------------------- reactor behavior

TEST(NetServerTest, HttpKeepAliveServesMultipleScrapes) {
  ServerFixture fx;
  // An explicit Connection: keep-alive holds the socket open across
  // requests; omitting it (HTTP/1.1 default notwithstanding) closes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(fx.server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0);

  auto send_all = [&](std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      data.remove_prefix(static_cast<size_t>(n));
    }
  };
  // One full response: headers + Content-Length body, socket left open.
  auto read_response = [&]() -> std::string {
    std::string resp;
    char buf[4096];
    size_t body_at = std::string::npos, declared = 0;
    for (;;) {
      if (body_at == std::string::npos) {
        body_at = resp.find("\r\n\r\n");
        if (body_at != std::string::npos) {
          const size_t cl = resp.find("Content-Length: ");
          EXPECT_NE(cl, std::string::npos) << resp;
          declared = std::strtoull(
              resp.c_str() + cl + std::strlen("Content-Length: "), nullptr,
              10);
        }
      }
      if (body_at != std::string::npos &&
          resp.size() >= body_at + 4 + declared) {
        return resp;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return resp;
      resp.append(buf, static_cast<size_t>(n));
    }
  };

  for (int i = 0; i < 3; ++i) {
    send_all(
        "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n"
        "\r\n");
    const std::string resp = read_response();
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
    EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos);
    EXPECT_NE(resp.find("\r\n\r\nok\n"), std::string::npos);
  }
  // A scrape too — keep-alive is not /healthz-specific.
  send_all(
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive\r\n\r\n");
  const std::string scrape = read_response();
  EXPECT_NE(scrape.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(scrape.find("kvmatch_connections_open"), std::string::npos);

  // Without the header the server answers and closes, as it always has.
  send_all("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string last = read_response();
  EXPECT_NE(last.find("Connection: close"), std::string::npos) << last;
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // clean EOF from the server
  ::close(fd);
  EXPECT_GE(fx.service->Stats().Value(Metric::kHttpRequests), 5u);
}

TEST(NetServerTest, TrickledBytesReassembleAcrossSyscalls) {
  // One byte per syscall: every frame-prologue and payload boundary lands
  // mid-read, so partial-read resumption is exercised at every offset.
  ServerFixture fx;
  RawConnection raw(fx.server->port());

  WireQueryRequest wire;
  wire.request.series = SeriesName(0);
  wire.request.query.assign(100, 0.0);
  wire.request.params.epsilon = 2.0;
  Frame request;
  request.type = FrameType::kQueryRequest;
  request.request_id = 7;
  EncodeQueryRequestBody(wire, &request.body);

  std::string bytes;
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 8;
  EncodeFrame(request, &bytes);
  EncodeFrame(ping, &bytes);

  for (size_t i = 0; i < bytes.size(); ++i) {
    raw.Send(std::string_view(bytes).substr(i, 1));
  }
  // Both answers, in either order: the pong overtakes the response when
  // the query is still on a worker thread as the ping assembles.
  bool got_response = false, got_pong = false;
  Frame out;
  while (!got_response || !got_pong) {
    ASSERT_TRUE(raw.ReadFrame(&out));
    if (out.type == FrameType::kPong) {
      EXPECT_EQ(out.request_id, 8u);
      got_pong = true;
    } else {
      ASSERT_EQ(out.type, FrameType::kQueryResponse);
      EXPECT_EQ(out.request_id, 7u);
      QueryResponse response;
      ASSERT_TRUE(DecodeQueryResponseBody(out.body, &response).ok());
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      got_response = true;
    }
  }
}

TEST(NetServerTest, SlowReaderBackpressurePausesAndResumesReads) {
  // A stalled reader behind a multi-MB streamed response must push the
  // outbox past the cap, pause further reads (counted), and resume once
  // the drain crosses the half-watermark — with every byte delivered.
  MemKvStore store;
  Catalog::Options copts;
  copts.session = SmallOptions();
  {
    Catalog ingest(&store, copts);
    Rng rng(77);
    // ~1.5M matches ≈ 16 MB encoded: far beyond the ~4 MB the kernel
    // will buffer (tcp_wmem caps sndbuf there), so the outbox provably
    // holds many megabytes while the client stalls.
    ASSERT_TRUE(
        ingest.Ingest("wide", GenerateSynthetic(1'500'000, &rng)).ok());
  }
  Catalog catalog(&store, copts);
  QueryService service(
      &catalog, QueryService::Options{.num_threads = 2, .max_queue = 64});
  catalog.SetStatsRegistry(service.stats_registry());
  Server::Options nopts;
  nopts.port = 0;
  nopts.stream_chunk_matches = 50'000;  // force chunked kMatchResponsePart
  nopts.max_outbox_bytes = 256 * 1024;
  Server server(&catalog, &service, nopts);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0);
  auto send_all = [&](std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      data.remove_prefix(static_cast<size_t>(n));
    }
  };

  WireQueryRequest wire;
  wire.request.series = "wide";
  wire.request.query.assign(100, 0.0);
  wire.request.params.epsilon = 1e9;  // everything matches
  Frame request;
  request.type = FrameType::kQueryRequest;
  request.request_id = 1;
  EncodeQueryRequestBody(wire, &request.body);
  std::string bytes;
  EncodeFrame(request, &bytes);
  send_all(bytes);

  // Stall unread until the streamed response has piled well past the cap
  // in the outbox — 8x, so the kernel socket buffer still absorbing the
  // early parts can't drain it back under the cap before the ping below
  // lands. Polled, not slept: sanitizer builds run the query an order of
  // magnitude slower.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (service.Stats().Value(Metric::kNetOutboxBytes) < 8 * nopts.max_outbox_bytes) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "outbox never crossed the cap";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // More inbound bytes now force the reactor's backpressure decision: the
  // ping may be processed first or sit paused in the kernel buffer, but
  // the pause itself must be taken and counted.
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 2;
  bytes.clear();
  EncodeFrame(ping, &bytes);
  send_all(bytes);
  while (service.Stats().Value(Metric::kNetReadsPaused) < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "outbox over the cap never paused reads";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain everything: all streamed parts, the final frame, and the pong.
  FrameDecoder decoder;
  char buf[64 * 1024];
  Frame frame;
  bool got_final = false, got_pong = false;
  std::vector<MatchResult> matches;
  while (!got_final || !got_pong) {
    Status error;
    switch (decoder.Next(&frame, &error)) {
      case FrameDecoder::Event::kFrame:
        if (frame.type == FrameType::kMatchResponsePart) {
          ASSERT_TRUE(DecodeMatchPartBody(frame.body, &matches).ok());
        } else if (frame.type == FrameType::kPong) {
          EXPECT_EQ(frame.request_id, 2u);
          got_pong = true;
        } else {
          ASSERT_EQ(frame.type, FrameType::kQueryResponse);
          QueryResponse response;
          ASSERT_TRUE(DecodeQueryResponseBody(frame.body, &response).ok());
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
          matches.insert(matches.end(), response.matches.begin(),
                         response.matches.end());
          got_final = true;
        }
        continue;
      case FrameDecoder::Event::kNeedMore:
        break;
      default:
        FAIL() << "stream corrupted: " << error.ToString();
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed the connection mid-drain";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  EXPECT_EQ(matches.size(), 1'500'000u - 100u + 1u);

  // Reads resumed after the drain: a fresh ping answers promptly.
  ping.request_id = 3;
  bytes.clear();
  EncodeFrame(ping, &bytes);
  send_all(bytes);
  bool got_second_pong = false;
  while (!got_second_pong) {
    Status error;
    switch (decoder.Next(&frame, &error)) {
      case FrameDecoder::Event::kFrame:
        EXPECT_EQ(frame.type, FrameType::kPong);
        EXPECT_EQ(frame.request_id, 3u);
        got_second_pong = true;
        continue;
      case FrameDecoder::Event::kNeedMore:
        break;
      default:
        FAIL() << "stream corrupted: " << error.ToString();
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
  server.Stop();
}

TEST(NetServerTest, ReactorSurvivesMutatedFrameStreams) {
  // The decoder-level fuzz (DecoderSurvivesRandomMutations...) proves the
  // parser; this drives the same seeded mutations through real sockets so
  // the reactor's error paths — kBadFrame error frames, kFatal
  // half-close, mid-parse disconnects — run end to end. The server must
  // outlive every storm and still answer a clean client.
  ServerFixture fx(/*threads=*/2, /*max_conns=*/64);

  std::vector<std::string> pool;
  {
    Rng rng(24680);
    for (int i = 0; i < 4; ++i) {
      Frame frame;
      frame.request_id = static_cast<uint64_t>(i + 1);
      switch (i % 3) {
        case 0:
          frame.type = FrameType::kPing;
          break;
        case 1: {
          frame.type = FrameType::kQueryRequest;
          WireQueryRequest wire;
          wire.request.series = SeriesName(0);
          wire.request.query.assign(64, 0.5);
          wire.request.params.epsilon = 2.0;
          EncodeQueryRequestBody(wire, &frame.body);
          break;
        }
        default:
          frame.type = FrameType::kCancel;
          break;
      }
      std::string wire_bytes;
      EncodeFrame(frame, &wire_bytes);
      pool.push_back(std::move(wire_bytes));
    }
  }

  Rng rng(13579);
  for (int trial = 0; trial < 32; ++trial) {
    std::string stream;
    const int64_t count = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < count; ++i) {
      stream += pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    }
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations && !stream.empty(); ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          stream[pos] = static_cast<char>(stream[pos] ^
                                          (1 << rng.UniformInt(0, 7)));
          break;
        case 1:
          stream.resize(pos);
          break;
        default:
          for (int64_t k = rng.UniformInt(1, 16); k > 0; --k) {
            stream.insert(pos, 1,
                          static_cast<char>(rng.UniformInt(0, 255)));
          }
          break;
      }
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(fx.server->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string_view data = stream;
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) break;  // server closed on us mid-send — acceptable
      data.remove_prefix(static_cast<size_t>(n));
    }
    // Half-close: the server sees EOF, finishes whatever parsed cleanly,
    // and closes. Drain its side (bounded by a receive timeout: a
    // mutation that enlarged a declared length legitimately leaves the
    // decoder waiting for bytes that never come).
    ::shutdown(fd, SHUT_WR);
    struct timeval tv = {};
    tv.tv_usec = 200 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[16 * 1024];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  }

  // The reactor took 32 storms; a well-behaved client is unaffected.
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  QueryRequest req;
  req.series = SeriesName(0);
  req.query.assign(100, 0.0);
  req.params.epsilon = 2.0;
  auto response = (*client)->Query(req);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok()) << response->status.ToString();
}

TEST(NetServerTest, MetricsExposeReactorGauges) {
  ServerFixture fx;
  // Hold one frame connection open so the gauge counts it plus the
  // scrape's own connection.
  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  // A query's completion crosses from a worker thread into the loop via
  // the eventfd — that is the wakeup the counter must witness. (Pings
  // are answered inline on the loop thread and would prove nothing.)
  QueryRequest req;
  req.series = SeriesName(0);
  req.query.assign(100, 0.0);
  req.params.epsilon = 2.0;
  auto response = (*client)->Query(req);
  ASSERT_TRUE(response.ok());
  // Loop counters are exported on the reactor's 50 ms tick; let one pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  const std::string resp = RawHttpExchange(
      fx.server->port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  for (const char* name :
       {"kvmatch_connections_open", "kvmatch_connections_rejected_total",
        "kvmatch_net_outbox_bytes", "kvmatch_net_reads_paused_total",
        "kvmatch_net_loop_iterations_total",
        "kvmatch_net_epoll_wakeups_total"}) {
    EXPECT_NE(resp.find(name), std::string::npos) << name;
  }
  const ServiceStatsSnapshot snap = fx.service->Stats();
  EXPECT_GE(snap.Value(Metric::kConnectionsOpen), 1u);
  EXPECT_GE(snap.Value(Metric::kNetLoopIterations), 1u);
  // The ping completion crossed threads, so at least one eventfd kick.
  EXPECT_GE(snap.Value(Metric::kNetEpollWakeups), 1u);
}

TEST(NetServerTest, IdleConnectionsDoNotStarveActiveClient) {
  // A small in-test C10k: park idle connections, then verify an active
  // client's queries flow normally past them. (bench_net_throughput
  // --idle-connections scales this shape to 10k.)
  constexpr size_t kIdle = 128;
  ServerFixture fx(/*threads=*/2, /*max_conns=*/kIdle + 8);
  std::vector<std::unique_ptr<RawConnection>> idle;
  for (size_t i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<RawConnection>(fx.server->port()));
  }

  auto client = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 8; ++i) {
    QueryRequest req;
    req.series = SeriesName(static_cast<size_t>(i) % kNumSeries);
    req.query.assign(100, 0.0);
    req.params.epsilon = 2.0;
    auto response = (*client)->Query(req);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  }
  EXPECT_GE(fx.service->Stats().Value(Metric::kConnectionsOpen), kIdle + 1);
  idle.clear();
}

}  // namespace
}  // namespace net
}  // namespace kvmatch
