// malnet::serve — wire framing, the concurrent query server, and the client.
//
// The load-bearing contracts (ISSUE 6): N concurrent clients receive
// byte-identical answers to a single-client QueryEngine, the store's
// payloads are never read while serving (payload_bytes_read == 0 under
// concurrency), pipelined requests are answered in order, backpressure
// bounds a slow reader's memory without losing responses, stop() drains
// in-flight requests, and no framing input — however malformed — can crash
// or wedge the server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/parallel_study.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "store/store.hpp"
#include "testkit/mutate.hpp"
#include "testkit/scratch.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

using namespace malnet;

namespace {

/// One small committed store shared by every server test in this binary
/// (building it runs a real two-shard study; do that once).
const std::string& fixture_dir() {
  static const testkit::ScratchDir kScratch("serve_fixture");
  static const std::string kDir = [] {
    const auto& dir = kScratch.path();
    core::ParallelStudyConfig cfg;
    cfg.base.seed = 22;
    cfg.base.world.total_samples = 48;
    cfg.base.run_probe_campaign = false;
    cfg.shards = 2;
    cfg.jobs = 2;
    store::Store st(dir);
    (void)store::run_store_study(cfg, st, /*resume=*/false);
    return dir;
  }();
  return kDir;
}

const std::vector<std::string>& fixture_queries() {
  static const std::vector<std::string> kQueries = {
      "totals", "families", "c2-liveness", "exploits", "segments", "help"};
  return kQueries;
}

/// Ground truth: single-client answers from a private engine instance.
const std::vector<std::string>& expected_answers() {
  static const std::vector<std::string> kAnswers = [] {
    store::Store st(fixture_dir());
    store::QueryEngine engine(st);
    std::vector<std::string> answers;
    for (const auto& q : fixture_queries()) answers.push_back(engine.answer(q));
    return answers;
  }();
  return kAnswers;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A started server over a fresh Store handle on the shared fixture.
struct TestServer {
  std::unique_ptr<store::Store> store;
  obs::Registry registry;
  std::unique_ptr<serve::Server> server;

  explicit TestServer(serve::ServeConfig cfg = {}) {
    store = std::make_unique<store::Store>(fixture_dir());
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    if (cfg.io_threads == 0) cfg.io_threads = 2;
    server = std::make_unique<serve::Server>(*store, cfg, registry);
    server->start();
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

/// Raw socket sender for malformed-input tests (the Client refuses to send
/// garbage, which is exactly why it can't be used here).
void send_raw(std::uint16_t port, util::BytesView bytes) {
  auto fd = util::tcp_connect("127.0.0.1", port, 2000);
  ASSERT_TRUE(fd.valid());
  ASSERT_TRUE(util::send_all(fd.get(), bytes, 2000));
  // Read until the server closes or 2s pass; we only care that it answers
  // with a close, not what (if anything) it says first.
  std::uint8_t buf[4096];
  for (int i = 0; i < 50; ++i) {
    const int n = util::recv_some(fd.get(), buf, sizeof(buf), 2000);
    if (n <= 0) break;
  }
}

}  // namespace

TEST(Wire, RequestRoundTrip) {
  const serve::Request req{77, "c2 60.1.2.3:23"};
  const auto frame = serve::encode_request(req);
  // Strip the length prefix the way FrameReader would.
  serve::FrameReader reader;
  reader.feed(frame);
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = serve::decode_request(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, req);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, ResponseRoundTrip) {
  const serve::Response resp{42, serve::Status::kOk, "samples=48"};
  serve::FrameReader reader;
  reader.feed(serve::encode_response(resp));
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = serve::decode_response(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, resp);
}

TEST(Wire, DecodeRejectsBadMagicAndShortBodies) {
  EXPECT_FALSE(serve::decode_request(util::Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(serve::decode_response(util::Bytes{1, 2, 3}).has_value());
  auto frame = serve::encode_request({1, "totals"});
  frame[serve::kFramePrefixSize] ^= 0xFF;  // corrupt the magic
  serve::FrameReader reader;
  reader.feed(frame);
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  EXPECT_FALSE(serve::decode_request(*body).has_value());
}

TEST(Wire, FrameReaderReassemblesAcrossArbitrarySplits) {
  util::Bytes stream;
  std::vector<serve::Request> sent;
  for (int i = 0; i < 20; ++i) {
    serve::Request req{static_cast<std::uint64_t>(i + 1),
                       "query-" + std::to_string(i)};
    const auto frame = serve::encode_request(req);
    stream.insert(stream.end(), frame.begin(), frame.end());
    sent.push_back(std::move(req));
  }
  // Feed in pseudo-random chunk sizes (1..13 bytes) and expect every frame
  // back, in order, regardless of where the chunk boundaries fall.
  util::Rng rng(99);
  serve::FrameReader reader;
  std::vector<serve::Request> got;
  std::size_t off = 0;
  while (off < stream.size()) {
    const auto n = std::min<std::size_t>(1 + rng.uniform(0, 12), stream.size() - off);
    reader.feed({stream.data() + off, n});
    off += n;
    while (auto body = reader.next()) {
      const auto req = serve::decode_request(*body);
      ASSERT_TRUE(req.has_value());
      got.push_back(*req);
    }
  }
  EXPECT_EQ(got, sent);
  EXPECT_FALSE(reader.error());
}

TEST(Wire, FrameReaderOversizeLengthPoisons) {
  serve::FrameReader reader(/*max_body=*/1024);
  reader.feed(util::Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0x00});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
  // Once poisoned, further input never yields frames.
  reader.feed(serve::encode_request({1, "totals"}));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Serve, ConcurrentClientsGetByteIdenticalAnswers) {
  TestServer ts;
  const auto& queries = fixture_queries();
  const auto& expected = expected_answers();

  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&ts, &queries, &expected, &failures, c] {
      serve::Client client;
      if (!client.connect("127.0.0.1", ts.port())) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Stagger starting points so clients hit different queries at once.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const auto k = (i + static_cast<std::size_t>(c)) % queries.size();
          const auto answer = client.query(queries[k]);
          if (!answer || *answer != expected[k]) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The index-only contract under concurrency: nothing read any payload.
  EXPECT_EQ(counter_value(ts.store->metrics(), "store.payload_bytes_read"), 0u);
  const auto snap = ts.registry.snapshot();
  EXPECT_EQ(counter_value(snap, "serve.requests"),
            static_cast<std::uint64_t>(kClients * kRounds * queries.size()));
  EXPECT_EQ(counter_value(snap, "serve.connections_accepted"),
            static_cast<std::uint64_t>(kClients));
}

TEST(Serve, PipelinedRequestsAnsweredInOrder) {
  TestServer ts;
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));

  constexpr int kDepth = 50;
  const auto& queries = fixture_queries();
  const auto& expected = expected_answers();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kDepth; ++i) {
    const auto id = client.send(queries[i % queries.size()]);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (int i = 0; i < kDepth; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value()) << "response " << i << " missing";
    EXPECT_EQ(resp->id, ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(resp->status, serve::Status::kOk);
    EXPECT_EQ(resp->text, expected[static_cast<std::size_t>(i) % queries.size()]);
  }
}

TEST(Serve, BackpressureBoundsPipelineWithoutLosingResponses) {
  serve::ServeConfig cfg;
  cfg.max_pipeline = 4;               // force pauses early
  cfg.max_output_buffer = 16 * 1024;  // and on bytes too
  TestServer ts(cfg);
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));

  // Flood 400 requests without reading a single response. The server must
  // pause reads rather than buffer unboundedly, then answer everything
  // once we start draining.
  constexpr int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_NE(client.send("c2-liveness"), 0u);
  }
  for (int i = 0; i < kFlood; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value()) << "response " << i << " missing";
    EXPECT_EQ(resp->status, serve::Status::kOk);
  }
  EXPECT_GE(counter_value(ts.registry.snapshot(), "serve.backpressure_pauses"),
            1u);
}

TEST(Serve, IdleConnectionsAreClosed) {
  serve::ServeConfig cfg;
  cfg.idle_timeout_ms = 200;
  TestServer ts(cfg);
  auto fd = util::tcp_connect("127.0.0.1", ts.port(), 2000);
  ASSERT_TRUE(fd.valid());
  // Say nothing; the server must hang up on us, not wait forever.
  std::uint8_t buf[16];
  const int n = util::recv_some(fd.get(), buf, sizeof(buf), 5000);
  EXPECT_EQ(n, 0) << "expected orderly close on the idle connection";
  EXPECT_GE(counter_value(ts.registry.snapshot(), "serve.idle_timeouts"), 1u);
}

TEST(Serve, GracefulStopDrainsInFlightRequests) {
  TestServer ts;
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));

  constexpr int kInFlight = 20;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_NE(client.send("totals"), 0u);
  }
  // Give the burst a moment to land in the server's socket buffer, then
  // stop. Drain must answer all 20 before closing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server->stop();
  for (int i = 0; i < kInFlight; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value()) << "request " << i << " dropped in drain";
    EXPECT_EQ(resp->status, serve::Status::kOk);
  }
  // After drain the listener is gone: fresh connections are refused.
  serve::Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", ts.port(),
                            {.connect_timeout_ms = 200, .max_retries = 0}));
}

TEST(Serve, ProtocolGarbageClosesThatConnectionOnly) {
  TestServer ts;
  // An impossible length prefix: poisons the deframer, answered by one
  // status-1 response and a close.
  send_raw(ts.port(), util::Bytes(16, 0xFF));
  // A plausible frame whose body is not a request.
  util::Bytes junk{0x00, 0x00, 0x00, 0x04, 0xde, 0xad, 0xbe, 0xef};
  send_raw(ts.port(), junk);

  EXPECT_GE(counter_value(ts.registry.snapshot(), "serve.protocol_errors"), 2u);
  // The server itself is unharmed.
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));
  EXPECT_EQ(client.query("totals"), expected_answers()[0]);
}

TEST(Serve, FuzzedFramesNeverCrashOrWedgeTheServer) {
  serve::ServeConfig cfg;
  cfg.idle_timeout_ms = 150;  // reclaim connections parked on partial frames
  TestServer ts(cfg);

  // Corpus: one valid frame per fixture query — full of plausible length
  // fields for the structure-aware mutator to corrupt.
  std::vector<util::Bytes> corpus;
  {
    std::uint64_t id = 1;
    for (const auto& q : fixture_queries()) {
      corpus.push_back(serve::encode_request({id++, q}));
    }
  }

  int cases = 60;
  if (const char* env = std::getenv("MALNET_FUZZ_CASES")) {
    cases = std::min(std::atoi(env), 500);
  }
  testkit::Mutator mutator;
  util::Rng rng(22);
  for (int i = 0; i < cases; ++i) {
    const auto& base = corpus[rng.uniform(0, corpus.size() - 1)];
    auto mutant = mutator.mutate(base, rng);
    // Sometimes pipeline garbage behind a valid frame, so corruption lands
    // mid-stream rather than only at connection start.
    if (rng.uniform(0, 3) == 0) {
      const auto prefix = serve::encode_request({9999, "totals"});
      mutant.insert(mutant.begin(), prefix.begin(), prefix.end());
    }
    auto fd = util::tcp_connect("127.0.0.1", ts.port(), 2000);
    ASSERT_TRUE(fd.valid()) << "server stopped accepting at case " << i;
    (void)util::send_all(fd.get(), mutant, 1000);
    // Read whatever comes back (bounded); the connection must terminate —
    // by response+close, or by the idle reaper for partial frames.
    std::uint8_t buf[4096];
    for (int r = 0; r < 20; ++r) {
      if (util::recv_some(fd.get(), buf, sizeof(buf), 500) <= 0) break;
    }
  }

  // Liveness after the whole barrage: a well-formed client still gets a
  // byte-perfect answer, and the store never touched a payload.
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));
  EXPECT_EQ(client.query("totals"), expected_answers()[0]);
  EXPECT_EQ(counter_value(ts.store->metrics(), "store.payload_bytes_read"), 0u);
}

TEST(Serve, ClientRetriesConnectWithBackoff) {
  // Nothing listens here: all attempts fail, but boundedly and quickly.
  serve::Client client;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect(
      "127.0.0.1", 1,
      {.connect_timeout_ms = 100, .max_retries = 2, .backoff_ms = 10}));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_FALSE(client.connected());
}

// --- tracing wire extension and the introspection hooks (ISSUE 8) -----------

TEST(Wire, TracedRequestRoundTripAndBackwardCompat) {
  // Untraced requests still emit the V1 magic — byte-for-byte what an old
  // client produces, so old servers never see MQR2.
  const serve::Request untraced{9, "totals"};
  const auto v1 = serve::encode_request(untraced);
  ASSERT_GE(v1.size(), serve::kFramePrefixSize + 4);
  EXPECT_EQ(v1[4], 'M');
  EXPECT_EQ(v1[5], 'Q');
  EXPECT_EQ(v1[6], 'R');
  EXPECT_EQ(v1[7], '1');

  const serve::Request traced{9, "totals", 0xDEADBEEF, 42};
  const auto v2 = serve::encode_request(traced);
  EXPECT_EQ(v2[7], '2');
  EXPECT_EQ(v2.size(), v1.size() + 16);  // two extra u64 fields
  serve::FrameReader reader;
  reader.feed(v2);
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = serve::decode_request(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, traced);
  // A V2 body truncated into the fixed header is rejected, not misread.
  const auto short_v2 =
      util::Bytes(body->begin(), body->begin() + serve::kRequestHeaderSizeV2 - 1);
  EXPECT_FALSE(serve::decode_request(util::BytesView{short_v2}).has_value());
}

TEST(Serve, TracedRequestsProduceServerSpans) {
  obs::Tracer spans;
  spans.set_enabled(true);
  serve::ServeConfig cfg;
  cfg.spans = &spans;
  TestServer ts(cfg);
  serve::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));
  // Untraced first: no span recorded.
  ASSERT_TRUE(client.query("totals").has_value());
  EXPECT_TRUE(spans.snapshot().empty());

  client.set_trace(0x1234);
  EXPECT_EQ(client.trace_id(), 0x1234u);
  ASSERT_TRUE(client.query("families").has_value());
  const auto recorded = spans.snapshot();
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0].trace_id, 0x1234u);
  EXPECT_EQ(recorded[0].span_id, client.last_span_id());
  EXPECT_EQ(recorded[0].name, "serve:families");
  EXPECT_EQ(recorded[0].category, "serve");
  EXPECT_EQ(recorded[0].clock, 'w');
  ts.server->stop();
}

TEST(Serve, SlowLogCapturesQueriesAboveThreshold) {
  serve::ServeConfig cfg;
  cfg.slow_threshold_us = 0;  // everything is "slow": deterministic capture
  TestServer ts(cfg);
  serve::Client client;
  client.set_trace(0xF00D);
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port()));
  ASSERT_TRUE(client.query("totals").has_value());
  ASSERT_TRUE(client.query("families").has_value());
  ts.server->stop();

  const auto& log = ts.server->slow_log();
  EXPECT_EQ(log.seen(), 2u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  bool saw_totals = false;
  for (const auto& e : entries) {
    EXPECT_EQ(e.op.rfind("query:", 0), 0u);
    EXPECT_EQ(e.trace_id, 0xF00Du);
    EXPECT_GT(e.bytes, 0u);
    EXPECT_NE(e.peer.find("127.0.0.1:"), std::string::npos);
    saw_totals = saw_totals || e.op == "query:totals";
  }
  EXPECT_TRUE(saw_totals);
  // The text rendering (the /slowz body) lists both.
  EXPECT_NE(log.render_text().find("op=query:families"), std::string::npos);
}

TEST(Serve, ConnectionTableTracksLivePeers) {
  TestServer ts;
  EXPECT_FALSE(ts.server->draining());
  serve::Client a, b;
  ASSERT_TRUE(a.connect("127.0.0.1", ts.port()));
  ASSERT_TRUE(b.connect("127.0.0.1", ts.port()));
  ASSERT_TRUE(a.query("totals").has_value());
  ASSERT_TRUE(b.query("totals").has_value());
  // The table refreshes once per poll tick; wait for it to see both.
  std::vector<serve::ConnectionInfo> conns;
  for (int i = 0; i < 100; ++i) {
    conns = ts.server->connections();
    if (conns.size() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(conns.size(), 2u);
  for (const auto& conn : conns) {
    EXPECT_NE(conn.peer.find("127.0.0.1:"), std::string::npos);
    EXPECT_FALSE(conn.paused);
  }
  ts.server->stop();
  EXPECT_TRUE(ts.server->draining());
  EXPECT_TRUE(ts.server->connections().empty());
}
