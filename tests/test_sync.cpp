// malnet::sync — hash-tree replication of content-addressed stores
// (DESIGN.md §14).
//
// The load-bearing contracts (ISSUE 7): after any interleaving of syncs
// from N producers, compact() converges every replica to byte-identical
// merged artifacts; a re-sync against an up-to-date peer transfers zero
// segments; no fuzzed MSY1 frame — however malformed — can crash the
// server, wedge a connection, or commit a segment whose content hash does
// not verify; a sync over a flaky link either converges on retry or fails
// cleanly with the manifest untouched; and the store's orphan GC never
// collects what a live writer is mid-way through publishing.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_study.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "fault/fault.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "store/merkle.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"
#include "sync/client.hpp"
#include "sync/session.hpp"
#include "sync/wire.hpp"
#include "testkit/check.hpp"
#include "testkit/corpus.hpp"
#include "testkit/gen.hpp"
#include "testkit/mutate.hpp"
#include "testkit/scratch.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

using namespace malnet;
using testkit::CheckConfig;
namespace fs = std::filesystem;

namespace {

constexpr const char* kHexDigits = "0123456789abcdef";

/// Three small producer stores with pairwise-distinct studies (building
/// each runs a real two-shard study; do it once per binary).
const std::vector<std::string>& producer_dirs() {
  static const testkit::ScratchDir kRoot("sync_producers");
  static const std::vector<std::string> kDirs = [] {
    std::vector<std::string> dirs;
    for (int i = 0; i < 3; ++i) {
      const auto dir = kRoot.file(std::to_string(i));
      core::ParallelStudyConfig cfg;
      cfg.base.seed = 31 + static_cast<std::uint64_t>(i);
      cfg.base.world.total_samples = 24;
      cfg.base.run_probe_campaign = false;
      cfg.shards = 2;
      cfg.jobs = 2;
      store::Store st(dir);
      (void)store::run_store_study(cfg, st, /*resume=*/false);
      dirs.push_back(dir);
    }
    return dirs;
  }();
  return kDirs;
}

/// Every producer segment's raw bytes, sorted by content hash (the
/// canonical order import_segment-based references use).
const std::vector<util::Bytes>& all_producer_segments() {
  static const std::vector<util::Bytes> kSegments = [] {
    std::vector<std::pair<std::string, util::Bytes>> entries;
    for (const auto& dir : producer_dirs()) {
      store::Store st(dir);
      for (const auto& hash : st.segment_hashes()) {
        auto bytes = st.read_segment_bytes(hash);
        entries.emplace_back(hash, std::move(*bytes));
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<util::Bytes> out;
    for (auto& [hash, bytes] : entries) out.push_back(std::move(bytes));
    return out;
  }();
  return kSegments;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// Full on-disk identity of a store: MANIFEST plus every segment file, by
/// name. Two stores with equal snapshots are byte-identical artifacts.
std::string store_snapshot(const std::string& dir) {
  std::ostringstream out;
  out << "MANIFEST\n" << slurp(dir + "/MANIFEST");
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir + "/segments")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& p : files) {
    out << p.filename().string() << '\n' << slurp(p);
  }
  return out.str();
}

/// Ground truth for convergence: every producer segment imported directly
/// (no network) in canonical hash order, then compacted.
const std::string& reference_snapshot() {
  static const std::string kSnapshot = [] {
    const testkit::ScratchDir scratch("sync_reference");
    const auto& dir = scratch.path();
    {
      store::Store st(dir);
      for (const auto& bytes : all_producer_segments()) {
        (void)st.import_segment(util::BytesView{bytes});
      }
      (void)st.compact();
    }
    return store_snapshot(dir);
  }();
  return kSnapshot;
}

/// Total bytes of the segments in the store at `dir`: what pushing it to a
/// peer that holds none of them ships as PUT bodies.
std::uint64_t segment_bytes(const std::string& dir) {
  store::Store st(dir);
  std::uint64_t total = 0;
  for (const auto& hash : st.segment_hashes()) {
    total += st.read_segment_bytes(hash)->size();
  }
  return total;
}

// bytes_on_wire is a pure function of the two stores, so the producer
// tests gate it exactly. Each ceiling is twice the largest value measured:
// a whole-store push spent 182-787 bytes beyond its segment bodies across
// the six push orders, and a re-sync that ships nothing spent 847 bytes.
constexpr std::uint64_t kMaxPushOverheadBytes = 2 * 787;
constexpr std::uint64_t kMaxResyncBytes = 2 * 847;

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A started sync-enabled server over a fresh Store handle on `dir` — the
/// library-level equivalent of `malnetctl serve --allow-sync`.
struct SyncServer {
  std::unique_ptr<store::Store> store;
  obs::Registry registry;
  std::unique_ptr<sync::SessionHandler> handler;
  std::unique_ptr<serve::Server> server;

  explicit SyncServer(const std::string& dir, serve::ServeConfig cfg = {}) {
    store = std::make_unique<store::Store>(dir);
    handler = std::make_unique<sync::SessionHandler>(*store, registry);
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    if (cfg.io_threads == 0) cfg.io_threads = 2;
    cfg.aux_handler = [h = handler.get()](util::BytesView body,
                                          const serve::AuxContext& ctx) {
      return h->handle(body, ctx.peer);
    };
    cfg.max_aux_frame_body = sync::kMaxSyncFrameBody;
    server = std::make_unique<serve::Server>(*store, cfg, registry);
    server->start();
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

/// Opens the producer store at `dir` and pushes it to `port`.
std::optional<sync::SyncStats> push_store(const std::string& dir,
                                          std::uint16_t port,
                                          serve::ClientOptions opts = {}) {
  store::Store st(dir);
  sync::SyncClient client(st);
  if (!client.connect("127.0.0.1", port, opts)) return std::nullopt;
  return client.push();
}

std::vector<std::string> random_hashes(util::Rng& rng, std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::Bytes blob(8);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    out.push_back(store::content_hash(util::BytesView{blob}));
  }
  return out;
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Test-side reimplementation of the refinement walk, deliberately simpler
/// than SyncClient's: descend only into differing subtrees, enumerate once
/// a subtree is small. Collects members of `want` that `have` lacks.
void collect_missing(const store::SegmentSet& have,
                     const store::SegmentSet& want, const std::string& prefix,
                     std::vector<std::string>& out) {
  const auto h = have.summarize(prefix);
  const auto w = want.summarize(prefix);
  if (h.hash == w.hash) return;  // node-hash equality is set equality
  if (w.count == 0) return;
  if (h.count == 0 || w.count <= 4 || prefix.size() == store::kHashHexLen) {
    for (const auto& member : want.under(prefix)) {
      if (!have.contains(member)) out.push_back(member);
    }
    return;
  }
  for (const auto& child : w.children) {
    collect_missing(have, want, prefix + kHexDigits[child.digit], out);
  }
}

std::vector<std::string> brute_force_missing(const store::SegmentSet& have,
                                             const store::SegmentSet& want) {
  std::vector<std::string> out;
  std::set_difference(want.hashes().begin(), want.hashes().end(),
                      have.hashes().begin(), have.hashes().end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

// --- Merkle summaries --------------------------------------------------------

TEST(Merkle, SummarizeMatchesBruteForceAtEveryPrefix) {
  CheckConfig cfg;
  cfg.cases = 40;
  cfg.name = "summarize vs brute force";
  const auto r = testkit::check(
      testkit::ints<std::uint64_t>(1, 1'000'000'000'000ULL),
      [](std::uint64_t seed) {
        util::Rng rng(seed, 5);
        const store::SegmentSet set(
            random_hashes(rng, rng.uniform(0, 50)));
        std::vector<std::string> prefixes = {""};
        for (int i = 0; i < 6; ++i) {
          std::string p;
          for (std::uint64_t d = 0, len = rng.uniform(1, 3); d < len; ++d) {
            p += kHexDigits[rng.uniform(0, 15)];
          }
          prefixes.push_back(p);
        }
        if (set.size() > 0) {  // a prefix that definitely has members
          prefixes.push_back(set.hashes().front().substr(0, 2));
        }
        for (const auto& prefix : prefixes) {
          const auto members = set.under(prefix);
          const auto node = set.summarize(prefix);
          if (node.count != members.size()) return false;
          if (node.hash !=
              store::set_hash(members.data(), members.data() + members.size())) {
            return false;
          }
          std::uint64_t child_total = 0;
          int last_digit = -1;
          for (const auto& child : node.children) {
            if (static_cast<int>(child.digit) <= last_digit) return false;
            last_digit = child.digit;
            const auto sub = set.under(prefix + kHexDigits[child.digit]);
            if (child.count != sub.size() || child.count == 0) return false;
            if (child.hash !=
                store::set_hash(sub.data(), sub.data() + sub.size())) {
              return false;
            }
            child_total += child.count;
          }
          if (prefix.size() < store::kHashHexLen && child_total != node.count) {
            return false;
          }
        }
        return true;
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(Merkle, RefinementWalkFindsExactlyTheSetDifference) {
  CheckConfig cfg;
  cfg.cases = 40;
  cfg.name = "refinement diff";
  const auto r = testkit::check(
      testkit::ints<std::uint64_t>(1, 1'000'000'000'000ULL),
      [](std::uint64_t seed) {
        util::Rng rng(seed, 9);
        const auto common = random_hashes(rng, rng.uniform(0, 40));
        const auto only_a = random_hashes(rng, rng.uniform(0, 20));
        const auto only_b = random_hashes(rng, rng.uniform(0, 20));
        const store::SegmentSet a(concat(common, only_a));
        const store::SegmentSet b(concat(common, only_b));
        const auto walk_matches = [](const store::SegmentSet& have,
                                     const store::SegmentSet& want) {
          std::vector<std::string> walked;
          collect_missing(have, want, "", walked);
          std::sort(walked.begin(), walked.end());
          return walked == brute_force_missing(have, want);
        };
        return walk_matches(a, b) && walk_matches(b, a);
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(Merkle, SummaryIsAPureFunctionOfTheSet) {
  util::Rng rng(22);
  auto hashes = random_hashes(rng, 30);
  const store::SegmentSet original(hashes);
  // Shuffle and duplicate the input: same set, so same summary.
  rng.shuffle(hashes);
  auto doubled = concat(hashes, hashes);
  const store::SegmentSet shuffled(doubled);
  EXPECT_EQ(original.summarize(""), shuffled.summarize(""));
  // One extra member must change the root hash.
  const store::SegmentSet grown(concat(hashes, random_hashes(rng, 1)));
  EXPECT_NE(original.summarize("").hash, grown.summarize("").hash);
  // The empty set has a well-defined summary with no children.
  const store::SegmentSet empty(std::vector<std::string>{});
  EXPECT_EQ(empty.summarize("").count, 0u);
  EXPECT_TRUE(empty.summarize("").children.empty());
}

TEST(Merkle, SegmentSetValidatesItsInput) {
  EXPECT_THROW((void)store::SegmentSet({"nothex"}), std::invalid_argument);
  EXPECT_THROW((void)store::SegmentSet({std::string(64, 'G')}),
               std::invalid_argument);
  const store::SegmentSet set({std::string(64, 'a')});
  EXPECT_TRUE(set.under("xyz").empty());                   // non-hex prefix
  EXPECT_TRUE(set.under(std::string(65, 'a')).empty());    // over-long prefix
  EXPECT_EQ(set.under("aa").size(), 1u);
}

// --- Wire codec --------------------------------------------------------------

TEST(SyncWire, RequestAndResponseRoundTrip) {
  const sync::SyncRequest req{77, sync::SyncOp::kGet,
                              util::to_bytes("payload-bytes")};
  serve::FrameReader reader(sync::kMaxSyncFrameBody);
  reader.feed(sync::encode_sync_request(req));
  auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = sync::decode_sync_request(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, req);

  const sync::SyncResponse resp{77, sync::SyncStatus::kError, sync::SyncOp::kGet,
                                util::to_bytes("err unknown segment")};
  reader.feed(sync::encode_sync_response(resp));
  body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded_resp = sync::decode_sync_response(*body);
  ASSERT_TRUE(decoded_resp.has_value());
  EXPECT_EQ(*decoded_resp, resp);
}

TEST(SyncWire, DecodeRejectsBadMagicOpAndStatus) {
  EXPECT_FALSE(sync::decode_sync_request(util::Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(sync::decode_sync_response(util::Bytes{1, 2, 3}).has_value());

  auto frame = sync::encode_sync_request({1, sync::SyncOp::kHello, {}});
  util::Bytes body(frame.begin() + serve::kFramePrefixSize, frame.end());
  body[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(sync::decode_sync_request(body).has_value());
  body[0] ^= 0xFF;
  body[12] = 5;  // first invalid op
  EXPECT_FALSE(sync::decode_sync_request(body).has_value());

  auto rframe = sync::encode_sync_response(
      {1, sync::SyncStatus::kOk, sync::SyncOp::kHello, {}});
  util::Bytes rbody(rframe.begin() + serve::kFramePrefixSize, rframe.end());
  rbody[12] = 2;  // first invalid status
  EXPECT_FALSE(sync::decode_sync_response(rbody).has_value());
}

TEST(SyncWire, NodeSummaryRoundTripAndValidation) {
  util::Rng rng(7);
  const store::SegmentSet set(random_hashes(rng, 25));
  for (const std::string prefix : {"", "0", "a", "ff"}) {
    const auto node = set.summarize(prefix);
    const auto decoded =
        sync::decode_node_summary(util::BytesView{sync::encode_node_summary(node)});
    ASSERT_TRUE(decoded.has_value()) << "prefix '" << prefix << "'";
    EXPECT_EQ(*decoded, node);
  }

  // Children out of order, counts not summing, trailing bytes: all rejected.
  auto node = set.summarize("");
  ASSERT_GE(node.children.size(), 2u);
  std::swap(node.children[0], node.children[1]);
  EXPECT_FALSE(
      sync::decode_node_summary(util::BytesView{sync::encode_node_summary(node)})
          .has_value());
  std::swap(node.children[0], node.children[1]);
  node.children[0].count += 1;
  EXPECT_FALSE(
      sync::decode_node_summary(util::BytesView{sync::encode_node_summary(node)})
          .has_value());
  node.children[0].count -= 1;
  auto payload = sync::encode_node_summary(node);
  payload.push_back(0);
  EXPECT_FALSE(sync::decode_node_summary(util::BytesView{payload}).has_value());
}

TEST(SyncWire, HashListRoundTripAndValidation) {
  util::Rng rng(8);
  auto hashes = random_hashes(rng, 12);
  std::sort(hashes.begin(), hashes.end());
  const auto decoded =
      sync::decode_hash_list(util::BytesView{sync::encode_hash_list(hashes)});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, hashes);

  auto unsorted = hashes;
  std::swap(unsorted.front(), unsorted.back());
  EXPECT_FALSE(
      sync::decode_hash_list(util::BytesView{sync::encode_hash_list(unsorted)})
          .has_value());
  auto duplicated = hashes;
  duplicated.push_back(duplicated.back());
  EXPECT_FALSE(
      sync::decode_hash_list(util::BytesView{sync::encode_hash_list(duplicated)})
          .has_value());
  // A count that cannot fit the remaining payload is malformed, not an
  // allocation request.
  util::ByteWriter w;
  w.u32(0xFFFFFFFF);
  EXPECT_FALSE(sync::decode_hash_list(util::BytesView{w.take()}).has_value());
}

TEST(SyncWire, FuzzedPayloadDecodersAreCanonical) {
  // decode enforces full consumption + validation, so decode success must
  // imply byte-exact re-encoding — no two wire forms for one value.
  util::Rng rng(22);
  const store::SegmentSet set(random_hashes(rng, 20));
  std::vector<util::Bytes> corpus = {
      sync::encode_node_summary(set.summarize("")),
      sync::encode_node_summary(set.summarize("a")),
      sync::encode_hash_list(set.hashes()),
      sync::encode_hash_list({}),
  };
  int cases = 300;
  if (const char* env = std::getenv("MALNET_FUZZ_CASES")) {
    cases = std::min(std::atoi(env), 2000);
  }
  testkit::Mutator mutator;
  for (int i = 0; i < cases; ++i) {
    const auto& base = corpus[rng.uniform(0, corpus.size() - 1)];
    const auto mutant = mutator.mutate(base, rng);
    if (const auto node = sync::decode_node_summary(util::BytesView{mutant})) {
      EXPECT_EQ(sync::encode_node_summary(*node), mutant);
    }
    if (const auto list = sync::decode_hash_list(util::BytesView{mutant})) {
      EXPECT_EQ(sync::encode_hash_list(*list), mutant);
    }
  }
}

// --- Convergence -------------------------------------------------------------

TEST(Sync, PushPermutationsConvergeByteIdentically) {
  std::vector<std::vector<int>> orders = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                          {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  std::vector<std::string> snapshots;
  for (const auto& order : orders) {
    std::string label;
    for (int i : order) label += static_cast<char>('0' + i);
    const testkit::ScratchDir scratch("sync_perm");
    const auto& dir = scratch.path();
    {
      SyncServer srv(dir);
      for (int i : order) {
        const auto stats = push_store(producer_dirs()[i], srv.port());
        ASSERT_TRUE(stats.has_value()) << "push " << i << " in order " << label;
        EXPECT_EQ(stats->segments_sent, 2u);
        EXPECT_EQ(stats->verify_failures, 0u);
        EXPECT_LE(stats->bytes_on_wire - segment_bytes(producer_dirs()[i]),
                  kMaxPushOverheadBytes)
            << "push " << i << " in order " << label;
      }
      EXPECT_EQ(counter_value(srv.registry.snapshot(), "sync.segments_imported"),
                6u);
      srv.server->stop();
    }
    {
      store::Store st(dir);
      ASSERT_EQ(st.segment_hashes().size(), 6u);
      (void)st.compact();
    }
    snapshots.push_back(store_snapshot(dir));
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i], snapshots[0]) << "order " << i << " diverged";
  }
  // And the network path equals the no-network reference import.
  EXPECT_EQ(snapshots[0], reference_snapshot());
}

TEST(Sync, ResyncIsANoOp) {
  const testkit::ScratchDir scratch("sync_resync");
  const auto& dir = scratch.path();
  SyncServer srv(dir);
  for (const auto& producer : producer_dirs()) {
    ASSERT_TRUE(push_store(producer, srv.port()).has_value());
  }
  // Every producer re-pushes: refinement must discover there is nothing to
  // send and ship zero segments, spending only summary-sized frames.
  for (const auto& producer : producer_dirs()) {
    const auto stats = push_store(producer, srv.port());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->segments_sent, 0u);
    EXPECT_LE(stats->bytes_on_wire, kMaxResyncBytes);
    EXPECT_GT(stats->bytes_saved, 0u);
  }
}

TEST(Sync, PullPopulatesAFreshReplica) {
  const auto src_dir = producer_dirs()[0];
  const testkit::ScratchDir scratch("sync_pull_replica");
  const auto& dir = scratch.path();
  SyncServer srv(src_dir);

  std::vector<std::string> expected;
  {
    store::Store src(src_dir);
    expected = src.segment_hashes();
  }
  {
    store::Store replica(dir);
    sync::SyncClient client(replica);
    ASSERT_TRUE(client.connect("127.0.0.1", srv.port()));
    const auto stats = client.pull();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->segments_received, expected.size());
    EXPECT_EQ(replica.segment_hashes(), expected);

    // Identical stores: one HELLO round trip, nothing transferred.
    const auto again = client.pull();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->segments_received, 0u);
    EXPECT_EQ(again->rounds, 1u);
    EXPECT_GT(again->bytes_saved, 0u);
  }
}

TEST(SyncProps, ImportOrderNeverChangesCompactedBytes) {
  // The aggregator-side half of convergence, swept over random segment
  // interleavings (whole-push permutations are covered above). Pinned case
  // count: each case imports + compacts a store, too heavy for the ambient
  // MALNET_FUZZ_CASES=2000 the CI fuzz smoke sets.
  CheckConfig cfg;
  cfg.cases = 12;
  cfg.env_overrides = false;
  cfg.name = "import-order invariance";
  const auto r = testkit::check(
      testkit::ints<std::uint64_t>(1, 1'000'000'000'000ULL),
      [](std::uint64_t seed) {
        auto order = all_producer_segments();
        util::Rng rng(seed, 3);
        rng.shuffle(order);
        const testkit::ScratchDir scratch("sync_order_case");
        const auto& dir = scratch.path();
        {
          store::Store st(dir);
          for (const auto& bytes : order) {
            (void)st.import_segment(util::BytesView{bytes});
          }
          (void)st.compact();
        }
        return store_snapshot(dir) == reference_snapshot();
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(Sync, ImportIsIdempotentAndGrowOnly) {
  const testkit::ScratchDir scratch("sync_import_semantics");
  const auto& dir = scratch.path();
  store::Store st(dir);
  const auto& segments = all_producer_segments();
  const auto first = st.import_segment(util::BytesView{segments[0]});
  EXPECT_TRUE(first.imported);
  const auto again = st.import_segment(util::BytesView{segments[0]});
  EXPECT_FALSE(again.imported);
  EXPECT_EQ(again.meta.hash, first.meta.hash);
  EXPECT_EQ(st.segment_hashes().size(), 1u);
  // Garbage is rejected before anything touches the manifest.
  EXPECT_THROW((void)st.import_segment(util::BytesView{util::Bytes(64, 0xAB)}),
               std::invalid_argument);
  EXPECT_EQ(st.segment_hashes().size(), 1u);
}

// --- Fuzzing the server ------------------------------------------------------

TEST(Sync, FuzzedSyncFramesNeverCorruptTheStore) {
  const testkit::ScratchDir scratch("sync_fuzz_target");
  const auto& dir = scratch.path();
  std::vector<std::string> preloaded;
  {
    store::Store st(dir);
    store::Store producer(producer_dirs()[0]);
    for (const auto& hash : producer.segment_hashes()) {
      (void)st.import_segment(util::BytesView{*producer.read_segment_bytes(hash)});
    }
    preloaded = st.segment_hashes();
  }

  serve::ServeConfig cfg;
  cfg.idle_timeout_ms = 150;  // reclaim connections parked on partial frames
  SyncServer srv(dir, cfg);

  // Corpus: the committed MSY1 seed entries plus frames aimed at real
  // fixture content, so GET/PUT mutants start from requests that reach the
  // read and import paths.
  auto corpus = testkit::corpus_inputs("sync_");
  ASSERT_GE(corpus.size(), 5u);
  {
    store::Store producer(producer_dirs()[1]);
    const auto hashes = producer.segment_hashes();
    util::ByteWriter get_req;
    get_req.lp16(preloaded.front());
    corpus.push_back(
        sync::encode_sync_request({7, sync::SyncOp::kGet, get_req.take()}));
    util::ByteWriter tree_req;
    tree_req.lp16(std::string_view{preloaded.front()}.substr(0, 1));
    corpus.push_back(
        sync::encode_sync_request({8, sync::SyncOp::kTree, tree_req.take()}));
    corpus.push_back(sync::encode_sync_request(
        {9, sync::SyncOp::kPut, *producer.read_segment_bytes(hashes.front())}));
  }

  int cases = 60;
  if (const char* env = std::getenv("MALNET_FUZZ_CASES")) {
    cases = std::min(std::atoi(env), 500);
  }
  testkit::Mutator mutator;
  util::Rng rng(22);
  const auto hello = sync::encode_sync_request({9999, sync::SyncOp::kHello, {}});
  for (int i = 0; i < cases; ++i) {
    const auto& base = corpus[rng.uniform(0, corpus.size() - 1)];
    auto mutant = mutator.mutate(base, rng);
    // Sometimes pipeline garbage behind a valid frame, so corruption lands
    // mid-stream rather than only at connection start.
    if (rng.uniform(0, 3) == 0) {
      mutant.insert(mutant.begin(), hello.begin(), hello.end());
    }
    auto fd = util::tcp_connect("127.0.0.1", srv.port(), 2000);
    ASSERT_TRUE(fd.valid()) << "server stopped accepting at case " << i;
    (void)util::send_all(fd.get(), mutant, 1000);
    std::uint8_t buf[4096];
    for (int r = 0; r < 20; ++r) {
      if (util::recv_some(fd.get(), buf, sizeof(buf), 500) <= 0) break;
    }
  }

  // Liveness after the barrage: a real sync still completes.
  const auto stats = push_store(producer_dirs()[1], srv.port());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->verify_failures, 0u);
  srv.server->stop();

  // Whatever the fuzzer managed to commit, the store reopens cleanly and
  // every journaled segment verifies against its content hash.
  store::Store st(dir);
  const auto hashes = st.segment_hashes();
  for (const auto& hash : hashes) {
    std::optional<util::Bytes> bytes;
    EXPECT_NO_THROW(bytes = st.read_segment_bytes(hash))
        << "journaled segment fails verification: " << hash;
    EXPECT_TRUE(bytes.has_value());
  }
  for (const auto& hash : preloaded) {
    EXPECT_TRUE(std::binary_search(hashes.begin(), hashes.end(), hash))
        << "fuzzing lost a committed segment";
  }
}

// --- Chaos: sync over a flaky link -------------------------------------------

namespace {

/// TCP proxy that forwards between the client and an upstream server while
/// injecting connection-level faults (drop, truncate-and-drop, stall) at
/// rates floored from the `flaky` chaos profile. Injection stops after
/// kMaxFaults so a retrying client is guaranteed to eventually converge.
class FlakyProxy {
 public:
  static constexpr int kMaxFaults = 25;

  FlakyProxy(std::uint16_t upstream_port, std::uint64_t seed)
      : upstream_port_(upstream_port), rng_(seed, 17) {
    auto listen = util::tcp_listen("127.0.0.1", 0);
    port_ = listen.port;
    listener_ = std::move(listen.fd);
    thread_ = std::thread([this] { run(); });
  }
  ~FlakyProxy() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int faults_injected() const { return faults_.load(); }

 private:
  void run() {
    while (!stop_.load()) {
      pollfd p{listener_.get(), POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      util::Fd client(::accept(listener_.get(), nullptr, nullptr));
      if (!client.valid()) continue;
      util::set_nonblocking(client.get(), false);
      auto upstream = util::tcp_connect("127.0.0.1", upstream_port_, 2000);
      if (!upstream.valid()) continue;
      pump(client, upstream);
    }
  }

  /// Forwards until either side closes, a fault kills the connection, or
  /// the link goes idle. One connection at a time — the sync client is
  /// strictly request/response, so this never starves anyone.
  void pump(util::Fd& client, util::Fd& upstream) {
    const auto profile = faultsim::make_fault_config(faultsim::Profile::kFlaky);
    const double drop_p = std::max(0.04, profile.burst_start_prob);
    const double trunc_p = std::max(0.04, profile.truncate_prob);
    const double stall_p = std::max(0.08, profile.latency_spike_prob);
    std::uint8_t buf[16 * 1024];
    int idle = 0;
    while (!stop_.load() && idle < 100) {
      pollfd fds[2] = {{client.get(), POLLIN, 0}, {upstream.get(), POLLIN, 0}};
      const int ready = ::poll(fds, 2, 20);
      if (ready < 0) return;
      if (ready == 0) {
        ++idle;
        continue;
      }
      idle = 0;
      for (int side = 0; side < 2; ++side) {
        if (!(fds[side].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const int from = side == 0 ? client.get() : upstream.get();
        const int to = side == 0 ? upstream.get() : client.get();
        const auto n = ::recv(from, buf, sizeof(buf), 0);
        if (n <= 0) return;  // one side closed: tear the link down
        std::size_t forward = static_cast<std::size_t>(n);
        if (faults_.load() < kMaxFaults) {
          if (rng_.chance(drop_p)) {
            faults_.fetch_add(1);
            return;  // swallow the chunk and kill the connection
          }
          if (rng_.chance(trunc_p)) {
            faults_.fetch_add(1);
            forward /= 2;  // deliver a torn chunk, then kill the connection
            (void)util::send_all(to, {buf, forward}, 2000);
            return;
          }
          if (rng_.chance(stall_p)) {
            faults_.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
          }
        }
        if (!util::send_all(to, {buf, forward}, 2000)) return;
      }
    }
  }

  std::uint16_t upstream_port_;
  std::uint16_t port_ = 0;
  util::Fd listener_;
  util::Rng rng_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> faults_{0};
};

}  // namespace

TEST(Sync, FlakyLinkRetriesConvergeWithManifestIntactThroughout) {
  const testkit::ScratchDir scratch("sync_chaos");
  const auto& dir = scratch.path();
  SyncServer srv(dir);
  FlakyProxy proxy(srv.port(), 22);

  const serve::ClientOptions opts{.connect_timeout_ms = 1000,
                                  .io_timeout_ms = 2000,
                                  .max_retries = 1,
                                  .backoff_ms = 20};
  bool converged = false;
  int attempts = 0;
  for (; attempts < 40 && !converged; ++attempts) {
    bool all_pushed = true;
    for (const auto& producer : producer_dirs()) {
      if (!push_store(producer, proxy.port(), opts).has_value()) {
        all_pushed = false;  // failed cleanly; retry the whole producer
        break;
      }
    }
    // Whether or not the attempt survived the link, the aggregator must
    // reopen cleanly and every journaled segment must verify.
    store::Store check(dir);
    const auto hashes = check.segment_hashes();
    for (const auto& hash : hashes) {
      std::optional<util::Bytes> bytes;
      EXPECT_NO_THROW(bytes = check.read_segment_bytes(hash))
          << "manifest corrupted after a flaky attempt";
      EXPECT_TRUE(bytes.has_value());
    }
    converged = all_pushed && hashes.size() == 6;
  }
  EXPECT_TRUE(converged) << "no convergence in " << attempts << " attempts";
  EXPECT_GT(proxy.faults_injected(), 0) << "proxy never exercised a fault";

  // Converged means converged: compacting now matches the reference.
  proxy.stop();
  srv.server->stop();
  srv.server.reset();
  srv.handler.reset();
  srv.store.reset();
  {
    store::Store st(dir);
    (void)st.compact();
  }
  EXPECT_EQ(store_snapshot(dir), reference_snapshot());
}

// --- GC vs writers (the ISSUE 7 fix) -----------------------------------------

TEST(Store, GcSkipsWhileAnotherHandleHoldsTheWriterLock) {
  const testkit::ScratchDir scratch("sync_gc_guard");
  const auto& dir = scratch.path();
  {
    store::Store st(dir);
    (void)st.import_segment(util::BytesView{all_producer_segments()[0]});
  }
  // Crash litter: an unreferenced segment and a stale atomic-write temp —
  // exactly what a mid-import window looks like from outside.
  const auto litter_seg = dir + "/segments/feedfeedfeedfeed.seg";
  const auto litter_tmp = dir + "/segments/.feedfeed.seg.tmp7";
  std::ofstream(litter_seg, std::ios::binary) << "not-yet-journaled";
  std::ofstream(litter_tmp, std::ios::binary) << "half-written";

  // A "writer in another process": an independent shared hold on DIR/LOCK
  // (DirLock opens its own descriptor, so in-process handles contend too).
  const int fd =
      ::open((dir + "/LOCK").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_SH), 0);
  {
    store::Store st(dir);  // open runs GC — which must refuse to collect
    EXPECT_EQ(counter_value(st.metrics(), "store.gc_skipped"), 1u);
    EXPECT_EQ(counter_value(st.metrics(), "store.orphans_removed"), 0u);
    EXPECT_TRUE(fs::exists(litter_seg));
    EXPECT_TRUE(fs::exists(litter_tmp));
  }
  ::close(fd);  // the "writer" finishes (or its process dies)

  store::Store st(dir);  // now the same litter is collectable
  EXPECT_EQ(counter_value(st.metrics(), "store.orphans_removed"), 2u);
  EXPECT_FALSE(fs::exists(litter_seg));
  EXPECT_FALSE(fs::exists(litter_tmp));
  ASSERT_EQ(st.segment_hashes().size(), 1u);
  EXPECT_TRUE(st.read_segment_bytes(st.segment_hashes()[0]).has_value());
}

TEST(Sync, KilledSyncLeavesAResumableStoreThatReconverges) {
  // State a SIGKILL mid-import leaves behind: some segments journaled, one
  // renamed into place but never published in MANIFEST, one staging temp.
  const testkit::ScratchDir scratch("sync_killed");
  const auto& dir = scratch.path();
  std::vector<std::string> journaled;
  {
    store::Store st(dir);
    store::Store producer(producer_dirs()[0]);
    for (const auto& hash : producer.segment_hashes()) {
      (void)st.import_segment(util::BytesView{*producer.read_segment_bytes(hash)});
    }
    journaled = st.segment_hashes();
  }
  {
    store::Store producer(producer_dirs()[1]);
    const auto hash = producer.segment_hashes().front();
    const auto bytes = *producer.read_segment_bytes(hash);
    const auto name = hash.substr(0, 16) + ".seg";
    std::ofstream(dir + "/segments/" + name, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    std::ofstream(dir + "/segments/." + name + ".tmp123", std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() / 2));
  }

  // Nobody holds the lock after a SIGKILL, so reopening collects both
  // litter files and the journaled set is exactly what was published.
  {
    store::Store st(dir);
    EXPECT_EQ(counter_value(st.metrics(), "store.orphans_removed"), 2u);
    EXPECT_EQ(st.segment_hashes(), journaled);
  }

  // The interrupted sync simply reruns: refinement re-discovers the lost
  // segment and the aggregator still converges to the reference bytes.
  {
    SyncServer srv(dir);
    for (int i : {1, 2}) {
      const auto stats = push_store(producer_dirs()[i], srv.port());
      ASSERT_TRUE(stats.has_value());
      EXPECT_EQ(stats->segments_sent, 2u);
    }
    const auto again = push_store(producer_dirs()[1], srv.port());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->segments_sent, 0u);
    srv.server->stop();
  }
  {
    store::Store st(dir);
    (void)st.compact();
  }
  EXPECT_EQ(store_snapshot(dir), reference_snapshot());
}

// --- traced sync frames and session introspection (ISSUE 8) -----------------

TEST(SyncWire, TracedRequestRoundTripAndBackwardCompat) {
  // Untraced requests keep the MSY1 magic byte-for-byte.
  const sync::SyncRequest untraced{5, sync::SyncOp::kHello,
                                   util::to_bytes("hi")};
  const auto v1 = sync::encode_sync_request(untraced);
  ASSERT_GE(v1.size(), serve::kFramePrefixSize + 4);
  EXPECT_EQ(v1[7], '1');

  sync::SyncRequest traced = untraced;
  traced.trace_id = 0xCAFE;
  traced.span_id = 3;
  const auto v2 = sync::encode_sync_request(traced);
  EXPECT_EQ(v2[7], '2');
  EXPECT_EQ(v2.size(), v1.size() + 16);
  serve::FrameReader reader(sync::kMaxSyncFrameBody);
  reader.feed(v2);
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = sync::decode_sync_request(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, traced);
  const auto short_v2 = util::Bytes(
      body->begin(), body->begin() + sync::kSyncRequestHeaderSizeV2 - 1);
  EXPECT_FALSE(sync::decode_sync_request(util::BytesView{short_v2}).has_value());
}

TEST(Sync, TracedPushSharesOneTraceIdAcrossBothNodes) {
  const testkit::ScratchDir scratch("sync_trace_replica");
  const auto& replica = scratch.path();
  obs::Tracer server_spans;
  server_spans.set_enabled(true);
  SyncServer srv(replica);
  srv.handler->set_tracer(&server_spans);

  store::Store producer(producer_dirs()[0]);
  sync::SyncClient client(producer);
  client.enable_tracing(0xAB5012);
  EXPECT_EQ(client.trace_id(), 0xAB5012u);
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()));
  const auto stats = client.push();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->segments_sent, 0u);
  srv.server->stop();

  // Client side: one wall span per rpc, all on the one trace id, span ids
  // unique (they are the request ids).
  const auto& client_events = client.trace_events();
  ASSERT_GE(client_events.size(), 2u);
  std::set<std::uint64_t> span_ids;
  for (const auto& ev : client_events) {
    EXPECT_EQ(ev.trace_id, 0xAB5012u);
    EXPECT_EQ(ev.clock, 'w');
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_EQ(ev.category, "sync");
    span_ids.insert(ev.span_id);
  }
  EXPECT_EQ(span_ids.size(), client_events.size());

  // Server side: a matching span per rpc, sharing the trace AND span ids —
  // what makes the merged Chrome trace line up per request.
  const auto server_events = server_spans.snapshot();
  ASSERT_EQ(server_events.size(), client_events.size());
  for (const auto& ev : server_events) {
    EXPECT_EQ(ev.trace_id, 0xAB5012u);
    EXPECT_EQ(ev.name.rfind("serve:sync:", 0), 0u);
    EXPECT_TRUE(span_ids.count(ev.span_id)) << ev.span_id;
  }

  // And the two sides merge into one parseable Chrome trace document.
  const auto merged = obs::merge_chrome_traces(
      {{"sync-client", obs::chrome_trace_json(client_events)},
       {"serve", obs::chrome_trace_json(server_events)}});
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(obs::json::parse(*merged).has_value());
}

TEST(Sync, SessionSlowLogRecordsOpsWithPeer) {
  const testkit::ScratchDir scratch("sync_slowlog_replica");
  const auto& replica = scratch.path();
  SyncServer srv(replica);
  srv.handler->configure_slow_log(/*capacity=*/8, /*threshold_us=*/0);

  ASSERT_TRUE(push_store(producer_dirs()[0], srv.port()).has_value());
  srv.server->stop();

  const auto& log = srv.handler->slow_log();
  EXPECT_GT(log.seen(), 0u);
  const auto entries = log.entries();
  ASSERT_FALSE(entries.empty());
  bool saw_put = false;
  for (const auto& e : entries) {
    EXPECT_EQ(e.op.rfind("sync:", 0), 0u);
    EXPECT_NE(e.peer.find("127.0.0.1:"), std::string::npos);
    saw_put = saw_put || e.op == "sync:put";
  }
  EXPECT_TRUE(saw_put);
}
