// Minimal DHT-style peer-to-peer messages for Mozi and Hajime (Table 6):
// the bencoded KRPC ping and pong Mozi inherits from BitTorrent DHT, which
// the sandbox's P2P guests send and answer (emu/malproc.cpp). These
// families have no central C2, so the D-C2s pipeline filters them out by
// label (§2.3a) — but they must still *emit* recognisable P2P traffic for
// the sandbox capture to show. Peer exchange (get_peers) is not modelled:
// the study never walks a P2P overlay.
#pragma once

#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace malnet::proto::p2p {

struct DhtPing {
  std::string node_id;  // 20 bytes
  std::string txn;      // 2 bytes
};

/// "d1:ad2:id20:<id>e1:q4:ping1:t2:<txn>1:y1:qe"
[[nodiscard]] util::Bytes encode_ping(const DhtPing& ping);
[[nodiscard]] std::optional<DhtPing> decode_ping(util::BytesView wire);

/// "d1:rd2:id20:<id>e1:t2:<txn>1:y1:re"
[[nodiscard]] util::Bytes encode_pong(const DhtPing& pong);

/// Cheap classifier: does this datagram look like DHT/KRPC traffic?
[[nodiscard]] bool looks_like_dht(util::BytesView wire);

}  // namespace malnet::proto::p2p
