// DDoS command detection over a restricted-mode capture (§2.5): the
// protocol-profile method (a) decodes inbound C2 traffic with the binary and
// text dialects of the study's profile registry (profile::wire, the same
// codecs the bots and C2 servers run); the behavioural method (b) flags
// outbound bursts above a packets-per-second threshold to non-C2
// destinations and associates them with the last C2 command seen. Both
// methods then verify: (a) that the bot actually flooded the commanded
// target, (b) that the burst target appears (textually or as 4 raw bytes)
// in the associated command.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "emu/sandbox.hpp"
#include "profile/registry.hpp"
#include "proto/attack.hpp"

namespace malnet::core {

enum class DdosMethod { kProtocolProfile, kBehaviouralHeuristic };

[[nodiscard]] std::string to_string(DdosMethod m);

struct DdosDetection {
  DdosMethod method = DdosMethod::kProtocolProfile;
  proto::AttackCommand command;   // decoded (method a) or reconstructed (b)
  bool verified = false;          // survived the §2.5 manual-style check
  double observed_pps = 0.0;      // peak outbound rate toward the target
};

struct DdosDetectOptions {
  double pps_threshold = 100.0;   // §2.5b default
  /// Verification floor: a commanded attack must produce at least this many
  /// packets toward its target to count as launched.
  int min_attack_packets = 20;
};

/// Analyses one live-run capture. `c2` is the endpoint the run allowed
/// through the perimeter. Method (a) tries every binary and text profile in
/// `profiles`; `family_hint` narrows that to the hinted family's builtin and
/// variants. Commands no profile decodes (IRC-borne orders, unprofiled
/// variants) are left to method (b), §2.5b's reason for existing.
[[nodiscard]] std::vector<DdosDetection> detect_ddos(
    const emu::SandboxReport& report, net::Endpoint c2,
    std::optional<proto::Family> family_hint = std::nullopt,
    const DdosDetectOptions& opts = {},
    const profile::Registry& profiles = profile::Registry::builtin());

}  // namespace malnet::core
