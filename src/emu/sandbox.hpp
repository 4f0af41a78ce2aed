// The sandbox: our CnCHunter stand-in (§2.1).
//
// A sandbox run boots a guest host, loads an MBF binary into a
// MalwareProcess, and interposes on the guest's traffic with a NAT filter
// whose policy depends on the mode:
//
//  * kObserve — "fake internet": DNS is answered by a wildcard fake
//    resolver; HTTP connectivity checks land on a fake web server (the
//    InetSim deployment of §2.6a); scan ports that cross the handshaker
//    threshold (>= 20 distinct destinations, §2.4) are redirected to a
//    catch-all fake victim that completes the handshake and records the
//    exploit payload; everything else goes dark. No packet reaches the
//    real network.
//
//  * kLive — restricted real connectivity for the 2-hour DDoS watch
//    (§2.5): only the designated C2 endpoint and DNS pass the perimeter;
//    all other traffic (including launched attack floods) is captured and
//    dropped, per the §2.6 containment policy.
//
//  * kWeaponized — CnCHunter's MITM probing (§2.1 mode 2): the guest's
//    C2-bound flow is NAT-rewritten to an arbitrary probe target; the
//    report says whether the target engaged with the malware's protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emu/malproc.hpp"
#include "inetsim/services.hpp"
#include "mal/binary.hpp"
#include "net/pcap.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace malnet::emu {

enum class SandboxMode { kObserve, kLive, kWeaponized };

[[nodiscard]] std::string to_string(SandboxMode m);

struct SandboxOptions {
  SandboxMode mode = SandboxMode::kObserve;
  sim::Duration duration = sim::Duration::minutes(10);
  /// kLive: the C2 endpoint allowed through the perimeter.
  std::optional<net::Endpoint> allowed_c2;
  /// kWeaponized: the C2 flow to hijack (from a prior observe run) and the
  /// probe target it is redirected to.
  std::optional<net::Endpoint> c2_hint;
  std::optional<net::Endpoint> mitm_target;
  /// Handshaker port threshold (§2.4 uses 20; swept by the ablation bench).
  int handshaker_threshold = 20;
  /// Attack generation caps forwarded to the malware process.
  double attack_pps = 200.0;
  sim::Duration attack_cap = sim::Duration::seconds(15);
  /// C2 reconnect policy forwarded to the malware process. Long live runs
  /// use a persistent retry loop (real bots retry indefinitely), which is
  /// what lets the 2 h watch outlast a server's post-probe dormancy.
  int c2_retry_limit = 2;
  sim::Duration c2_retry_delay = sim::Duration::seconds(20);
};

struct ExploitCapture {
  net::Port port = 0;          // service port the victim impersonated
  net::Ipv4 original_dst;      // the address the malware believed it attacked
  util::Bytes payload;         // first data the malware sent post-handshake
};

struct SandboxReport {
  bool parsed = false;          // binary container parsed
  bool unsupported_arch = false;  // parsed, but not MIPS-32 (§2.1, §6d)
  bool activated = false;       // emitted at least one packet
  bool evasion_abort = false;   // sample detected the sandbox and bailed
  std::vector<net::Packet> capture;      // guest-side, both directions
  std::vector<std::string> dns_queries;  // names the guest resolved
  std::vector<ExploitCapture> exploits;  // handshaker harvest (kObserve)
  bool mitm_engaged = false;             // kWeaponized: target spoke back
  util::Bytes mitm_first_data;           // first inbound bytes on that flow
  std::uint64_t packets_out = 0;
  std::uint64_t packets_dropped = 0;
  /// Commands the bot decoded (ground-truth aid for tests; the pipeline
  /// re-derives commands from `capture` via core::ddos).
  std::vector<proto::AttackCommand> commands;

  /// Writes `capture` as a standard pcap file.
  void save_pcap(const std::string& path) const;
};

using RunCallback = std::function<void(const SandboxReport&)>;

struct SandboxConfig {
  std::uint64_t seed = 7;
  /// Guest/victim addresses are carved from here (two per run).
  net::Subnet guest_pool{net::Ipv4{10, 77, 0, 0}, 16};
  /// Observability sink (owned by the enclosing pipeline; may be null).
  /// Runs and reports are counted in its registry; completed runs emit
  /// trace spans when its tracer is enabled.
  obs::Observer* obs = nullptr;
  /// Profile registry forwarded to every malware process (null = builtin).
  /// Not owned; must outlive the sandbox.
  const profile::Registry* profiles = nullptr;
};

/// Factory driving concurrent sandbox runs on one simulated network.
class Sandbox {
 public:
  Sandbox(sim::Network& net, SandboxConfig cfg = {});
  ~Sandbox();
  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  /// Starts a run; `done` fires once, after `opts.duration` of simulated
  /// time (immediately for unparseable binaries). The scheduler must be
  /// pumped (run/run_until) for the run to make progress.
  void start(util::BytesView binary, SandboxOptions opts, RunCallback done);

  [[nodiscard]] std::size_t active_runs() const { return runs_.size(); }
  [[nodiscard]] std::uint64_t total_runs() const { return total_runs_; }

  /// The wildcard address fake DNS hands out in observe/weaponized modes.
  [[nodiscard]] net::Ipv4 martian() const;

  /// The simulated network the sandbox runs on (fault hook-up point).
  [[nodiscard]] sim::Network& network() { return net_; }

 private:
  class Run;

  void release(std::uint64_t id);  // called by a finishing Run
  /// Observability hook, called by a finishing Run just before its callback:
  /// counts report outcomes and emits the run's trace span.
  void note_report(const SandboxOptions& opts, const SandboxReport& report,
                   std::int64_t started_sim_us);

  sim::Network& net_;
  SandboxConfig cfg_;
  util::Rng rng_;
  std::unique_ptr<inetsim::FakeDns> fake_dns_;
  std::unique_ptr<inetsim::FakeHttp> fake_http_;
  std::uint32_t next_offset_ = 16;  // low addresses reserved for infra
  std::uint64_t total_runs_ = 0;
  // Cached registry instruments (null when cfg_.obs is null); lookups are
  // mutex-guarded, increments are not — see obs/metrics.hpp.
  obs::Counter* m_runs_ = nullptr;
  obs::Counter* m_runs_by_mode_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* m_unparseable_ = nullptr;
  obs::Counter* m_unsupported_arch_ = nullptr;
  obs::Counter* m_activated_ = nullptr;
  obs::Counter* m_evasion_aborts_ = nullptr;
  obs::Counter* m_exploits_captured_ = nullptr;
  obs::Histogram* m_packets_out_ = nullptr;
  std::map<std::uint64_t, std::unique_ptr<Run>> runs_;
  std::uint64_t next_run_id_ = 1;
};

}  // namespace malnet::emu
