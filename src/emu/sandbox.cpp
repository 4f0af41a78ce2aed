#include "emu/sandbox.hpp"

#include <set>

#include "dns/message.hpp"
#include "ids/engine.hpp"
#include "util/log.hpp"

namespace malnet::emu {

std::string to_string(SandboxMode m) {
  switch (m) {
    case SandboxMode::kObserve: return "observe";
    case SandboxMode::kLive: return "live";
    case SandboxMode::kWeaponized: return "weaponized";
  }
  return "?";
}

void SandboxReport::save_pcap(const std::string& path) const {
  net::PcapWriter w;
  for (const auto& p : capture) w.add(p);
  w.save(path);
}

namespace {
/// The "martian" address the fake DNS resolves everything to. Unregistered
/// on the network, so un-NATed flows toward it simply go dark.
constexpr net::Ipv4 kMartian{10, 99, 7, 7};

struct FlowKey4 {
  std::uint8_t proto;
  net::Port guest_port;
  net::Endpoint peer;
  auto operator<=>(const FlowKey4&) const = default;
};
}  // namespace

// ---------------------------------------------------------------------------

class Sandbox::Run {
 public:
  Run(Sandbox& box, sim::Network& net, std::uint64_t id, net::Ipv4 guest_ip,
      net::Ipv4 victim_ip, mal::MbfBinary content, SandboxOptions opts,
      util::Rng rng, RunCallback done)
      : box_(box),
        id_(id),
        opts_(opts),
        done_(std::move(done)),
        victim_(std::make_unique<Victim>(net, victim_ip, *this)),
        guest_(std::make_unique<sim::Host>(net, guest_ip, "sandbox-guest")) {
    start_sim_us_ = net.now().us;
    report_.parsed = true;

    if (opts_.mode == SandboxMode::kLive) {
      if (!opts_.allowed_c2) throw std::invalid_argument("live mode needs allowed_c2");
      ids_ = std::make_unique<ids::Engine>(ids::containment_policy(*opts_.allowed_c2));
    }

    guest_->set_tap([this](const net::Packet& p, bool outbound) { tap(p, outbound); });
    guest_->set_outbound_filter([this](net::Packet& p) { return filter(p); });
    guest_->set_inbound_rewriter([this](net::Packet& p) { rewrite_inbound(p); });

    MalProcOptions mp;
    mp.profiles = box.cfg_.profiles;
    mp.attack_pps = opts_.attack_pps;
    mp.attack_cap = opts_.attack_cap;
    mp.c2_retry_limit = opts_.c2_retry_limit;
    mp.c2_retry_delay = opts_.c2_retry_delay;
    proc_ = std::make_unique<MalwareProcess>(*guest_, std::move(content.behavior),
                                             std::move(rng), mp);
    proc_->start();

    guest_->schedule_safe(opts_.duration, [this]() { finalize(); });
  }

  /// For unparseable binaries: an empty run that reports failure.
  Run(Sandbox& box, std::uint64_t id, sim::EventScheduler& sched, RunCallback done)
      : box_(box), id_(id), done_(std::move(done)) {
    start_sim_us_ = sched.now().us;
    sched.after(sim::Duration::micros(1), [this]() { finalize(); });
  }

 private:
  friend class Sandbox;

  /// Catch-all fake victim: completes handshakes on redirected scan ports
  /// and records the first payload of each connection (§2.4 handshaker).
  class Victim : public sim::Host {
   public:
    Victim(sim::Network& net, net::Ipv4 ip, Run& run)
        : sim::Host(net, ip, "fake-victim"), run_(run) {}

    void ensure_port(net::Port port) {
      if (tcp_listening(port)) return;
      tcp_listen(port, [this, port](sim::TcpConn& conn) {
        conn.on_data([this, port](sim::TcpConn& c, util::BytesView data) {
          run_.record_exploit(port, c.remote(), data);
        });
      });
    }

   private:
    Run& run_;
  };

  void record_exploit(net::Port port, net::Endpoint guest_peer, util::BytesView data) {
    if (report_.exploits.size() >= 256) return;  // plenty for attribution
    ExploitCapture cap;
    cap.port = port;
    const auto it = orig_dst_by_guest_port_.find(guest_peer.port);
    cap.original_dst = it != orig_dst_by_guest_port_.end() ? it->second.ip : net::Ipv4{};
    cap.payload.assign(data.begin(), data.end());
    report_.exploits.push_back(std::move(cap));
  }

  void tap(const net::Packet& p, bool outbound) {
    if (report_.capture.size() < kCaptureCap) report_.capture.push_back(p);
    if (outbound) {
      ++report_.packets_out;
      report_.activated = true;
      if (p.proto == net::Protocol::kUdp && p.dst_port == 53) {
        if (const auto q = dns::decode(p.payload); q && !q->questions.empty()) {
          report_.dns_queries.push_back(q->questions.front().name);
        }
      }
    } else if (opts_.mode == SandboxMode::kWeaponized && !p.payload.empty() &&
               p.proto == net::Protocol::kTcp && !report_.mitm_engaged) {
      // Inbound data on the hijacked flow (addresses already restored).
      const bool from_hint = opts_.c2_hint && p.src == opts_.c2_hint->ip;
      if (from_hint || p.src == kMartian) {
        report_.mitm_engaged = true;
        report_.mitm_first_data = p.payload;
      }
    }
  }

  void nat_to(net::Packet& p, net::Endpoint to) {
    const net::Endpoint orig{p.dst, p.dst_port};
    const FlowKey4 fwd{static_cast<std::uint8_t>(p.proto), p.src_port, orig};
    nat_forward_[fwd] = to;
    nat_reverse_[FlowKey4{static_cast<std::uint8_t>(p.proto), p.src_port, to}] = orig;
    orig_dst_by_guest_port_[p.src_port] = orig;
    p.dst = to.ip;
    p.dst_port = to.port;
  }

  bool apply_existing_nat(net::Packet& p) {
    const FlowKey4 fwd{static_cast<std::uint8_t>(p.proto), p.src_port,
                       net::Endpoint{p.dst, p.dst_port}};
    const auto it = nat_forward_.find(fwd);
    if (it == nat_forward_.end()) return false;
    p.dst = it->second.ip;
    p.dst_port = it->second.port;
    return true;
  }

  void rewrite_inbound(net::Packet& p) {
    const FlowKey4 rev{static_cast<std::uint8_t>(p.proto), p.dst_port,
                       net::Endpoint{p.src, p.src_port}};
    const auto it = nat_reverse_.find(rev);
    if (it == nat_reverse_.end()) return;
    p.src = it->second.ip;
    p.src_port = it->second.port;
  }

  bool drop(const net::Packet&) {
    ++report_.packets_dropped;
    return false;
  }

  bool filter(net::Packet& p) {
    if (apply_existing_nat(p)) return true;

    // DNS: observe/weaponized modes answer from the wildcard fake.
    if (p.proto == net::Protocol::kUdp && p.dst_port == 53) {
      if (opts_.mode == SandboxMode::kLive) {
        const bool pass = ids_->inspect(p);
        if (!pass) ++report_.packets_dropped;
        return pass;
      }
      nat_to(p, {box_.fake_dns_->addr(), 53});
      return true;
    }

    switch (opts_.mode) {
      case SandboxMode::kObserve: {
        if (p.proto != net::Protocol::kTcp) return drop(p);  // no raw/UDP egress
        // InetSim web fake: connectivity checks against the fake-resolved
        // address succeed (§2.6a).
        if (p.dst == kMartian && p.dst_port == 80) {
          nat_to(p, {box_.fake_http_->addr(), 80});
          return true;
        }
        // Handshaker bookkeeping: count distinct destinations per port, and
        // per-endpoint attempts. Scan sweeps touch each victim once; a
        // *repeated* endpoint is C2-style beaconing and must stay dark —
        // impersonating it would hijack the C2 flow instead of an exploit.
        bool repeat_endpoint = false;
        if (p.flags.syn && !p.flags.ack) {
          auto& seen = distinct_dsts_[p.dst_port];
          seen.insert(p.dst);
          if (seen.size() >= static_cast<std::size_t>(opts_.handshaker_threshold)) {
            redirected_ports_.insert(p.dst_port);
          }
          repeat_endpoint = ++syn_counts_[p.destination()] >= 2;
        }
        if (!repeat_endpoint && redirected_ports_.count(p.dst_port) > 0) {
          victim_->ensure_port(p.dst_port);
          nat_to(p, {victim_->addr(), p.dst_port});
          return true;
        }
        return drop(p);  // dark: C2 candidates show up as unanswered SYNs
      }
      case SandboxMode::kLive: {
        const bool pass = ids_->inspect(p);
        if (!pass) ++report_.packets_dropped;
        return pass;
      }
      case SandboxMode::kWeaponized: {
        if (p.proto != net::Protocol::kTcp || !opts_.mitm_target) return drop(p);
        const bool to_hint = opts_.c2_hint && p.dst == opts_.c2_hint->ip &&
                             p.dst_port == opts_.c2_hint->port;
        if (to_hint || p.dst == kMartian) {
          nat_to(p, *opts_.mitm_target);
          return true;
        }
        return drop(p);
      }
    }
    return drop(p);
  }

  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    if (proc_ != nullptr) {
      report_.evasion_abort = proc_->aborted_evasion();
      report_.commands = proc_->commands_received();
    }
    if (guest_ != nullptr) guest_->close_all_connections();
    // Tear down hosts now; the callback may start new runs immediately.
    proc_.reset();
    guest_.reset();
    victim_.reset();
    box_.note_report(opts_, report_, start_sim_us_);
    RunCallback done = std::move(done_);
    SandboxReport report = std::move(report_);
    box_.release(id_);  // destroys *this; locals above stay valid
    done(report);
  }

  static constexpr std::size_t kCaptureCap = 200000;

  Sandbox& box_;
  std::uint64_t id_;
  SandboxOptions opts_;
  RunCallback done_;
  SandboxReport report_;
  std::unique_ptr<ids::Engine> ids_;
  std::unique_ptr<Victim> victim_;
  std::unique_ptr<sim::Host> guest_;
  std::unique_ptr<MalwareProcess> proc_;
  std::map<FlowKey4, net::Endpoint> nat_forward_;
  std::map<FlowKey4, net::Endpoint> nat_reverse_;
  std::map<net::Port, net::Endpoint> orig_dst_by_guest_port_;
  std::map<net::Port, std::set<net::Ipv4>> distinct_dsts_;
  std::map<net::Endpoint, int> syn_counts_;
  std::set<net::Port> redirected_ports_;
  std::int64_t start_sim_us_ = 0;
  bool finalized_ = false;
};

// ---------------------------------------------------------------------------

Sandbox::Sandbox(sim::Network& net, SandboxConfig cfg)
    : net_(net), cfg_(cfg), rng_(cfg.seed, util::fnv1a64("sandbox")) {
  fake_dns_ = std::make_unique<inetsim::FakeDns>(net_, cfg_.guest_pool.host(2), kMartian);
  fake_http_ = std::make_unique<inetsim::FakeHttp>(net_, cfg_.guest_pool.host(3));
  if (cfg_.obs != nullptr) {
    auto& reg = cfg_.obs->registry;
    m_runs_ = &reg.counter("sandbox_runs");
    m_runs_by_mode_[0] = &reg.counter("sandbox.runs_observe");
    m_runs_by_mode_[1] = &reg.counter("sandbox.runs_live");
    m_runs_by_mode_[2] = &reg.counter("sandbox.runs_weaponized");
    m_unparseable_ = &reg.counter("sandbox.unparseable");
    m_unsupported_arch_ = &reg.counter("sandbox.unsupported_arch");
    m_activated_ = &reg.counter("sandbox.activated");
    m_evasion_aborts_ = &reg.counter("sandbox.evasion_aborts");
    m_exploits_captured_ = &reg.counter("sandbox.exploits_captured");
    m_packets_out_ = &reg.histogram("sandbox.packets_out",
                                    {0, 10, 100, 1000, 10000, 100000});
  }
}

void Sandbox::note_report(const SandboxOptions& opts, const SandboxReport& report,
                          std::int64_t started_sim_us) {
  if (cfg_.obs == nullptr) return;
  if (!report.parsed) {
    m_unparseable_->inc();
  } else if (report.unsupported_arch) {
    m_unsupported_arch_->inc();
  } else {
    if (report.activated) m_activated_->inc();
    if (report.evasion_abort) m_evasion_aborts_->inc();
    m_exploits_captured_->inc(report.exploits.size());
    m_packets_out_->record(static_cast<std::int64_t>(report.packets_out));
  }
  if (cfg_.obs->tracer.enabled()) {
    cfg_.obs->tracer.complete(
        "sandbox:" + to_string(opts.mode), "sandbox", started_sim_us,
        "\"packets_out\":" + std::to_string(report.packets_out) +
            ",\"activated\":" + (report.activated ? "true" : "false"));
  }
}

Sandbox::~Sandbox() = default;

net::Ipv4 Sandbox::martian() const { return kMartian; }

void Sandbox::start(util::BytesView binary, SandboxOptions opts, RunCallback done) {
  if (!done) throw std::invalid_argument("Sandbox::start: null callback");
  ++total_runs_;
  if (m_runs_ != nullptr) {
    m_runs_->inc();
    m_runs_by_mode_[static_cast<int>(opts.mode)]->inc();
  }
  const std::uint64_t id = next_run_id_++;

  auto content = mal::parse(binary);
  if (!content) {
    runs_.emplace(id, std::unique_ptr<Run>(
                          new Run(*this, id, net_.scheduler(), std::move(done))));
    return;
  }
  // Like the study's CnCHunter deployment, the sandbox emulates MIPS-32
  // only (§2.1); §6d names broader support as the scaling path.
  if (content->arch != mal::Arch::kMips32) {
    auto run = std::unique_ptr<Run>(new Run(*this, id, net_.scheduler(), std::move(done)));
    run->report_.parsed = true;
    run->report_.unsupported_arch = true;
    runs_.emplace(id, std::move(run));
    return;
  }

  // Two fresh addresses per run (guest + fake victim), never reused so
  // that concurrent runs cannot collide.
  const net::Ipv4 guest_ip = cfg_.guest_pool.host(next_offset_);
  const net::Ipv4 victim_ip = cfg_.guest_pool.host(next_offset_ + 1);
  next_offset_ += 2;
  if (next_offset_ >= cfg_.guest_pool.size() - 2) {
    throw std::runtime_error("Sandbox: guest pool exhausted");
  }

  runs_.emplace(id, std::unique_ptr<Run>(new Run(
                        *this, net_, id, guest_ip, victim_ip, std::move(*content),
                        opts, rng_.fork("run" + std::to_string(id)), std::move(done))));
}

void Sandbox::release(std::uint64_t id) { runs_.erase(id); }

}  // namespace malnet::emu
