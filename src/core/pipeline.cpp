#include "core/pipeline.hpp"

#include <algorithm>

#include "dns/resolver.hpp"
#include "mal/labels.hpp"
#include "util/log.hpp"

namespace malnet::core {

namespace {
constexpr std::int64_t kDayUs = 86'400'000'000LL;

util::LogStream plog() { return util::LogStream(util::LogLevel::kInfo, "pipeline"); }
}  // namespace

Pipeline::Pipeline(PipelineConfig cfg) : cfg_(std::move(cfg)) {
  profiles_ = cfg_.profiles ? cfg_.profiles.get() : cfg_.world.profiles;
  if (profiles_ == nullptr) profiles_ = &profile::Registry::builtin();
  sched_ = std::make_unique<sim::EventScheduler>();
  obs_.tracer.set_enabled(cfg_.trace);
  obs_.tracer.set_sim_clock([this]() { return sched_->now().us; });
  sched_->set_wall_profiling(cfg_.profile_wall);
  {
    auto& reg = obs_.registry;
    m_samples_ = &reg.counter("samples_analysed");
    m_non_mips_ = &reg.counter("non_mips_skipped");
    m_liveness_probes_ = &reg.counter("pipeline.liveness_probes");
    m_live_runs_ = &reg.counter("pipeline.live_runs");
    m_c2_observations_ = &reg.counter("pipeline.c2_observations");
    m_ddos_records_ = &reg.counter("ddos_records");
    m_c2_candidates_ = &reg.histogram("pipeline.c2_candidates", {0, 1, 2, 4, 8});
  }
  sim::NetworkConfig nc;
  nc.seed = cfg_.seed;
  nc.loss = cfg_.loss;
  net_ = std::make_unique<sim::Network>(*sched_, nc);

  botnet::WorldConfig wc = cfg_.world;
  wc.seed = cfg_.seed;
  wc.profiles = profiles_;
  world_ = std::make_unique<botnet::World>(*net_, wc);

  if (cfg_.chaos != faultsim::Profile::kNone) {
    // The injector's streams hang off (shard seed, chaos seed), so every
    // shard gets an independent but reproducible fault schedule.
    injector_ = std::make_unique<faultsim::FaultInjector>(
        faultsim::make_fault_config(cfg_.chaos), cfg_.seed, cfg_.chaos_seed);
    injector_->install(*net_, world_->resolver_server());
  }

  emu::SandboxConfig sc;
  sc.seed = cfg_.seed ^ 0xBADC0FFEE;
  sc.obs = &obs_;
  sc.profiles = profiles_;
  sandbox_ = std::make_unique<emu::Sandbox>(*net_, sc);

  intel_ = std::make_unique<intel::ThreatIntel>(cfg_.seed ^ 0x71);
  for (const auto& c2 : world_->c2_plan()) {
    intel_->register_c2(c2.address, c2.birth_day, c2.cfg.domain.has_value());
  }

  analysis_host_ =
      std::make_unique<sim::Host>(*net_, net::Ipv4{192, 0, 2, 5}, "analysis");
}

Pipeline::~Pipeline() = default;

StudyResults Pipeline::run() {
  if (ran_) throw std::logic_error("Pipeline::run: already ran");
  ran_ = true;

  const auto& samples = world_->samples();
  results_.truth_planned_c2s = world_->c2_plan().size();

  std::int64_t last_day = 0;
  for (const auto& s : samples) last_day = std::max(last_day, s.first_seen_day);

  std::size_t next_sample = 0;
  for (std::int64_t day = 0; day <= last_day; ++day) {
    {
      // Day planning runs outside the event loop (ScopedTimer); the world
      // events it schedules — and their downstream chains — carry kWorld.
      obs::ScopedTimer timer(profile_[obs::Phase::kCollect]);
      sim::ScopedPhaseTag tag(*sched_,
                              static_cast<sim::PhaseTag>(obs::Phase::kWorld));
      world_->advance_to_day(day);
      if (injector_) {
        // Per-day crash rolls over the live set. The draw is a pure
        // function of (seeds, address, day), so address-ordered iteration
        // is just a convenience, not a determinism requirement.
        world_->for_each_live_c2(
            [this, day](const std::string& address, botnet::C2Server& server) {
              if (const auto outage =
                      injector_->maybe_crash_c2(util::fnv1a64(address), day)) {
                server.crash(*outage);
              }
            });
      }
    }
    {
      // Launch today's analysis chains, staggered from 00:01, all running
      // concurrently on the shared timeline (the paper's parallel
      // sandboxes). The chains inherit kSandbox and hand off to finer
      // phases (probe, live-watch) as they go.
      obs::ScopedTimer timer(profile_[obs::Phase::kCollect]);
      sim::ScopedPhaseTag tag(*sched_,
                              static_cast<sim::PhaseTag>(obs::Phase::kSandbox));
      int slot = 0;
      while (next_sample < samples.size() &&
             samples[next_sample].first_seen_day == day) {
        const botnet::PlannedSample& sample = samples[next_sample];
        const sim::SimTime start{day * kDayUs + 60'000'000LL +
                                 slot * 90'000'000LL};
        // Per-sample containment: one sample's analysis blowing up must not
        // take the study down — it lands in StudyResults::degraded instead.
        sched_->at(start, [this, &sample]() {
          try {
            analyse_sample(sample);
          } catch (const std::exception& e) {
            note_degraded(sample, std::string("exception:") + e.what());
          }
        });
        ++next_sample;
        ++slot;
      }
    }
    sched_->run_until(sim::SimTime{(day + 1) * kDayUs});
    if (day % 30 == 0) {
      plog() << "day " << day << ": " << results_.d_samples.size() << " samples, "
             << results_.d_c2s.size() << " C2s, " << results_.d_exploits.size()
             << " exploit records, " << results_.d_ddos.size() << " DDoS records";
    }
  }
  // Let late live-runs finish.
  sched_->run_until(sim::SimTime{(last_day + 2) * kDayUs});
  world_->advance_to_day(last_day + 2);

  if (cfg_.run_probe_campaign) run_probe_campaign();

  {
    obs::ScopedTimer timer(profile_[obs::Phase::kFinalize]);
    finalize_results();
    results_.sim_events = sched_->executed();
    results_.sandbox_runs = sandbox_->total_runs();
    results_.truth_commands_issued = world_->all_issued().size();
    harvest_observability();
  }
  results_.metrics = obs_.registry.snapshot();
  results_.profile = profile_;
  results_.trace = obs_.tracer.take();
  return std::move(results_);
}

void Pipeline::harvest_observability() {
  // End-of-run totals folded into the registry so one snapshot carries the
  // whole story. Everything here is a sim-derived integer (the §10
  // determinism rule); harvest counters start at zero, so a single
  // inc(total) leaves them exactly equal to the source of truth.
  auto& reg = obs_.registry;
  reg.counter("sim_events").inc(sched_->executed());
  reg.counter("net.packets_sent").inc(net_->packets_transmitted());
  reg.counter("net.packets_delivered").inc(net_->packets_delivered());
  reg.counter("net.packets_lost").inc(net_->packets_lost());
  reg.counter("net.packets_dark").inc(net_->packets_dark());
  reg.counter("net.dns_queries").inc(net_->dns_queries());
  reg.counter("campaign.scout_probes").inc(results_.d_pc2.scout_probes);
  reg.counter("campaign.weapon_runs").inc(results_.d_pc2.weapon_runs);
  reg.counter("campaign.banner_filtered").inc(results_.d_pc2.banner_filtered);
  auto& lifespan = reg.histogram("c2.lifespan_days", {0, 1, 7, 30, 90, 365});
  for (const auto& [addr, rec] : results_.d_c2s) {
    if (rec.ever_live()) lifespan.record(rec.observed_lifespan_days());
  }

  // Chaos counters are registered only when chaos is on (or something
  // actually degraded): a clean run's metrics JSON must stay byte-identical
  // to a build without the fault layer.
  if (injector_) {
    const faultsim::FaultStats& fs = injector_->stats();
    reg.counter("faults_injected").inc(fs.total());
    reg.counter("resolver_retries").inc(resolver_retries_);
    reg.counter("chaos.packets_dropped_burst").inc(fs.packets_dropped_burst);
    reg.counter("chaos.packets_duplicated").inc(fs.packets_duplicated);
    reg.counter("chaos.packets_reordered").inc(fs.packets_reordered);
    reg.counter("chaos.packets_truncated").inc(fs.packets_truncated);
    reg.counter("chaos.packets_corrupted").inc(fs.packets_corrupted);
    reg.counter("chaos.latency_spikes").inc(fs.latency_spikes);
    reg.counter("chaos.partitions_started").inc(fs.partitions_started);
    reg.counter("chaos.partition_drops").inc(fs.partition_drops);
    reg.counter("chaos.dns_servfails").inc(fs.dns_servfails);
    reg.counter("chaos.dns_drops").inc(fs.dns_drops);
    reg.counter("chaos.c2_crashes").inc(fs.c2_crashes);
  }
  if (injector_ || !results_.degraded.empty()) {
    reg.counter("samples_degraded").inc(results_.degraded.size());
  }

  // Per-phase rollup: event counts (and wall-clock under --profile) come
  // from the scheduler's tag arrays; ops are phase-defined totals.
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    profile_.phases[i].sim_events +=
        sched_->executed_by_tag(static_cast<sim::PhaseTag>(i));
    profile_.phases[i].wall_ns +=
        sched_->wall_ns_by_tag(static_cast<sim::PhaseTag>(i));
  }
  profile_[obs::Phase::kCollect].ops = m_samples_->value() + m_non_mips_->value();
  profile_[obs::Phase::kSandbox].ops = sandbox_->total_runs();
  profile_[obs::Phase::kProbe].ops = m_liveness_probes_->value();
  profile_[obs::Phase::kLiveWatch].ops = m_live_runs_->value();
  profile_[obs::Phase::kCampaign].ops =
      static_cast<std::uint64_t>(results_.d_pc2.rounds);
  profile_[obs::Phase::kFinalize].ops = results_.d_c2s.size();
}

void Pipeline::analyse_sample(const botnet::PlannedSample& sample) {
  // Architecture gate (§2.2): the feeds deliver ARM/x86 builds too; only
  // MIPS-32 binaries enter D-Samples and the sandbox.
  if (const auto parsed = mal::parse(sample.binary);
      parsed && parsed->arch != mal::Arch::kMips32) {
    ++results_.non_mips_skipped;
    m_non_mips_->inc();
    return;
  }
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kObserve;
  opts.duration = cfg_.observe_duration;
  opts.handshaker_threshold = cfg_.handshaker_threshold;
  sandbox_->start(sample.binary, opts, [this, &sample](const emu::SandboxReport& r) {
    try {
      handle_observe_report(sample, r);
    } catch (const std::exception& e) {
      note_degraded(sample, std::string("exception:") + e.what());
    }
  });
}

void Pipeline::note_degraded(const botnet::PlannedSample& sample,
                             std::string reason) {
  util::log_line(util::LogLevel::kWarn, "pipeline",
                 "degraded sample " + sample.sha256.substr(0, 8) + ": " + reason);
  results_.degraded.push_back(
      DegradedSample{sample.sha256, sample.first_seen_day, std::move(reason)});
}

void Pipeline::handle_observe_report(const botnet::PlannedSample& sample,
                                     const emu::SandboxReport& report) {
  SampleRecord rec;
  rec.sha256 = sample.sha256;
  rec.day = sample.first_seen_day;
  rec.source = sample.source;
  rec.vt_detections = sample.vt_detections;
  rec.activated = report.parsed && report.activated;
  rec.evasion_abort = report.evasion_abort;
  // Static labelling: YARA rules over the binary, AVClass as fallback
  // (§2.2 — including AVClass's Mozi->Mirai confusion; YARA usually saves
  // the day, which is why the P2P filter still works).
  rec.label = mal::combined_label(sample.binary, sample.truth_family);
  rec.p2p = proto::is_p2p(rec.label);
  label_by_sample_[sample.sha256] = rec.label;

  // D-Exploits: attribute the handshaker harvest.
  for (const auto& finding : identify_exploits(report)) {
    ExploitRecord er;
    er.sample_sha = sample.sha256;
    er.day = sample.first_seen_day;
    er.vuln = finding.vuln;
    er.downloader_host = finding.downloader_host;
    er.loader_name = finding.loader_name;
    if (!finding.downloader_host.empty()) {
      results_.downloader_hosts.insert(finding.downloader_host);
    }
    results_.d_exploits.push_back(std::move(er));
  }

  auto candidates = detect_c2(report, sandbox_->martian());
  if (candidates.size() > static_cast<std::size_t>(cfg_.max_candidates_per_sample)) {
    candidates.resize(static_cast<std::size_t>(cfg_.max_candidates_per_sample));
  }
  for (const auto& c : candidates) rec.c2_addresses.push_back(c.address);
  results_.d_samples.push_back(std::move(rec));
  m_samples_->inc();
  m_c2_candidates_->record(static_cast<std::int64_t>(candidates.size()));

  if (results_.d_samples.back().p2p || candidates.empty()) return;
  // The probing chain (DNS resolution + weaponized runs) is its own phase.
  sim::ScopedPhaseTag tag(*sched_, static_cast<sim::PhaseTag>(obs::Phase::kProbe));
  probe_candidate(sample, std::move(candidates), 0, /*live_found=*/false);
}

void Pipeline::probe_candidate(const botnet::PlannedSample& sample,
                               std::vector<C2Candidate> candidates, std::size_t idx,
                               bool live_found) {
  if (idx >= candidates.size()) return;
  const C2Candidate cand = candidates[idx];

  auto continue_with_ip = [this, &sample, candidates = std::move(candidates), idx,
                           live_found, cand](net::Ipv4 real_ip) mutable {
    if (real_ip.is_unspecified()) {
      probe_candidate(sample, std::move(candidates), idx + 1, live_found);
      return;
    }
    Weapon weapon{sample.binary, cand.endpoint()};
    m_liveness_probes_->inc();
    probe_liveness(
        *sandbox_, weapon, {real_ip, cand.port},
        [this, &sample, candidates = std::move(candidates), idx, live_found, cand,
         real_ip](LivenessResult res) mutable {
          record_c2_observation(sample, cand, real_ip, res.engaged);
          bool now_live = live_found;
          // The live-run budget is keyed by resolved IP so a domain-fronted
          // server and its raw address share one budget.
          const std::string budget_key = net::to_string(real_ip);
          if (res.engaged && !live_found &&
              live_runs_per_c2_[budget_key] < cfg_.max_live_runs_per_c2) {
            now_live = true;
            ++live_runs_per_c2_[budget_key];
            start_live_run(sample, cand, real_ip);
          }
          probe_candidate(sample, std::move(candidates), idx + 1, now_live);
        },
        cfg_.probe_duration,
        // Under chaos a dead-looking target may just be injected loss;
        // spend a second attempt before declaring it down.
        ProbePolicy{injector_ ? 2 : 1, sim::Duration::seconds(30)});
  };

  if (cand.is_dns) {
    // Resolve the name through real DNS to find the probe target (§2.3a).
    // Chaos runs retransmit against injected SERVFAIL/drop; clean runs keep
    // the classic single-shot query.
    dns::ResolveOptions ropts;
    if (injector_) {
      ropts.max_retries = 2;
      ropts.on_retry = [this]() { ++resolver_retries_; };
    }
    dns::resolve(*analysis_host_, world_->resolver(), cand.address,
                 [this, sha = sample.sha256, day = sample.first_seen_day,
                  addr = cand.address,
                  cw = std::move(continue_with_ip)](std::optional<net::Ipv4> ip) mutable {
                   if (!ip && injector_) {
                     // Could be NXDOMAIN or injected failure; under chaos we
                     // conservatively flag the sample's C2 check as degraded.
                     results_.degraded.push_back(DegradedSample{
                         std::move(sha), day, "dns:" + std::move(addr)});
                   }
                   cw(ip.value_or(net::Ipv4{}));
                 },
                 std::move(ropts));
  } else {
    continue_with_ip(cand.resolved_ip);
  }
}

void Pipeline::record_c2_observation(const botnet::PlannedSample& sample,
                                     const C2Candidate& cand, net::Ipv4 real_ip,
                                     bool live) {
  const std::int64_t day = sample.first_seen_day;
  auto [it, inserted] = results_.d_c2s.try_emplace(cand.address);
  C2Record& rec = it->second;
  if (inserted) {
    rec.address = cand.address;
    rec.is_dns = cand.is_dns;
    rec.ip = real_ip;
    rec.port = cand.port;
    rec.discovery_day = day;
    if (const auto* as = world_->asdb().by_ip(real_ip)) {
      rec.asn = as->asn;
      rec.as_country = as->country;
    }
    rec.vt_vendors_same_day = intel_->vendors_flagging(cand.address, day);
    rec.vt_malicious_same_day = rec.vt_vendors_same_day > 0;
  }
  m_c2_observations_->inc();
  ++rec.distinct_samples;
  if (rec.referred_days.empty() || rec.referred_days.back() != day) {
    rec.referred_days.push_back(day);
  }
  if (live && (rec.live_days.empty() || rec.live_days.back() != day)) {
    rec.live_days.push_back(day);
  }
}

void Pipeline::start_live_run(const botnet::PlannedSample& sample,
                              const C2Candidate& cand, net::Ipv4 real_ip) {
  plog() << "live run: sample " << sample.sha256.substr(0, 8) << " c2 "
         << cand.address << " via " << net::to_string(real_ip) << ':'
         << cand.port;
  m_live_runs_->inc();
  if (obs_.tracer.enabled()) {
    obs_.tracer.instant("live-run:start", "pipeline",
                        "\"c2\":\"" + obs::json_escape(cand.address) + "\"");
  }
  // The 2 h restricted watch and everything it triggers is kLiveWatch.
  sim::ScopedPhaseTag tag(*sched_,
                          static_cast<sim::PhaseTag>(obs::Phase::kLiveWatch));
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kLive;
  opts.duration = cfg_.live_duration;
  opts.allowed_c2 = net::Endpoint{real_ip, cand.port};
  // Real bots cycle through their address list indefinitely; that loop is
  // what rides out post-probe dormancy within the 2 h window.
  opts.c2_retry_limit = 3;
  opts.c2_retry_delay = sim::Duration::seconds(60);
  const std::string address = cand.address;
  const net::Endpoint c2{real_ip, cand.port};
  sandbox_->start(
      sample.binary, opts,
      [this, &sample, address, c2](const emu::SandboxReport& report) {
        plog() << "live run done: " << sample.sha256.substr(0, 8)
               << " capture=" << report.capture.size()
               << " cmds=" << report.commands.size();
        std::optional<proto::Family> hint;
        const auto lit = label_by_sample_.find(sample.sha256);
        if (lit != label_by_sample_.end()) hint = lit->second;
        DdosDetectOptions dopts;
        dopts.pps_threshold = cfg_.pps_threshold;
        for (auto& det : detect_ddos(report, c2, hint, dopts, *profiles_)) {
          if (!det.verified) continue;  // §2.5: manual verification gate
          DdosRecord dr;
          dr.sample_sha = sample.sha256;
          dr.day = sample.first_seen_day;
          dr.c2_address = address;
          dr.c2 = c2;
          if (const auto* as = world_->asdb().by_ip(c2.ip)) {
            dr.c2_asn = as->asn;
            dr.c2_country = as->country;
          }
          dr.detection = std::move(det);
          if (obs_.tracer.enabled()) {
            obs_.tracer.instant(
                "ddos:detected", "pipeline",
                "\"method\":\"" + obs::json_escape(to_string(dr.detection.method)) +
                    "\",\"c2\":\"" + obs::json_escape(address) + "\"");
          }
          m_ddos_records_->inc();
          results_.d_ddos.push_back(std::move(dr));
        }
      });
}

void Pipeline::run_probe_campaign() {
  // Weapons: one Gafgyt and one Mirai binary with IP-based C2s (§2.3b).
  std::vector<Weapon> weapons;
  for (const proto::Family fam : {proto::Family::kGafgyt, proto::Family::kMirai}) {
    for (const auto& s : world_->samples()) {
      if (s.truth_family != fam || s.truth_c2_refs.empty()) continue;
      const auto* plan = world_->find_c2(s.truth_c2_refs.front());
      if (plan == nullptr || plan->cfg.domain) continue;
      weapons.push_back(Weapon{s.binary, {plan->cfg.ip, plan->cfg.port}});
      break;
    }
  }
  if (weapons.empty()) return;

  // Everything from here (probe-world timers included) is kCampaign.
  sim::ScopedPhaseTag campaign_tag(
      *sched_, static_cast<sim::PhaseTag>(obs::Phase::kCampaign));
  probe_world_ = std::make_unique<botnet::ProbeWorld>(
      botnet::build_probe_world(*net_, botnet::ProbeWorldConfig{cfg_.seed ^ 0x9C2}));

  ProbeCampaignConfig pc;
  for (const auto& s : probe_world_->subnets) pc.subnets.push_back(s);
  pc.ports = botnet::table5_ports();
  pc.rounds = cfg_.probe_rounds;
  pc.obs = &obs_;

  bool finished = false;
  campaign_ = std::make_unique<ProbeCampaign>(
      *net_, *sandbox_, std::move(pc), std::move(weapons),
      [this, &finished](ProbeCampaignResult res) {
        results_.d_pc2 = std::move(res);
        finished = true;
      });
  campaign_->start();
  // 84 rounds x 4 h plus slack; C2 duty-cycle timers run forever, so bound
  // by time, not queue exhaustion.
  const sim::SimTime deadline =
      sched_->now() + sim::Duration::hours(4) * (cfg_.probe_rounds + 4);
  while (!finished && sched_->now() < deadline) {
    sched_->run_until(sched_->now() + sim::Duration::hours(1));
  }
  campaign_.reset();
  probe_world_.reset();
}

void Pipeline::finalize_results() {
  for (auto& [addr, rec] : results_.d_c2s) {
    rec.vt_malicious_requery = intel_->is_malicious(addr, cfg_.requery_day);
    rec.is_downloader =
        results_.downloader_hosts.count(net::to_string(rec.ip)) > 0 ||
        results_.downloader_hosts.count(addr) > 0;
  }
}

}  // namespace malnet::core
