#include "fault/fault.h"

#include <memory>

#include "common/coding.h"
#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace fault {
namespace {

// Uniform double in [0, 1) from a mixed 64-bit hash (same mapping as
// Random::NextDouble, so probabilities mean the same thing everywhere).
double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / (1ULL << 53));
}

Status StatusFor(FaultKind kind, FaultSite site) {
  std::string msg =
      StrCat("injected ", FaultKindName(kind), " fault at ",
             FaultSiteName(site));
  switch (kind) {
    case FaultKind::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case FaultKind::kDeadline:
      return Status::DeadlineExceeded(std::move(msg));
    case FaultKind::kThrottle:
      return Status::ResourceExhausted(std::move(msg));
    case FaultKind::kLatencyOnly:
      break;
  }
  return Status::OK();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnavailable:
      return "unavailable";
    case FaultKind::kDeadline:
      return "deadline";
    case FaultKind::kThrottle:
      return "throttle";
    case FaultKind::kLatencyOnly:
      return "latency";
  }
  return "unknown";
}

FaultPlan FaultPlan::FailNext(FaultSite site, int count, int skip,
                              FaultKind kind) {
  FaultPlan plan;
  FaultRule rule;
  rule.site = site;
  rule.skip = skip;
  rule.count = count;
  rule.kind = kind;
  plan.rules.push_back(std::move(rule));
  return plan;
}

FaultPlan FaultPlan::Chaos(ChaosOptions options) {
  FaultPlan plan;
  plan.chaos = std::move(options);
  return plan;
}

FaultInjector::FaultInjector() = default;

void FaultInjector::SetPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  rule_matches_.assign(plan_.rules.size(), 0);
  call_index_.clear();
  chaos_faults_.clear();
  for (uint64_t& n : injected_) n = 0;
}

FaultOutcome FaultInjector::OnCall(FaultSite site, const char* cloud,
                                   const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.rules.empty() && !plan_.chaos.has_value()) return FaultOutcome();
  uint64_t key_index =
      call_index_[{static_cast<int>(site), key}]++;
  return Decide(site, cloud, key, key_index);
}

FaultOutcome FaultInjector::Decide(FaultSite site, const char* cloud,
                                   const std::string& key,
                                   uint64_t key_index) {
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.site != site) continue;
    if (!rule.cloud.empty() && rule.cloud != cloud) continue;
    if (!rule.key_prefix.empty() &&
        key.compare(0, rule.key_prefix.size(), rule.key_prefix) != 0) {
      continue;
    }
    uint64_t match = rule_matches_[i]++;
    if (match < static_cast<uint64_t>(rule.skip)) continue;
    if (rule.count >= 0 &&
        match >= static_cast<uint64_t>(rule.skip) +
                     static_cast<uint64_t>(rule.count)) {
      continue;
    }
    return Fire(site, rule.kind, rule.extra_latency);
  }
  if (plan_.chaos.has_value()) {
    return ChaosDecide(*plan_.chaos, site, key, key_index);
  }
  return FaultOutcome();
}

FaultOutcome FaultInjector::ChaosDecide(const ChaosOptions& chaos,
                                        FaultSite site, const std::string& key,
                                        uint64_t key_index) {
  if (!chaos.sites.empty()) {
    bool listed = false;
    for (FaultSite s : chaos.sites) listed = listed || s == site;
    if (!listed) return FaultOutcome();
  }
  // Pure function of (seed, site, key, per-key call index): no arrival-order
  // state, so the schedule is identical at any worker count.
  uint64_t site_key = Fnv1a64(key, Fnv1a64(FaultSiteName(site)));
  uint64_t h = Mix64(chaos.seed ^
                     Mix64(site_key + key_index * 0x9e3779b97f4a7c15ULL));
  double u_fault = UnitFromHash(Mix64(h ^ 1));
  int& faults_here = chaos_faults_[{static_cast<int>(site), key}];
  if (u_fault < chaos.fault_probability &&
      faults_here < chaos.max_faults_per_key) {
    ++faults_here;
    double wu = chaos.unavailable_weight + chaos.throttle_weight;
    FaultKind kind = FaultKind::kUnavailable;
    if (wu > 0 &&
        UnitFromHash(Mix64(h ^ 2)) >= chaos.unavailable_weight / wu) {
      kind = FaultKind::kThrottle;
    }
    SimMicros extra = 0;
    if (chaos.max_extra_latency > 0) {
      extra = Mix64(h ^ 3) % chaos.max_extra_latency;
    }
    return Fire(site, kind, extra);
  }
  if (chaos.max_extra_latency > 0 &&
      UnitFromHash(Mix64(h ^ 4)) < chaos.latency_probability) {
    FaultOutcome out;
    out.extra_latency = Mix64(h ^ 5) % chaos.max_extra_latency;
    return out;
  }
  return FaultOutcome();
}

FaultOutcome FaultInjector::Fire(FaultSite site, FaultKind kind,
                                 SimMicros extra_latency) {
  FaultOutcome out;
  out.status = StatusFor(kind, site);
  out.extra_latency = extra_latency;
  if (!out.status.ok()) {
    injected_[static_cast<size_t>(site)]++;
  }
  // A commutative relaxed add: the exported total is the same at any
  // worker count.
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_FAULT_INJECTED, {{"site", FaultSiteName(site)},
                                          {"kind", FaultKindName(kind)}})
      ->Increment();
  return out;
}

uint64_t FaultInjector::injected(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<size_t>(site)];
}

uint64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t n : injected_) total += n;
  return total;
}

FaultInjector* FaultInjector::InstallOn(SimEnv* env) {
  if (FaultInjector* existing = Get(env)) return existing;
  auto injector = std::make_shared<FaultInjector>();
  FaultInjector* raw = injector.get();
  env->set_fault_hook(std::move(injector));
  return raw;
}

FaultInjector* FaultInjector::Get(SimEnv* env) {
  return dynamic_cast<FaultInjector*>(env->fault_hook());
}

}  // namespace fault
}  // namespace biglake
