#include "core/admission_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "util/clock.hpp"

namespace opsched {

TenantSet TenantSet::slots(std::size_t count,
                           const std::vector<double>& weights) {
  TenantSet set;
  set.ids.resize(count);
  for (std::size_t t = 0; t < count; ++t) set.ids[t] = t;
  set.weights = weights;
  set.preserve_service = false;
  return set;
}

// ---- DecisionCache: open-addressed flat table ----------------------------

namespace {
/// splitmix64 finalizer: cheap, well-distributed for sequential ids.
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}
}  // namespace

std::size_t AdmissionPolicy::DecisionCache::hash(std::size_t tenant,
                                                 ArenaOp op, int idle) {
  return static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(tenant) ^
            (static_cast<std::uint64_t>(op) << 32) ^
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(idle))));
}

const Candidate* AdmissionPolicy::DecisionCache::find(std::size_t tenant,
                                                      ArenaOp op,
                                                      int idle) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash(tenant, op, idle) & mask;; i = (i + 1) & mask) {
    const Entry& e = slots_[i];
    if (e.op == kNoArenaOp) return nullptr;
    if (e.tenant == tenant && e.op == op && e.idle == idle) return &e.value;
  }
}

void AdmissionPolicy::DecisionCache::grow() {
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Entry{});
  const std::size_t mask = slots_.size() - 1;
  for (const Entry& e : old) {
    if (e.op == kNoArenaOp) continue;
    std::size_t i = hash(e.tenant, e.op, e.idle) & mask;
    while (slots_[i].op != kNoArenaOp) i = (i + 1) & mask;
    slots_[i] = e;
  }
}

void AdmissionPolicy::DecisionCache::insert(std::size_t tenant, ArenaOp op,
                                            int idle, const Candidate& c) {
  // Keep the load factor under 0.7 so probe chains stay short.
  if (slots_.empty() || (count_ + 1) * 10 >= slots_.size() * 7) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(tenant, op, idle) & mask;
  while (slots_[i].op != kNoArenaOp) {
    Entry& e = slots_[i];
    if (e.tenant == tenant && e.op == op && e.idle == idle) {
      e.value = c;  // overwrite, matching the previous map semantics
      return;
    }
    i = (i + 1) & mask;
  }
  slots_[i] = Entry{tenant, op, idle, c};
  ++count_;
}

void AdmissionPolicy::DecisionCache::erase_tenant(std::size_t tenant) {
  if (count_ == 0) return;
  // Retirement is rare (a job leaving for good): rebuild without the
  // tenant's entries rather than tombstoning the probe chains.
  std::vector<Entry> keep;
  keep.reserve(count_);
  for (const Entry& e : slots_) {
    if (e.op != kNoArenaOp && e.tenant != tenant) keep.push_back(e);
  }
  std::fill(slots_.begin(), slots_.end(), Entry{});
  count_ = keep.size();
  const std::size_t mask = slots_.size() - 1;
  for (const Entry& e : keep) {
    std::size_t i = hash(e.tenant, e.op, e.idle) & mask;
    while (slots_[i].op != kNoArenaOp) i = (i + 1) & mask;
    slots_[i] = e;
  }
}

void AdmissionPolicy::DecisionCache::clear() {
  std::fill(slots_.begin(), slots_.end(), Entry{});
  count_ = 0;
}

// ---- learned state -------------------------------------------------------

// ---- telemetry -----------------------------------------------------------

void AdmissionPolicy::attach_metrics(obs::Registry* reg,
                                     const std::string& instance) {
  telem_ = Telemetry{};
  deficit_gauges_.clear();
  if (reg == nullptr) return;
  telem_.reg = reg;
  telem_.instance = instance;
  const auto qual = [&](const char* name) {
    return instance.empty() ? std::string(name)
                            : obs::label(name, "shard", instance);
  };
  telem_.decisions = reg->counter(qual("policy_decisions_total"));
  telem_.cache_hits = reg->counter(qual("policy_cache_hits_total"));
  telem_.cache_misses = reg->counter(qual("policy_cache_misses_total"));
  telem_.quick_rejects = reg->counter(qual("policy_quick_rejects_total"));
  telem_.badpair_skips = reg->counter(qual("policy_badpair_skips_total"));
  telem_.badpair_overrides =
      reg->counter(qual("policy_badpair_overrides_total"));
  telem_.overlay_grants = reg->counter(qual("policy_overlay_grants_total"));
  telem_.heavy_fallbacks = reg->counter(qual("policy_heavy_fallbacks_total"));
  telem_.layout_coruns = reg->counter(qual("policy_layout_corun_total"));
  telem_.decision_ms = reg->histogram(qual("policy_decision_ms"));
  rebuild_deficit_gauges();
}

void AdmissionPolicy::rebuild_deficit_gauges() {
  deficit_gauges_.clear();
  if (telem_.reg == nullptr) return;
  deficit_gauges_.resize(service_.size(), nullptr);
  for (std::size_t t = 0; t < service_.size(); ++t) {
    std::string name = obs::label("policy_fairness_service_ms", "tenant",
                                  std::to_string(stable_id(t)));
    if (!telem_.instance.empty()) {
      name = obs::label(name, "shard", telem_.instance);
    }
    deficit_gauges_[t] = telem_.reg->gauge(name);
    deficit_gauges_[t]->set(service_[t]);
  }
}

void AdmissionPolicy::reset_learning() {
  bad_partners_.clear();
  bad_pair_count_ = 0;
  decision_cache_.clear();
}

AdmissionPolicy::ArenaOp AdmissionPolicy::intern(const OpKey& key) {
  const auto [it, inserted] =
      arena_ids_.try_emplace(key, static_cast<ArenaOp>(arena_ids_.size()));
  return it->second;
}

AdmissionPolicy::ArenaOp AdmissionPolicy::lookup_arena(
    const OpKey& key) const {
  const auto it = arena_ids_.find(key);
  return it != arena_ids_.end() ? it->second : kNoArenaOp;
}

void AdmissionPolicy::refresh_decisions(
    const std::vector<TenantReadyView>& tenants) {
  bool same = controller_.has_value() && decided_version_ == db_.version() &&
              decided_over_.size() == tenants.size();
  for (std::size_t t = 0; same && t < tenants.size(); ++t)
    same = decided_over_[t] == tenants[t].graph->uid();
  if (same) return;
  std::vector<const Graph*> graphs;
  decided_over_.clear();
  for (const TenantReadyView& v : tenants) {
    graphs.push_back(v.graph);
    decided_over_.push_back(v.graph->uid());
  }
  decided_version_ = db_.version();
  controller_.emplace(db_, options_, default_width_, graphs);
  for (GraphBinding& b : bindings_) b.graph = nullptr;
}

const AdmissionPolicy::GraphBinding& AdmissionPolicy::bind(std::size_t t,
                                                           const Graph& g) {
  if (bindings_.size() <= t) bindings_.resize(t + 1);
  GraphBinding& b = bindings_[t];
  if (b.graph == &g) return b;

  b.graph = &g;
  b.nodes.assign(g.size(), BoundNode{});
  b.menu.clear();
  const bool s2 = (options_.strategies & kStrategy2) != 0;
  for (const Node& node : g.nodes()) {
    BoundNode rec;
    rec.op = intern(OpKey::of(node));
    rec.choice = controller_->choice_for(node);
    rec.serial_ms = controller_->serial_time_ms(node);
    rec.layout = !op_kind_tunable(node.kind);

    std::vector<Candidate> cands =
        controller_->candidates_for(node, options_.num_candidates);
    if (s2) {
      // Strategy 2 guard, pre-applied: a candidate too far from the
      // consolidated width is replaced by the consolidated choice. The
      // rewrite count is replayed into the stats at every walk visit, so
      // the accounting matches deciding from scratch each time.
      const Candidate& s2c = rec.choice;
      const int delta = std::max(
          options_.s2_delta_guard,
          static_cast<int>(options_.s2_guard_relative *
                           static_cast<double>(s2c.threads)));
      for (Candidate& c : cands) {
        if (std::abs(c.threads - s2c.threads) > delta) {
          c = s2c;
          ++rec.guard_rewrites;
        }
      }
    }
    rec.menu_begin = static_cast<std::uint32_t>(b.menu.size());
    rec.menu_count = static_cast<std::uint32_t>(cands.size());
    for (const Candidate& c : cands) {
      if (rec.min_threads == 0 || c.threads < rec.min_threads)
        rec.min_threads = c.threads;
      if (rec.min_time_ms == 0.0 || c.time_ms < rec.min_time_ms)
        rec.min_time_ms = c.time_ms;
    }
    b.menu.insert(b.menu.end(), cands.begin(), cands.end());
    b.nodes[node.id] = rec;
  }
  return b;
}

// ---- tenant population ---------------------------------------------------

void AdmissionPolicy::configure_tenants(const TenantSet& set) {
  const std::size_t count = set.ids.size();
  if (!set.weights.empty() && set.weights.size() != count) {
    throw std::invalid_argument(
        "AdmissionPolicy::configure_tenants: weights/ids size mismatch");
  }
  if (!set.floors.empty() && set.floors.size() != count) {
    throw std::invalid_argument(
        "AdmissionPolicy::configure_tenants: floors/ids size mismatch");
  }
  if (std::set<std::size_t>(set.ids.begin(), set.ids.end()).size() != count) {
    throw std::invalid_argument(
        "AdmissionPolicy::configure_tenants: duplicate tenant ids");
  }
  const std::vector<std::size_t> outgoing = std::move(slot_ids_);
  slot_ids_ = set.ids;
  weights_.assign(count, 1.0);
  for (std::size_t t = 0; t < count && t < set.weights.size(); ++t) {
    if (set.weights[t] > 0.0) weights_[t] = set.weights[t];
  }
  floors_.assign(count, 0);
  for (std::size_t t = 0; t < count && t < set.floors.size(); ++t) {
    if (set.floors[t] > 0) floors_[t] = set.floors[t];
  }
  service_.assign(count, 0.0);
  if (set.preserve_service) {
    for (std::size_t t = 0; t < count; ++t) {
      const auto it = retained_service_.find(set.ids[t]);
      if (it != retained_service_.end()) service_[t] = it->second;
    }
  } else {
    // A non-preserving reconfigure declares a fresh fairness world: drop
    // the ledger entries of the new population AND of the outgoing one.
    // The outgoing erase is what keeps the ledger bounded under slot-count
    // churn — those ids departed without a retire_tenant, and before this
    // fix every slot index ever used leaked one entry forever.
    for (const std::size_t id : outgoing) retained_service_.erase(id);
    for (const std::size_t id : set.ids) retained_service_.erase(id);
  }
  if (telem_.reg != nullptr) rebuild_deficit_gauges();
}

void AdmissionPolicy::retire_tenant(std::size_t id) {
  retained_service_.erase(id);
  decision_cache_.erase_tenant(id);
  const auto owned = [id](const TenantArenaOp& e) { return e.tenant == id; };
  for (auto it = bad_partners_.begin(); it != bad_partners_.end();) {
    if (!owned(it->first)) std::erase_if(it->second, owned);
    if (owned(it->first) || it->second.empty()) {
      it = bad_partners_.erase(it);
    } else {
      ++it;
    }
  }
  bad_pair_count_ = count_pairs([](const TenantArenaOp&) { return true; });
}

void AdmissionPolicy::ensure_tenants(std::size_t count) {
  if (service_.size() == count) return;
  // A caller that skipped configure_tenants, or walks a population of a
  // different size than the configured one, runs against a fresh identity
  // population of `count`. It must never inherit a departed configuration's
  // deficits, weights, or slot->stable-id mapping (which would charge slot
  // 0's work to whatever job id happened to hold slot 0); the id-keyed
  // retained ledger is left alone.
  service_.assign(count, 0.0);
  weights_.assign(count, 1.0);
  floors_.assign(count, 0);
  slot_ids_.resize(count);
  for (std::size_t t = 0; t < count; ++t) slot_ids_[t] = t;
  if (telem_.reg != nullptr) rebuild_deficit_gauges();
}

void AdmissionPolicy::tenant_order(std::size_t count,
                                   std::vector<std::size_t>& order) const {
  order.resize(count);
  for (std::size_t t = 0; t < count; ++t) order[t] = t;
  // Latency-critical slots first — op-boundary preemption priority over
  // batch training tenants — then the weighted-deficit race within each
  // group; stable, so ties keep slot order (deterministic).
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const bool lat_a = tenant_floor(a) > 0;
                     const bool lat_b = tenant_floor(b) > 0;
                     if (lat_a != lat_b) return lat_a;
                     return service_[a] < service_[b];
                   });
}

void AdmissionPolicy::charge(std::size_t tenant, const Candidate& c) {
  // Core-time (duration x width) normalized by weight: a weight-2 tenant
  // accrues service at half rate, so the deficit order grants it twice the
  // contended-core share. The floor keeps unprofiled (time 0) ops from
  // being free — every launch consumes at least the dispatch slot.
  const double cost = std::max(c.time_ms, 1e-9) *
                      static_cast<double>(std::max(1, c.threads));
  service_[tenant] += cost / weights_[tenant];
  retained_service_[stable_id(tenant)] = service_[tenant];
  if (tenant < deficit_gauges_.size() && deficit_gauges_[tenant] != nullptr) {
    deficit_gauges_[tenant]->set(service_[tenant]);
  }
}

double AdmissionPolicy::tenant_service(std::size_t tenant) const {
  return tenant < service_.size() ? service_[tenant] : 0.0;
}

double AdmissionPolicy::service_of(std::size_t id) const {
  const auto it = retained_service_.find(id);
  return it != retained_service_.end() ? it->second : 0.0;
}

std::size_t AdmissionPolicy::recorded_bad_pairs(std::size_t tenant) const {
  return count_pairs(
      [tenant](const TenantArenaOp& e) { return e.tenant == tenant; });
}

// ---- interference record -------------------------------------------------

std::size_t AdmissionPolicy::TenantArenaOpHash::operator()(
    const TenantArenaOp& k) const noexcept {
  return static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(k.tenant) ^
            (static_cast<std::uint64_t>(k.op) << 32)));
}

template <typename Pred>
std::size_t AdmissionPolicy::count_pairs(Pred pred) const {
  // Each pair sits in both endpoints' lists; count it from its lesser one.
  std::size_t n = 0;
  for (const auto& [a, partners] : bad_partners_) {
    for (const TenantArenaOp& b : partners) {
      if (a <= b && (pred(a) || pred(b))) ++n;
    }
  }
  return n;
}

void AdmissionPolicy::make_room(TenantArenaOp a) {
  const auto it = bad_partners_.find(a);
  if (it == bad_partners_.end() || it->second.size() < kMaxBadPartners)
    return;
  const TenantArenaOp oldest = it->second.front();
  it->second.erase(it->second.begin());
  if (oldest != a) {
    const auto other = bad_partners_.find(oldest);
    std::erase(other->second, a);
    if (other->second.empty()) bad_partners_.erase(other);
  }
  --bad_pair_count_;
}

void AdmissionPolicy::insert_bad_pair(TenantArenaOp a, TenantArenaOp b) {
  const auto it = bad_partners_.find(a);
  if (it != bad_partners_.end() &&
      std::find(it->second.begin(), it->second.end(), b) != it->second.end())
    return;
  // Partner lists are capped, so the find above and the evictions below
  // cost O(kMaxBadPartners) whatever the record's size.
  make_room(a);
  if (a != b) make_room(b);
  bad_partners_[a].push_back(b);
  if (a != b) bad_partners_[b].push_back(a);
  ++bad_pair_count_;
}

void AdmissionPolicy::begin_walk() {
  ++walk_id_;
  if (reject_stamp_.size() < arena_ids_.size()) {
    reject_stamp_.resize(arena_ids_.size(), 0);
    badpair_stamp_.resize(arena_ids_.size(), 0);
  }
}

void AdmissionPolicy::stamp_bad_partners(
    std::size_t id, const std::vector<TenantArenaOp>& running) {
  // A pair blocks candidate {id, op} iff its other endpoint is running, so
  // each running op's partner list stamps exactly its blocking pairs,
  // independent of ready-queue length.
  for (const TenantArenaOp& r : running) {
    if (r.op == kNoArenaOp) continue;
    const auto it = bad_partners_.find(r);
    if (it == bad_partners_.end()) continue;
    for (const TenantArenaOp& p : it->second) {
      if (p.tenant == id) badpair_stamp_[p.op] = walk_id_;
    }
  }
}

void AdmissionPolicy::record_interference(
    const TenantOpKey& completed, const std::vector<TenantOpKey>& corunners) {
  if (!options_.interference_recorder) return;
  // Callers pass slot indices; the record is keyed by stable ids so it
  // follows jobs across tenant-set reconfigurations.
  const TenantArenaOp mine{stable_id(completed.tenant),
                           intern(completed.key)};
  for (const TenantOpKey& other : corunners) {
    insert_bad_pair(mine,
                    TenantArenaOp{stable_id(other.tenant), intern(other.key)});
  }
}

void AdmissionPolicy::resolve_running(
    const std::vector<RunningOpView>& running, RunningScratch& out) const {
  out.ops.clear();
  out.max_remaining = 0.0;
  out.held.assign(service_.size(), 0);
  for (const RunningOpView& r : running) {
    out.max_remaining = std::max(out.max_remaining, r.remaining_ms);
    if (r.threads > 0) {
      if (out.held.size() <= r.tenant) out.held.resize(r.tenant + 1, 0);
      out.held[r.tenant] += r.threads;
    }
    // The caller's token (handed out with the admission decision) spares
    // the arena-map lookup; untokened views resolve by key.
    const ArenaOp op =
        r.op_token != kNoOpToken ? r.op_token : lookup_arena(r.key);
    out.ops.push_back(TenantArenaOp{stable_id(r.tenant), op});
  }
}

int AdmissionPolicy::reserved_for_latency(
    const std::vector<TenantReadyView>& tenants, const RunningScratch& running,
    int idle_cores) const {
  int reserved = 0;
  bool batch_has_work = false;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const int floor = tenant_floor(t);
    if (floor == 0) {
      batch_has_work = batch_has_work || !tenants[t].ready->empty();
      continue;
    }
    if (tenants[t].ready->empty()) continue;  // idle latency tenant: no claim
    const int held = t < running.held.size() ? running.held[t] : 0;
    reserved += std::max(0, floor - held);
  }
  // The starvation guard: a batch tenant with ready work always keeps at
  // least one admissible core, however the floors were (mis)configured.
  if (batch_has_work) reserved = std::min(reserved, idle_cores - 1);
  return std::max(0, reserved);
}

// ---- the Strategy-3 walk -------------------------------------------------

namespace {
bool position_skipped(const std::vector<std::size_t>& skip, std::size_t pos) {
  return !skip.empty() &&
         std::find(skip.begin(), skip.end(), pos) != skip.end();
}
}  // namespace

std::optional<AdmissionDecision> AdmissionPolicy::pick_for_tenant(
    std::size_t tenant, const GraphBinding& binding, const ReadyQueue& ready,
    int idle_cores, const RunningScratch& running,
    const std::vector<std::size_t>& skip, AdmissionStats* stats,
    std::optional<AdmissionDecision>* paired) {
  const double ongoing = running.max_remaining;
  const bool something_running = !running.ops.empty();
  const bool use_cache = options_.decision_cache && something_running;
  // Guard bound, and the hot-loop short-circuits: with no recorded bad
  // pairs or no skip list, those probes can never fire — hoisting the
  // emptiness checks keeps the failing-scan loop body branch-cheap.
  const double bound = ongoing * (1.0 + kCorunSlack);
  const bool check_pairs = something_running &&
                           options_.interference_recorder &&
                           bad_pair_count_ != 0;
  const bool has_skip = !skip.empty();
  const std::size_t id = stable_id(tenant);
  // Another slot holds cores: a layout op need not wait for the drain.
  bool beside_other = false;
  for (std::size_t s = 0; s < running.held.size() && !beside_other; ++s) {
    beside_other = s != tenant && running.held[s] > 0;
  }

  // Telemetry accumulates in locals and flushes once per walk, so the
  // failing-scan loop stays branch-cheap whether or not metrics are on.
  std::uint64_t n_quick = 0;
  std::uint64_t n_badpair = 0;
  const auto flush_telemetry = [&] {
    if (telem_.reg == nullptr) return;
    if (n_quick != 0) telem_.quick_rejects->add(n_quick);
    if (n_badpair != 0) telem_.badpair_skips->add(n_badpair);
  };

  // Per-walk rejection memo: the snapshot (idle width, running set, bad
  // pairs, cache) is fixed for the duration of one walk, so two queue
  // entries with the same arena op id resolve identically — the duplicate
  // skips the probe via an O(1) stamp indexed by the dense arena id. Nodes
  // sharing an OpKey share their menu and S2 consolidation, so replaying
  // guard_rewrites keeps the per-visit stats bit-identical to the
  // unmemoized walk (bad-paired skips never counted).
  begin_walk();
  // Blocked ops are stamped ONCE up front (O(running × partners)), so the
  // loop pays a single array probe per candidate instead of a pair-record
  // probe per visit — on failing scans over a thousand-op queue that probe
  // dominated the walk.
  if (check_pairs) stamp_bad_partners(id, running.ops);

  // Admissible candidates: fit the idle cores; when co-running, do not
  // outlast the ongoing ops. The fewest-threads admissible one wins —
  // freeing cores for more co-runners, the paper's "maximize operations
  // co-running" tie-break.
  const auto best_of = [&](const BoundNode& node) -> const Candidate* {
    const Candidate* best = nullptr;
    const Candidate* menu = binding.menu.data() + node.menu_begin;
    for (std::uint32_t i = 0; i < node.menu_count; ++i) {
      const Candidate& c = menu[i];
      if (c.threads > idle_cores) continue;
      if (something_running && c.time_ms > bound) continue;
      if (best == nullptr || c.threads < best->threads) best = &c;
    }
    return best;
  };
  const auto decide = [&](std::size_t pos, const BoundNode& node,
                          const Candidate& c) {
    AdmissionDecision d;
    d.ready_pos = pos;
    d.candidate = c;
    d.op_token = node.op;
    return d;
  };
  // A layout op's default width waits for an empty machine only while no
  // other slot is working; beside one it runs on the idle cores, capped
  // as the heavy fallback caps, if it passes the throughput guard.
  const auto capped_layout =
      [&](std::size_t pos,
          const BoundNode& node) -> std::optional<AdmissionDecision> {
    if (!node.layout || !beside_other || node.min_threads <= idle_cores ||
        node.choice.time_ms > bound)
      return std::nullopt;
    AdmissionDecision d = decide(pos, node, node.choice);
    d.candidate.threads = idle_cores;
    d.layout_capped = true;
    return d;
  };

  for (std::size_t pos = 0; pos < ready.size(); ++pos) {
    if (has_skip && position_skipped(skip, pos)) continue;
    const BoundNode& node = binding.nodes[ready[pos]];
    if (badpair_stamp_[node.op] == walk_id_) {
      // Passed over, but remembered as the last resort: the first
      // bad-paired op with an admissible launch (duplicates of an op
      // resolve identically under one snapshot, so one probe per op).
      ++n_badpair;
      if (paired != nullptr && !paired->has_value() &&
          reject_stamp_[node.op] != walk_id_) {
        if (const Candidate* c = best_of(node)) {
          *paired = decide(pos, node, *c);
        } else if (auto capped = capped_layout(pos, node)) {
          *paired = capped;
        } else {
          reject_stamp_[node.op] = walk_id_;
        }
      }
      continue;
    }
    if (reject_stamp_[node.op] == walk_id_) {
      if (stats != nullptr) stats->guard_fallbacks += node.guard_rewrites;
      ++n_quick;
      continue;
    }
    if (auto capped = capped_layout(pos, node)) {
      flush_telemetry();
      return capped;
    }

    // O(1) rejection on failing scans: no menu entry can fit fewer cores
    // than the menu-wide minimum or finish faster than its fastest entry,
    // and no cache hit can exist either (a hit satisfies the same two
    // bounds), so this skip is decision- and stats-identical to probing.
    if (node.min_threads > idle_cores ||
        (something_running && node.min_time_ms > bound)) {
      if (stats != nullptr) stats->guard_fallbacks += node.guard_rewrites;
      reject_stamp_[node.op] = walk_id_;
      ++n_quick;
      continue;
    }

    // Decision cache: identical (tenant, op, idle width) situations reuse
    // the previous Strategy 3 outcome. Keyed by the stable id so a job's
    // cache follows it across tenant-set reconfigurations.
    if (use_cache) {
      const Candidate* c = decision_cache_.find(id, node.op, idle_cores);
      if (c != nullptr && c->threads <= idle_cores && c->time_ms <= bound) {
        if (stats != nullptr) ++stats->cache_hits;
        if (telem_.reg != nullptr) telem_.cache_hits->inc();
        flush_telemetry();
        return decide(pos, node, *c);
      }
    }

    if (stats != nullptr) stats->guard_fallbacks += node.guard_rewrites;

    if (const Candidate* best = best_of(node)) {
      const AdmissionDecision d = decide(pos, node, *best);
      if (use_cache) {
        decision_cache_.insert(id, node.op, idle_cores, *best);
        if (telem_.reg != nullptr) telem_.cache_misses->inc();
      }
      flush_telemetry();
      return d;
    }
    reject_stamp_[node.op] = walk_id_;
  }
  flush_telemetry();
  return std::nullopt;
}

std::optional<MultiAdmissionDecision> AdmissionPolicy::pick_once(
    const std::vector<TenantReadyView>& tenants, int idle_cores,
    const RunningScratch& running,
    const std::vector<std::vector<std::size_t>>& skips,
    std::vector<AdmissionStats>* stats) {
  tenant_order(tenants.size(), order_scratch_);
  static const std::vector<std::size_t> kNoSkip;

  const bool s3 = (options_.strategies & kStrategy3) != 0;
  if (!s3) {
    // Serial mode (Strategies 1-2 only): one op at a time at its chosen
    // width, like the paper's Figure 3(a) configuration. The deficit order
    // still arbitrates which tenant's op runs next.
    if (!running.ops.empty()) return std::nullopt;
    for (const std::size_t t : order_scratch_) {
      const ReadyQueue& ready = *tenants[t].ready;
      const auto& skip = skips.empty() ? kNoSkip : skips[t];
      for (std::size_t pos = 0; pos < ready.size(); ++pos) {
        if (position_skipped(skip, pos)) continue;
        const GraphBinding& b = bind(t, *tenants[t].graph);
        MultiAdmissionDecision d;
        d.tenant = t;
        d.decision.ready_pos = pos;
        d.decision.candidate = b.nodes[ready[pos]].choice;
        d.decision.candidate.threads =
            std::min(d.decision.candidate.threads, idle_cores);
        d.decision.op_token = b.nodes[ready[pos]].op;
        charge(t, d.decision.candidate);
        return d;
      }
    }
    return std::nullopt;
  }

  // Latency floors: cores reserved away from batch picks this round, so a
  // latency-critical tenant's next ready op always finds its floor free.
  // Zero (no reservation arithmetic at all) for all-batch populations.
  const bool any_floor =
      std::any_of(floors_.begin(), floors_.end(), [](int f) { return f > 0; });
  const int reserved =
      any_floor ? reserved_for_latency(tenants, running, idle_cores) : 0;

  // The first bad-paired launch that passed every other check, in visit
  // order: taken only when no tenant has any other admissible launch.
  std::optional<AdmissionDecision> paired;
  std::size_t paired_tenant = 0;
  for (const std::size_t t : order_scratch_) {
    if (tenants[t].ready->empty()) continue;
    const int usable = tenant_floor(t) > 0 ? idle_cores : idle_cores - reserved;
    if (usable <= 0) continue;
    const GraphBinding& b = bind(t, *tenants[t].graph);
    const bool had_paired = paired.has_value();
    auto pick = pick_for_tenant(t, b, *tenants[t].ready, usable, running,
                                skips.empty() ? kNoSkip : skips[t],
                                stats != nullptr ? &(*stats)[t] : nullptr,
                                &paired);
    if (pick.has_value()) {
      charge(t, pick->candidate);
      if (pick->layout_capped && telem_.reg != nullptr)
        telem_.layout_coruns->inc();
      return MultiAdmissionDecision{t, *pick};
    }
    if (!had_paired && paired.has_value()) paired_tenant = t;
  }

  if (!running.ops.empty()) {
    // A recorded pair means "prefer another launch": with nothing else
    // admissible, co-running the pair beats leaving the cores idle.
    if (!paired.has_value()) return std::nullopt;  // wait for a completion
    charge(paired_tenant, paired->candidate);
    if (telem_.reg != nullptr) {
      telem_.badpair_overrides->inc();
      if (paired->layout_capped) telem_.layout_coruns->inc();
    }
    return MultiAdmissionDecision{paired_tenant, *paired};
  }

  // Machine empty but nothing "fits" anywhere: the least-served tenant with
  // ready work runs its most time-consuming op, capped to the idle width
  // (batch tenants additionally leave the latency reservation untouched).
  for (const std::size_t t : order_scratch_) {
    const ReadyQueue& ready = *tenants[t].ready;
    if (ready.empty()) continue;
    const int usable = tenant_floor(t) > 0 ? idle_cores : idle_cores - reserved;
    if (usable <= 0) continue;
    const GraphBinding& b = bind(t, *tenants[t].graph);
    const auto& skip = skips.empty() ? kNoSkip : skips[t];
    std::size_t heavy_pos = 0;
    double heavy_time = -1.0;
    bool any = false;
    for (std::size_t pos = 0; pos < ready.size(); ++pos) {
      if (position_skipped(skip, pos)) continue;
      const double time = b.nodes[ready[pos]].choice.time_ms;
      if (time > heavy_time) {
        heavy_time = time;
        heavy_pos = pos;
      }
      any = true;
    }
    if (!any) continue;
    MultiAdmissionDecision d;
    d.tenant = t;
    d.decision.ready_pos = heavy_pos;
    d.decision.candidate = b.nodes[ready[heavy_pos]].choice;
    d.decision.candidate.threads =
        std::min(d.decision.candidate.threads, usable);
    d.decision.heavy_fallback = true;
    d.decision.op_token = b.nodes[ready[heavy_pos]].op;
    charge(t, d.decision.candidate);
    if (telem_.reg != nullptr) telem_.heavy_fallbacks->inc();
    return d;
  }
  return std::nullopt;
}

// ---- public entry points -------------------------------------------------

std::vector<MultiAdmissionDecision> AdmissionPolicy::next_launch_batch(
    const std::vector<TenantReadyView>& tenants, int idle_cores,
    const std::vector<RunningOpView>& running,
    std::vector<AdmissionStats>* stats, std::size_t max_launches) {
  std::vector<MultiAdmissionDecision> batch;
  if (tenants.empty() || idle_cores <= 0 || max_launches == 0) return batch;
  if (stats != nullptr) stats->resize(tenants.size());
  const double t0 = telem_.reg != nullptr ? wall_time_ms() : 0.0;
  ensure_tenants(tenants.size());
  refresh_decisions(tenants);
  resolve_running(running, running_scratch_);

  std::vector<std::vector<std::size_t>> picked(tenants.size());
  int idle = idle_cores;
  while (batch.size() < max_launches && idle > 0) {
    auto d = pick_once(tenants, idle, running_scratch_, picked, stats);
    if (!d.has_value()) break;
    const std::size_t t = d->tenant;
    const std::size_t orig = d->decision.ready_pos;

    // Report the position relative to the queue AFTER the earlier picks of
    // this batch are erased in order (what the caller actually holds).
    std::size_t shifted = orig;
    for (const std::size_t p : picked[t]) {
      if (p < orig) --shifted;
    }
    picked[t].push_back(orig);
    MultiAdmissionDecision out = *d;
    out.decision.ready_pos = shifted;
    batch.push_back(out);

    // Model the pick as launched for the rest of the batch: its width
    // leaves the idle pool and it joins the running snapshot at its
    // predicted duration (exactly what the executor's next views() call
    // would report, minus the negligible elapsed decay within one wake).
    const Candidate& c = out.decision.candidate;
    idle -= std::max(1, c.threads);
    const GraphBinding& b = bind(t, *tenants[t].graph);
    const BoundNode& node = b.nodes[(*tenants[t].ready)[orig]];
    const double remaining =
        c.time_ms > 0.0 ? c.time_ms : node.choice.time_ms;
    running_scratch_.ops.push_back(
        TenantArenaOp{stable_id(t), node.op});
    running_scratch_.max_remaining =
        std::max(running_scratch_.max_remaining, remaining);
    if (running_scratch_.held.size() <= t)
      running_scratch_.held.resize(t + 1, 0);
    running_scratch_.held[t] += std::max(1, c.threads);
  }
  if (telem_.reg != nullptr) {
    telem_.decisions->inc();
    telem_.decision_ms->observe(wall_time_ms() - t0);
  }
  return batch;
}

std::optional<MultiAdmissionDecision> AdmissionPolicy::next_overlay_multi(
    const std::vector<TenantReadyView>& tenants, int eligible_cores,
    const std::vector<RunningOpView>& running) {
  if (tenants.empty() || eligible_cores <= 0) return std::nullopt;
  if ((options_.strategies & kStrategy4) == 0) return std::nullopt;
  ensure_tenants(tenants.size());
  refresh_decisions(tenants);
  resolve_running(running, running_scratch_);
  tenant_order(tenants.size(), order_scratch_);

  // Smallest-first with a bad-pair skip: a candidate that forms a recorded
  // bad pair with a running op is passed over and the next-smallest
  // considered (abandoning the whole overlay round for one blocked pair
  // wastes the spare contexts on every other ready op). Each tenant's
  // blocked ops are stamped up front, exactly as pick_for_tenant does, so
  // one scan per queue finds its smallest unblocked op. Visiting tenants in
  // deficit order with a strict < makes ties go to the least-served tenant,
  // then to the earlier queue position, deterministically.
  const bool check_pairs = options_.interference_recorder &&
                           bad_pair_count_ != 0 &&
                           !running_scratch_.ops.empty();
  std::size_t small_tenant = 0, small_pos = 0;
  double small_time = std::numeric_limits<double>::infinity();
  bool found = false;
  for (const std::size_t t : order_scratch_) {
    const ReadyQueue& ready = *tenants[t].ready;
    if (ready.empty()) continue;
    const GraphBinding& b = bind(t, *tenants[t].graph);
    begin_walk();
    if (check_pairs) stamp_bad_partners(stable_id(t), running_scratch_.ops);
    for (std::size_t pos = 0; pos < ready.size(); ++pos) {
      const BoundNode& node = b.nodes[ready[pos]];
      if (node.serial_ms < small_time && badpair_stamp_[node.op] != walk_id_) {
        small_time = node.serial_ms;
        small_tenant = t;
        small_pos = pos;
        found = true;
      }
    }
  }
  if (!found) return std::nullopt;

  const BoundNode& node =
      bindings_[small_tenant].nodes[(*tenants[small_tenant].ready)[small_pos]];
  MultiAdmissionDecision d;
  d.tenant = small_tenant;
  d.decision.ready_pos = small_pos;
  d.decision.candidate = node.choice;
  d.decision.candidate.threads =
      std::min(d.decision.candidate.threads, eligible_cores);
  d.decision.op_token = node.op;

  // Throughput guard also applies to overlays: an overlay that would
  // outlast everything it rides on would delay the step.
  const double overlay_est =
      d.decision.candidate.time_ms * kOverlaySlowdownBound;
  if (overlay_est > running_scratch_.max_remaining * (1.0 + kCorunSlack))
    return std::nullopt;
  // No service charge: overlays consume spare hyper-thread contexts that
  // cost the other tenants nothing, so they must not move their rider
  // down the primary-core deficit order.
  if (telem_.reg != nullptr) telem_.overlay_grants->inc();
  return d;
}

}  // namespace opsched
