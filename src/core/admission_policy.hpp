// AdmissionPolicy: the machine-agnostic Strategy 1-4 admission logic shared
// by the simulator path (Runtime over SimMachine) and the native host
// executor (HostCorunExecutor). One policy behind one dispatch loop
// (core/dispatch.hpp) guarantees the two execution paths cannot drift:
// both ask this component the same questions and carry the same learned
// state (decision cache, interference record).
//
// The policy sees the machine only through plain values — the ready queue,
// the idle-core count, and a snapshot of the in-flight ops — so it neither
// knows nor cares whether "cores" are simulated or physical. Time values are
// whatever timescale the database's curves were profiled in; the policy
// only ever compares them against each other (Strategy 3's throughput guard
// is scale-free).
//
// Decisions: the policy owns the Strategy 1/2 decisions for the graphs it
// walks. Profiling only fills the PerfDatabase; at each walk the policy
// checks the walked graphs (by Graph::uid, in slot order) and the
// database's version against those of its last build, and on any change
// builds a new ConcurrencyController over exactly those graphs and drops
// its graph bindings. Learned state (decision cache, interference record)
// is kept.
//
// Hot path: every structure the per-launch walk touches is flat and
// arena-indexed. Each distinct OpKey is interned once into a dense 32-bit
// arena id; per (slot, graph) the policy binds a node-indexed array carrying
// the arena id, the S1/S2 choice and its predicted time, the Strategy-3
// candidate menu (with the S2 guard pre-applied), and the serial time — so
// the walk over a thousand-op ready queue does no hashing and no map
// lookups, just indexed loads. The decision cache is an open-addressed flat
// table keyed by (stable tenant id, arena op, idle width); the interference
// record is an adjacency map from each (stable tenant id, arena op)
// endpoint to its recorded partners, so recording and stamping cost O(1)
// per pair.
//
// Multi-tenancy: the policy admits ops from N independent ready queues (one
// per co-located training job) through the same Strategy 3 candidate walk,
// visiting tenants in weighted-deficit order — the tenant with the least
// accumulated weighted service gets first claim on idle cores each round, so
// one job can neither starve the others nor be starved by them. Learned
// state (decision cache, interference record) is tenant-qualified: two
// tenants running the same model learn independently, and cross-tenant bad
// pairs are representable. A single training job is the N=1 population.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/concurrency_controller.hpp"
#include "core/ready_queue.hpp"
#include "obs/metrics.hpp"

namespace opsched {

/// Identifies one op of one tenant (a slot index of the configured
/// population; the policy keys learned state by the slot's stable id).
struct TenantOpKey {
  std::size_t tenant = 0;
  OpKey key;
  auto operator<=>(const TenantOpKey&) const = default;
};

/// Snapshot of one in-flight operation, as the admission policy sees it.
/// (The Strategy-4 overlay exemption from the interference recorder is
/// applied by the executors at completion-record time, so the policy does
/// not need to know which running ops are overlays.)
/// "No token" sentinel for RunningOpView::op_token /
/// AdmissionDecision::op_token.
inline constexpr std::uint32_t kNoOpToken = 0xFFFFFFFFu;

struct RunningOpView {
  OpKey key;
  /// Predicted time until completion, on the controller's timescale.
  double remaining_ms = 0.0;
  /// Slot of the tenant that launched the op.
  std::size_t tenant = 0;
  /// Cores the op occupies. 0 means "unknown" — the latency-floor
  /// reservation then conservatively treats the tenant as holding nothing.
  int threads = 0;
  /// Dense policy-arena id of `key`, when the caller kept the one its
  /// admission decision returned (AdmissionDecision::op_token). Passing it
  /// back keeps per-wake snapshot resolution off the arena map — the
  /// policy falls back to resolving `key` when it is kNoOpToken.
  std::uint32_t op_token = kNoOpToken;
};

/// One tenant's scheduling inputs for the multi-tenant pick: its graph and
/// its private ready queue. Both are borrowed for the call.
struct TenantReadyView {
  const Graph* graph = nullptr;
  const ReadyQueue* ready = nullptr;
};

/// Tenant population of one co-located step, with STABLE identities. Slot
/// indices are fine identities while the tenant set is fixed — but a
/// serving layer reconfigures the set between steps as jobs arrive,
/// finish, and cancel, and slot indices then alias across unrelated jobs.
/// A TenantSet instead gives every slot a caller-chosen stable id (the
/// serving layer passes job ids): learned state (decision cache,
/// interference record) and the fairness ledger follow the ID, so a job
/// keeps its history when it shifts slots and never inherits another
/// job's.
struct TenantSet {
  /// Stable id per slot; must be distinct within one step.
  std::vector<std::size_t> ids;
  /// Relative service shares per slot (missing/non-positive default 1.0).
  std::vector<double> weights;
  /// Per-slot latency width floors (missing entries default 0). A non-zero
  /// floor marks the slot LATENCY-CRITICAL: the admission walk visits such
  /// tenants before every batch tenant whatever their fairness deficit
  /// (preempt-at-op-boundary priority — a training op is never interrupted
  /// mid-kernel, but as cores free up the latency tenant's ready ops claim
  /// them first), and while a latency tenant has ready work, batch picks
  /// must leave it at least `floor` cores (counting the cores it already
  /// holds). Floors are clamped so batch tenants with ready work always
  /// keep at least one admissible core — latency tenants may never starve
  /// training to zero progress.
  std::vector<int> floors;
  /// Keep each id's accumulated fairness deficit from previous steps
  /// (churn-tolerant co-run: a job shortchanged last step is first in line
  /// this step). false resets every slot's deficit at step start.
  bool preserve_service = true;

  /// The slot-indexed population: ids 0..n-1, per-step service reset.
  static TenantSet slots(std::size_t count,
                         const std::vector<double>& weights = {});
};

/// Counters the policy increments while deciding; executors fold them into
/// their per-step statistics.
struct AdmissionStats {
  std::size_t cache_hits = 0;
  std::size_t guard_fallbacks = 0;
};

/// One admitted launch: which ready-queue entry to run and how.
struct AdmissionDecision {
  /// Index into the ready queue passed to the picker. For batched picks
  /// this is the position AFTER the preceding decisions of the same batch
  /// have been applied (erased) in order.
  std::size_t ready_pos = 0;
  Candidate candidate;
  /// True when the machine was empty and nothing fit: the most
  /// time-consuming ready op runs, capped to the idle width.
  bool heavy_fallback = false;
  /// True when a layout op (one the runtime cannot tune) whose default
  /// width does not fit launched capped to the idle width, beside another
  /// slot's in-flight work.
  bool layout_capped = false;
  /// Dense policy-arena id of the picked op; hand it back via
  /// RunningOpView::op_token while the op runs to spare the arena lookup.
  std::uint32_t op_token = kNoOpToken;
};

/// One admitted launch of the multi-tenant walk: which tenant's queue it
/// came from, and the per-queue decision.
struct MultiAdmissionDecision {
  std::size_t tenant = 0;
  AdmissionDecision decision;
};

/// Lifetime: keeps a reference to `db`, which must outlive it.
/// Thread-safety: NOT thread-safe — the admission walks and
/// record_interference mutate the learned state, so each executor drives
/// its own policy instance from one thread at a time (both Runtime's
/// simulator path and HostCorunExecutor make their scheduling decisions on
/// a single dispatcher thread).
class AdmissionPolicy {
 public:
  /// Idle-core threshold below which Strategy 4 considers the machine full
  /// and starts overlaying small ops onto spare hyper-thread contexts.
  static constexpr std::size_t kOverlayTriggerIdleCores = 8;
  /// Primaries below this memory intensity leave spare core cycles for a
  /// Strategy-4 overlay; memory-bound ones only gain bandwidth pressure.
  /// Both substrates' overlay_cores() apply it.
  static constexpr double kComputeBoundCutoff = 0.45;
  /// Upper bound on the slowdown a hyper-thread secondary suffers; the
  /// throughput guard scales an overlay candidate's time by this factor.
  static constexpr double kOverlaySlowdownBound = 2.5;
  /// Tolerance when comparing a candidate's time against the ongoing ops'
  /// remaining time (the Strategy 3/4 throughput guard).
  static constexpr double kCorunSlack = 0.05;
  /// Most recorded partners one (tenant, op) endpoint keeps; recording one
  /// more evicts its oldest pair, which is then free to be retested.
  static constexpr std::size_t kMaxBadPartners = 8;

  /// Decides from the curves in `db`; `default_width` (the machine's
  /// physical cores) is the width of ops without a decision.
  AdmissionPolicy(const PerfDatabase& db, RuntimeOptions options,
                  int default_width)
      : db_(db), options_(options), default_width_(default_width) {}

  /// Declares the tenant population of a co-located step: slot t carries
  /// stable id set.ids[t] with relative service share set.weights[t]
  /// (missing or non-positive entries default to 1.0; weight 2 means "twice
  /// the claim on contended cores"). Learned state and the persistent
  /// fairness ledger are keyed by these ids, so a reconfigured tenant set
  /// (jobs arriving/finishing between steps) keeps every continuing job's
  /// history and deficit; TenantSet::slots gives the per-step-reset
  /// slot-indexed population. Throws std::invalid_argument on duplicate ids
  /// or a size mismatch with non-empty weights.
  void configure_tenants(const TenantSet& set);

  /// Forgets everything keyed to stable id `id`: its fairness deficit, its
  /// decision-cache entries, and every recorded bad pair with one endpoint
  /// owned by it. The serving layer calls this when a job leaves for good
  /// (completed/cancelled), so a long-running service's learned state does
  /// not grow with the total number of jobs ever served.
  void retire_tenant(std::size_t id);

  /// The Strategy-3 admission walk: up to `max_launches` admissible
  /// launches decided against ONE machine snapshot. `idle_cores` is the
  /// count of unoccupied cores; `running` snapshots the in-flight ops.
  ///
  /// Each pick visits tenants in weighted-deficit order (least accumulated
  /// weighted service first) and walks each tenant's queue in arrival order
  /// until one yields an admissible launch (or runs the serial pick when
  /// Strategy 3 is off), charging the winner's service ledger. An op that
  /// forms a recorded bad pair with a running op is passed over while any
  /// other launch is admissible; when none is, the first bad-paired op that
  /// passes every other check co-runs rather than leave the cores idle.
  /// The heavy fallback — the most time-consuming ready op, capped to the
  /// idle width — applies only when the machine is empty and NO tenant had
  /// an admissible candidate. An empty result means "wait for a
  /// completion".
  ///
  /// Decision i models the preceding i-1 picks as already launched (idle
  /// cores shrink, the picks join the running snapshot at their predicted
  /// duration) and reports its ready_pos relative to the queue AFTER those
  /// picks are erased — apply the batch in order. max_launches == 1 is the
  /// one-decision-per-round walk; larger batches differ from it only
  /// through snapshot staleness within a batch, which can never change
  /// numerics, only schedule shape (the determinism contract).
  ///
  /// `stats`, when non-null, is resized to the tenant count and entry t
  /// accumulates the counters (cache hits, Strategy-2 guard fallbacks)
  /// incurred walking tenant t's OWN queue — attribution is per queue, not
  /// per winner, and rounds that end in a wait still count.
  std::vector<MultiAdmissionDecision> next_launch_batch(
      const std::vector<TenantReadyView>& tenants, int idle_cores,
      const std::vector<RunningOpView>& running,
      std::vector<AdmissionStats>* stats, std::size_t max_launches);

  /// One Strategy-4 pick: the globally smallest ready op (by serial time)
  /// across every tenant's queue, admitted onto `eligible_cores` spare
  /// hyper-thread contexts if it passes the interference record and the
  /// overlay throughput guard (overlay slots are scavengers — fairness
  /// applies only to primary cores, so overlays are neither arbitrated by
  /// nor charged to the service ledger; ties go to the least-served
  /// tenant, then to the earlier queue position). An op that forms a
  /// recorded bad pair with a running op is skipped, so the pick is the
  /// smallest pairable op, and it alone faces the throughput guard.
  /// Returns nullopt when no overlay should launch.
  std::optional<MultiAdmissionDecision> next_overlay_multi(
      const std::vector<TenantReadyView>& tenants, int eligible_cores,
      const std::vector<RunningOpView>& running);

  /// Records that `completed` co-ran badly with each of `corunners` (paper
  /// Section III-D: "record such cases and avoid co-running such operations
  /// in the future training steps"). Each endpoint keeps at most
  /// kMaxBadPartners partners, evicting its oldest pair first.
  void record_interference(const TenantOpKey& completed,
                           const std::vector<TenantOpKey>& corunners);

  std::size_t recorded_bad_pairs() const { return bad_pair_count_; }
  /// Bad pairs with at least one endpoint owned by `tenant` (a STABLE id —
  /// identical to the slot index for slot-indexed populations).
  std::size_t recorded_bad_pairs(std::size_t tenant) const;

  /// Weighted service charged to slot `tenant` so far this multi-step (0
  /// for unknown tenants). Exposed for the fairness tests and bench
  /// metrics.
  double tenant_service(std::size_t tenant) const;
  std::size_t tenant_count() const noexcept { return service_.size(); }

  /// Latency width floor of slot `tenant` for the configured population
  /// (0 for batch tenants and unknown slots). Exposed for the SLO tests.
  int tenant_floor(std::size_t tenant) const {
    return tenant < floors_.size() ? floors_[tenant] : 0;
  }

  /// Accumulated weighted service of stable id `id` across every step since
  /// it first appeared in a configure_tenants(TenantSet) population (0 for
  /// unknown ids). Survives reconfigurations until retire_tenant(id).
  double service_of(std::size_t id) const;

  /// Live decision-cache entries. With retire_tenant called on every
  /// departing id this stays bounded by the resident working set — the
  /// churn tests assert it.
  std::size_t decision_cache_entries() const noexcept {
    return decision_cache_.size();
  }
  /// Stable ids with a retained fairness-ledger entry (same bound).
  std::size_t retained_tenants() const noexcept {
    return retained_service_.size();
  }
  /// Distinct OpKeys interned so far (bounded by distinct op shapes ever
  /// seen, NOT by tenant count — shared across tenants by design).
  std::size_t arena_size() const noexcept { return arena_ids_.size(); }

  /// Clears learned state (decision cache + interference record).
  void reset_learning();

  /// Attaches fleet telemetry: registers the policy_* metric family in
  /// `reg` (qualified with {shard="<instance>"} when `instance` is
  /// non-empty) and starts updating it. nullptr detaches. Cells are
  /// resolved once here, so the hot walk pays one pointer test when
  /// detached and relaxed atomic adds (batched per call) when attached.
  /// Metrics are write-only from the policy's perspective — attaching can
  /// never change a decision.
  void attach_metrics(obs::Registry* reg, const std::string& instance = "");

  const RuntimeOptions& options() const noexcept { return options_; }

 private:
  /// Dense arena id of one interned OpKey.
  using ArenaOp = std::uint32_t;
  static constexpr ArenaOp kNoArenaOp = 0xFFFFFFFFu;

  /// One endpoint of a learned-state fact: (stable tenant id, arena op).
  struct TenantArenaOp {
    std::size_t tenant = 0;
    ArenaOp op = kNoArenaOp;
    auto operator<=>(const TenantArenaOp&) const = default;
  };
  struct TenantArenaOpHash {
    std::size_t operator()(const TenantArenaOp& k) const noexcept;
  };

  /// Per-node record of one graph binding: everything the hot walk needs,
  /// resolved once per (slot, graph) after each decision build.
  struct BoundNode {
    ArenaOp op = kNoArenaOp;
    std::uint32_t menu_begin = 0;   // into GraphBinding::menu
    std::uint32_t menu_count = 0;
    /// Strategy-2 guard rewrites baked into the menu; added to the caller's
    /// guard_fallbacks stat each time the walk evaluates this node's menu,
    /// reproducing the per-visit accounting of the unbound implementation.
    std::uint32_t guard_rewrites = 0;
    Candidate choice;               // S1/S2 solo decision and its time
    double serial_ms = 0.0;
    /// A layout op (!op_kind_tunable): its menu is the default width alone.
    bool layout = false;
    /// Menu-wide minima, for O(1) rejection on the walk's failing scans: if
    /// min_threads exceeds the idle width, or min_time_ms outlasts the
    /// guard bound, NO menu entry can be admissible.
    int min_threads = 0;
    double min_time_ms = 0.0;
  };

  /// One slot's bound graph: node-id-indexed records plus the concatenated
  /// candidate menus.
  struct GraphBinding {
    const Graph* graph = nullptr;  // null until bound after a build
    std::vector<BoundNode> nodes;
    std::vector<Candidate> menu;
  };

  /// Open-addressed flat decision cache keyed by (stable tenant id, arena
  /// op, idle width). Power-of-two capacity, linear probing; entries for a
  /// retiring tenant are dropped by rebuild (retirement is rare).
  class DecisionCache {
   public:
    const Candidate* find(std::size_t tenant, ArenaOp op, int idle) const;
    void insert(std::size_t tenant, ArenaOp op, int idle, const Candidate& c);
    void erase_tenant(std::size_t tenant);
    void clear();
    std::size_t size() const noexcept { return count_; }

   private:
    struct Entry {
      std::size_t tenant = 0;
      ArenaOp op = kNoArenaOp;  // kNoArenaOp marks an empty slot
      int idle = 0;
      Candidate value;
    };
    static std::size_t hash(std::size_t tenant, ArenaOp op, int idle);
    void grow();

    std::vector<Entry> slots_;
    std::size_t count_ = 0;
  };

  /// Stable id of slot `slot` (identity when no TenantSet was configured).
  /// Every learned-state touch goes through this, so slot-indexed callers
  /// behave exactly as before while TenantSet callers get id-keyed state.
  std::size_t stable_id(std::size_t slot) const {
    return slot < slot_ids_.size() ? slot_ids_[slot] : slot;
  }
  /// Aligns the fairness ledger with a walk over `count` tenants: a size
  /// other than the configured population's (or no configure_tenants call
  /// at all) resets to the identity population of `count`.
  void ensure_tenants(std::size_t count);
  /// Tenant visit order: latency-critical slots (non-zero floor) before
  /// batch slots, each group in ascending accumulated weighted service,
  /// ties by tenant index (deterministic). Fills the reusable scratch
  /// vector.
  void tenant_order(std::size_t count, std::vector<std::size_t>& order) const;
  /// Adds one launch's weighted cost to the tenant's service ledger.
  void charge(std::size_t tenant, const Candidate& c);

  /// Interns `key`, assigning the next dense arena id on first sight.
  ArenaOp intern(const OpKey& key);
  /// Arena id of `key` if already interned, else kNoArenaOp (const paths).
  ArenaOp lookup_arena(const OpKey& key) const;
  /// Builds a new controller over the walked graphs, and unbinds every
  /// slot, when the graphs (by uid, in slot order) or the database version
  /// differ from the last build's.
  void refresh_decisions(const std::vector<TenantReadyView>& tenants);
  /// Binds slot `t` to `g` unless it is already bound to it since the
  /// last decision build; returns the live binding.
  const GraphBinding& bind(std::size_t t, const Graph& g);

  /// Running snapshot resolved to (stable id, arena op) plus the remaining
  /// maximum — the form every bad-pair probe and throughput guard consumes.
  struct RunningScratch {
    std::vector<TenantArenaOp> ops;
    double max_remaining = 0.0;
    /// Cores currently held per SLOT (from RunningOpView::threads), the
    /// input to the latency-floor reservation. Sized to the largest slot
    /// index seen; missing slots hold nothing.
    std::vector<int> held;
  };
  void resolve_running(const std::vector<RunningOpView>& running,
                       RunningScratch& out) const;

  /// Idle cores the latency floors reserve away from BATCH picks this
  /// round: for every latency-critical slot with ready work, the part of
  /// its floor not already covered by cores it holds. Clamped to
  /// idle_cores - 1 whenever a batch tenant has ready work, so floors can
  /// slow training down but never starve it outright.
  int reserved_for_latency(const std::vector<TenantReadyView>& tenants,
                           const RunningScratch& running,
                           int idle_cores) const;

  void insert_bad_pair(TenantArenaOp a, TenantArenaOp b);
  /// Evicts `a`'s oldest pair when its partner list is full.
  void make_room(TenantArenaOp a);
  /// Pairs of the record with an endpoint satisfying `pred`, each counted
  /// once (O(record) — for the accessors and retirement, not the walk).
  template <typename Pred>
  std::size_t count_pairs(Pred pred) const;
  /// Starts a fresh stamp epoch (walk_id_) for one queue walk, sizing the
  /// stamp arrays to every arena op interned so far.
  void begin_walk();
  /// Stamps badpair_stamp_[op] = walk_id_ for every op that tenant `id`
  /// may not co-run beside the resolved running set — the walk then skips
  /// those ops with one array probe per visited candidate instead of a
  /// probe of the pair record.
  void stamp_bad_partners(std::size_t id,
                          const std::vector<TenantArenaOp>& running);

  /// The Strategy-3 candidate walk over one tenant's queue (no heavy
  /// fallback; that is the caller's cross-tenant decision). `skip` lists
  /// the ORIGINAL queue positions already picked earlier in the current
  /// batch (empty for single picks); positions in it are passed over. The
  /// returned ready_pos is the ORIGINAL queue position — next_launch_batch
  /// shifts it past the earlier picks before handing it to the caller.
  /// Bad-paired ops are passed over; when `paired` is non-null and still
  /// empty, the first of them that passes every other check is stored
  /// there (pick_once's last resort before leaving cores idle). A layout
  /// op whose default width does not fit launches capped to `idle_cores`
  /// when another slot holds cores (the same cap as the heavy fallback);
  /// capped picks never enter the decision cache.
  std::optional<AdmissionDecision> pick_for_tenant(
      std::size_t tenant, const GraphBinding& binding,
      const ReadyQueue& ready, int idle_cores, const RunningScratch& running,
      const std::vector<std::size_t>& skip, AdmissionStats* stats,
      std::optional<AdmissionDecision>* paired);

  /// One pick of the batch walk.
  std::optional<MultiAdmissionDecision> pick_once(
      const std::vector<TenantReadyView>& tenants, int idle_cores,
      const RunningScratch& running,
      const std::vector<std::vector<std::size_t>>& skips,
      std::vector<AdmissionStats>* stats);

  const PerfDatabase& db_;
  RuntimeOptions options_;
  int default_width_;
  /// The Strategy 1/2 decisions over decided_over_ (empty before the first
  /// walk), built from the database at version decided_version_.
  std::optional<ConcurrencyController> controller_;
  std::vector<std::uint64_t> decided_over_;  // walked graphs' uids
  std::uint64_t decided_version_ = 0;

  /// OpKey -> dense arena id. Grows with distinct op shapes ever seen
  /// (survives reset_learning — ids must stay stable because bindings and
  /// learned state reference them).
  std::map<OpKey, ArenaOp> arena_ids_;
  /// Per-slot graph bindings (hot-path node records).
  std::vector<GraphBinding> bindings_;

  /// Interference recorder: unordered tenant-qualified op pairs seen to
  /// co-run badly, as an adjacency map — each endpoint lists its partners
  /// in recording order (at most kMaxBadPartners), and a pair {a, b} sits
  /// in both a's and b's list (a self pair once). Tenant fields hold STABLE
  /// ids. A pair means "prefer another launch", not "never launch".
  std::unordered_map<TenantArenaOp, std::vector<TenantArenaOp>,
                     TenantArenaOpHash>
      bad_partners_;
  std::size_t bad_pair_count_ = 0;
  DecisionCache decision_cache_;

  /// Fairness ledger: accumulated weighted service and weight per SLOT for
  /// the current step's population.
  std::vector<double> service_;
  std::vector<double> weights_;
  /// Latency width floor per SLOT (0 = batch tenant); see TenantSet::floors.
  std::vector<int> floors_;
  /// Stable id per slot (identity for implicit populations).
  std::vector<std::size_t> slot_ids_;
  /// Id-keyed service carried across reconfigurations (TenantSet callers
  /// with preserve_service). charge() mirrors into this; retire_tenant and
  /// non-preserving reconfigures erase.
  std::map<std::size_t, double> retained_service_;

  // Reusable per-call scratch (the hot path allocates nothing in steady
  // state).
  std::vector<std::size_t> order_scratch_;
  RunningScratch running_scratch_;
  /// Per-walk rejection memos (see pick_for_tenant): stamp[op] == walk_id_
  /// marks an arena op already proven inadmissible / bad-paired under the
  /// current snapshot. Arena-id-indexed for O(1) probes; never shrinks.
  std::vector<std::uint64_t> reject_stamp_;
  std::vector<std::uint64_t> badpair_stamp_;
  std::uint64_t walk_id_ = 0;

  /// Telemetry cells resolved at attach_metrics time (all null when
  /// detached). deficit_gauges_ is slot-indexed and rebuilt whenever the
  /// population changes, so charge() updates a gauge with one array load.
  struct Telemetry {
    obs::Registry* reg = nullptr;
    std::string instance;
    obs::Counter* decisions = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* quick_rejects = nullptr;
    obs::Counter* badpair_skips = nullptr;
    obs::Counter* badpair_overrides = nullptr;
    obs::Counter* overlay_grants = nullptr;
    obs::Counter* heavy_fallbacks = nullptr;
    obs::Counter* layout_coruns = nullptr;
    obs::Histogram* decision_ms = nullptr;
  };
  Telemetry telem_;
  std::vector<obs::Gauge*> deficit_gauges_;
  /// (Re)creates the per-slot fairness gauges for the current population.
  void rebuild_deficit_gauges();
};

}  // namespace opsched
