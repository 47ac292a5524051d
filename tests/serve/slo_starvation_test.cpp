// The starvation guard around latency width floors, at both layers:
//   - core AdmissionPolicy: latency-critical slots are visited first and
//     their floors reserve idle cores away from batch picks — but the
//     reservation is CLAMPED so a batch tenant with ready work always
//     keeps one admissible core. The regressions here fail if floors are
//     mis-applied (reservation unclamped, or charged against the latency
//     tenant itself).
//   - SchedulerService: an inference tenant with an absurd width floor and
//     a saturating request stream must never drop a co-resident training
//     job's progress to zero.
//
// The policy tests run on SYNTHETIC profile curves, not machine profiles:
// the pick rule is fewest-threads-admissible, so a floor's effect is only
// observable when it pushes the batch tenant's usable width below an op's
// narrowest menu entry — the menus below pin those widths exactly (conv
// bottoms out at 12 threads, the tiny bias add at 1).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/admission_policy.hpp"
#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "perf/perf_db.hpp"
#include "serve/service.hpp"
#include "testing/graph_fuzz.hpp"

namespace opsched {
namespace {

/// Four identical convs plus a tiny bias add (node ids: 0 source,
/// 1-4 convs, 5 tiny) — the admission-policy scripting workload. The
/// convs share one OpKey, so one recorded bad pair blocks any of them
/// against any other within the same tenant.
Graph script_graph() {
  GraphBuilder gb;
  const NodeId src =
      gb.source(OpKind::kInputConversion, "in", TensorShape{32, 8, 8, 384});
  for (int i = 0; i < 4; ++i) {
    gb.op(OpKind::kConv2DBackpropInput, "conv" + std::to_string(i), {src},
          TensorShape{32, 8, 8, 384}, TensorShape{3, 3, 384, 384},
          TensorShape{32, 8, 8, 384});
  }
  gb.op(OpKind::kBiasAdd, "tiny", {src}, TensorShape{32, 8, 8, 16},
        TensorShape{16}, TensorShape{32, 8, 8, 16});
  return gb.take();
}

/// One admission decision over `tenants` (the batch-of-one walk).
std::optional<MultiAdmissionDecision> launch_one(
    AdmissionPolicy& p, const std::vector<TenantReadyView>& tenants, int idle,
    const std::vector<RunningOpView>& running) {
  const auto batch = p.next_launch_batch(tenants, idle, running, nullptr, 1);
  if (batch.empty()) return std::nullopt;
  return batch.front();
}

class SloFloorsTest : public ::testing::Test {
 protected:
  SloFloorsTest() : graph_(script_graph()) {
    // Conv menu {16 @ 8ms, 12 @ 10ms}: narrowest launch is 12 wide (the
    // samples sit within the Strategy-2 deviation guard of the 16-wide
    // optimum, so neither is rewritten). Any usable width below 12 denies
    // the op outright.
    ProfileCurve conv;
    conv.add_sample(AffinityMode::kSpread, 12, 10.0);
    conv.add_sample(AffinityMode::kSpread, 16, 8.0);
    db_.put(OpKey::of(graph_.node(1)), conv);
    // Tiny menu {1 @ 0.5ms}: the 2-thread sample is merged away by the
    // candidate spacing rule, leaving a genuine one-core launch — the
    // width the starvation clamp guarantees.
    ProfileCurve tiny;
    tiny.add_sample(AffinityMode::kSpread, 1, 0.5);
    tiny.add_sample(AffinityMode::kSpread, 2, 0.6);
    db_.put(OpKey::of(graph_.node(5)), tiny);
  }

  AdmissionPolicy make_policy() const {
    return AdmissionPolicy(db_, options_, /*default_width=*/68);
  }

  /// Two-slot population: slot 0 carries `floor0`, slot 1 `floor1`.
  static TenantSet two_slots(int floor0, int floor1) {
    TenantSet set;
    set.ids = {10, 11};
    set.floors = {floor0, floor1};
    return set;
  }

  RunningOpView running_view(NodeId node, double remaining,
                             std::size_t tenant, int threads) const {
    RunningOpView v;
    v.key = OpKey::of(graph_.node(node));
    v.remaining_ms = remaining;
    v.tenant = tenant;
    v.threads = threads;
    return v;
  }

  Graph graph_;
  RuntimeOptions options_;
  PerfDatabase db_;
};

TEST_F(SloFloorsTest, LatencyTenantIsVisitedBeforeBatch) {
  // Slot 0 is batch, slot 1 latency. Deficits tie at zero, and a tie
  // normally keeps slot order — so a slot-1 pick proves the latency class
  // preempts the walk order, not the deficit race.
  AdmissionPolicy p = make_policy();
  p.configure_tenants(two_slots(/*floor0=*/0, /*floor1=*/4));
  const ReadyQueue r0{1}, r1{2};
  const std::vector<TenantReadyView> tenants = {{&graph_, &r0},
                                                {&graph_, &r1}};
  const auto d = launch_one(p, tenants, 68, {});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tenant, 1u);
  EXPECT_EQ(p.tenant_floor(1), 4);
  EXPECT_EQ(p.tenant_floor(0), 0);
}

TEST_F(SloFloorsTest, FloorReservationNarrowsBatchPicks) {
  // Slot 0 latency (floor 12) holds 2 cores and its only ready op is a
  // layout op whose default width (68) is wider than
  // the 16 idle ones — and no other slot holds cores, so it waits for the
  // drain; slot 1 batch wants a conv whose narrowest launch is 12 wide.
  // Idle = 16, reservation = min(12 - 2, idle - 1) = 10, usable = 6 < 12 —
  // the floor visibly denies the wide batch pick, keeping the latency
  // tenant's cores free for its next request.
  AdmissionPolicy p = make_policy();
  p.configure_tenants(two_slots(/*floor0=*/12, /*floor1=*/0));

  const ReadyQueue r0{0}, r1{3};
  const std::vector<TenantReadyView> tenants = {{&graph_, &r0},
                                                {&graph_, &r1}};
  const auto running = std::vector<RunningOpView>{
      running_view(2, /*remaining=*/1e6, /*tenant=*/0, /*threads=*/2)};
  const auto d = launch_one(p, tenants, 16, running);
  EXPECT_FALSE(d.has_value()) << "reservation should deny the 12-wide conv";

  // Control: the same situation with no floors grants the batch tenant its
  // narrowest conv launch — proof the denial above came from the
  // reservation, not the machine state.
  AdmissionPolicy q = make_policy();
  q.configure_tenants(two_slots(0, 0));
  const auto wide = launch_one(q, tenants, 16, running);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->tenant, 1u);
  EXPECT_EQ(wide->decision.candidate.threads, 12);
}

TEST_F(SloFloorsTest, MisappliedFloorsNeverStarveBatchOutright) {
  // THE regression: a floor far beyond the machine (200 cores on a 16-core
  // snapshot). Without the idle_cores - 1 clamp the reservation would zero
  // the batch tenant's usable width and this pick would come back empty
  // (the round would wait forever while the latency tenant's op is
  // blocked). With the clamp exactly one core survives: the 12-wide conv
  // at queue position 0 still cannot fit, but the one-core bias add behind
  // it keeps the batch tenant moving.
  AdmissionPolicy p = make_policy();
  p.configure_tenants(two_slots(/*floor0=*/200, /*floor1=*/0));
  p.record_interference(TenantOpKey{10, OpKey::of(graph_.node(1))},
                        {TenantOpKey{10, OpKey::of(graph_.node(2))}});

  const ReadyQueue r0{1}, r1{3, 5};
  const std::vector<TenantReadyView> tenants = {{&graph_, &r0},
                                                {&graph_, &r1}};
  const auto running = std::vector<RunningOpView>{
      running_view(2, /*remaining=*/1e6, /*tenant=*/0, /*threads=*/2)};
  const auto d = launch_one(p, tenants, 16, running);
  ASSERT_TRUE(d.has_value()) << "batch tenant starved by a mis-applied floor";
  EXPECT_EQ(d->tenant, 1u);
  EXPECT_EQ(d->decision.ready_pos, 1u);  // the tiny op, not the conv
  EXPECT_EQ(d->decision.candidate.threads, 1);
}

TEST_F(SloFloorsTest, IdleLatencyTenantReservesNothing) {
  // A latency slot with an EMPTY queue has no claim: the batch pick runs
  // at full width, identical to a floorless population.
  AdmissionPolicy p = make_policy();
  p.configure_tenants(two_slots(/*floor0=*/15, /*floor1=*/0));
  const ReadyQueue empty{}, r1{3};
  const std::vector<TenantReadyView> tenants = {{&graph_, &empty},
                                                {&graph_, &r1}};
  const auto running = std::vector<RunningOpView>{
      running_view(2, /*remaining=*/1e6, /*tenant=*/0, /*threads=*/2)};
  const auto floored = launch_one(p, tenants, 16, running);

  AdmissionPolicy q = make_policy();
  q.configure_tenants(two_slots(0, 0));
  const auto control = launch_one(q, tenants, 16, running);
  ASSERT_TRUE(floored.has_value());
  ASSERT_TRUE(control.has_value());
  EXPECT_EQ(floored->tenant, control->tenant);
  EXPECT_EQ(floored->decision.candidate.threads,
            control->decision.candidate.threads);
}

TEST_F(SloFloorsTest, FloorsValidateAndResetWithThePopulation) {
  AdmissionPolicy p = make_policy();
  TenantSet mismatch;
  mismatch.ids = {1, 2};
  mismatch.floors = {4};  // one floor for two slots
  EXPECT_THROW(p.configure_tenants(mismatch), std::invalid_argument);

  p.configure_tenants(two_slots(8, 0));
  EXPECT_EQ(p.tenant_floor(0), 8);
  // Reconfiguring WITHOUT floors drops them — floors are per-population
  // state, not learned state.
  TenantSet plain;
  plain.ids = {10, 11};
  p.configure_tenants(plain);
  EXPECT_EQ(p.tenant_floor(0), 0);
  EXPECT_EQ(p.tenant_floor(1), 0);
}

TEST(SloServiceStarvation, SaturatingInferenceTenantNeverZeroesTraining) {
  // Service-level end to end: an inference tenant with a mis-applied floor
  // (10x the machine) and a request backlog that keeps it steppable every
  // cycle, co-resident with a training job. The training job must still
  // complete its full budget with real machine time booked.
  Runtime rt(MachineSpec::knl());
  serve::ServiceOptions opt;
  opt.substrate = serve::Substrate::kSimulated;
  opt.clock = serve::ClockMode::kVirtual;
  serve::SchedulerService svc(rt, opt);

  testing::FuzzGraphParams params;
  params.min_nodes = 5;
  params.max_nodes = 8;

  serve::JobSpec train;
  train.name = "train";
  train.graph = testing::fuzz_graph(61, params);
  train.steps = 12;
  const serve::JobId t = svc.submit(train);

  serve::JobSpec inf;
  inf.name = "greedy-inf";
  inf.kind = serve::JobKind::kInference;
  inf.graph = testing::fuzz_graph(62, params);
  inf.arrivals.assign(40, 0.0);  // a backlog: steppable every cycle
  inf.deadline_ms = 1e9;
  inf.width_floor =
      static_cast<int>(svc.capacity_cores()) * 10;  // mis-applied
  const serve::JobId i = svc.submit(inf);

  svc.drain();
  const serve::ServiceSnapshot snap = svc.snapshot();
  for (const serve::JobRecord& rec : snap.jobs) {
    if (rec.id == t) {
      EXPECT_EQ(rec.state, serve::JobState::kCompleted);
      EXPECT_EQ(rec.steps_done, 12);
      EXPECT_GT(rec.service_ms, 0.0);
    }
    if (rec.id == i) {
      EXPECT_EQ(rec.state, serve::JobState::kCompleted);
      EXPECT_EQ(rec.steps_done, 40);
    }
  }
}

}  // namespace
}  // namespace opsched
