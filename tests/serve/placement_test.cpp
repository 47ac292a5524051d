// Unit tests for the cluster layer's shard-choice policy
// (serve/placement.hpp): greedy bin-pack ordering and tie-breaks, the
// charged width of profiled vs unprofiled demand, the balance objective,
// and the annealing improvement pass's two contracts — determinism for a
// fixed seed, and never returning an assignment worse than its input.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "serve/placement.hpp"
#include "util/rng.hpp"

namespace opsched::serve {
namespace {

std::vector<ShardLoad> empty_shards(std::size_t n, std::size_t cores) {
  std::vector<ShardLoad> loads(n);
  for (ShardLoad& l : loads) l.cores = cores;
  return loads;
}

TEST(PlacementChargedWidth, ProfiledDemandChargesClampedMeanWidth) {
  WidthDemand d;
  d.profiled = true;
  d.mean_width = 6.5;
  EXPECT_DOUBLE_EQ(placement_charged_width(d, 16), 6.5);
  // Clamped into [1, cores]: a mean wider than the shard charges the shard.
  d.mean_width = 40.0;
  EXPECT_DOUBLE_EQ(placement_charged_width(d, 16), 16.0);
  d.mean_width = 0.25;
  EXPECT_DOUBLE_EQ(placement_charged_width(d, 16), 1.0);
}

TEST(PlacementChargedWidth, UnprofiledDemandChargesTheFullShard) {
  // The bugfix-3 contract carried into placement: a zero-curve graph used
  // to report mean_width=1.0 and get bin-packed blind; the explicit
  // `profiled` flag makes placement charge it as a whole machine instead.
  WidthDemand d;
  d.profiled = false;
  d.mean_width = 1.0;  // exactly what the old silent default reported
  EXPECT_DOUBLE_EQ(placement_charged_width(d, 16), 16.0);
  EXPECT_DOUBLE_EQ(placement_charged_width(d, 64), 64.0);
}

TEST(PlacementObjective, SquaredRelativeLoadPrefersBalance) {
  std::vector<ShardLoad> balanced = empty_shards(2, 10);
  balanced[0].width = 5.0;
  balanced[1].width = 5.0;
  std::vector<ShardLoad> skewed = empty_shards(2, 10);
  skewed[0].width = 10.0;
  skewed[1].width = 0.0;
  EXPECT_DOUBLE_EQ(placement_objective(balanced), 0.5);
  EXPECT_DOUBLE_EQ(placement_objective(skewed), 1.0);
  EXPECT_LT(placement_objective(balanced), placement_objective(skewed));
}

TEST(GreedyPlace, PacksToTheLeastLoadedShard) {
  // Widths 8, 6, 4, 2 on two 16-core shards: 8 -> shard 0, 6 -> shard 1,
  // 4 -> shard 1 (6+4 < 8+4... no: 10 vs 12 -> shard 1), 2 -> shard 0.
  const std::vector<double> widths = {8.0, 6.0, 4.0, 2.0};
  const auto assignment = greedy_place(widths, empty_shards(2, 16));
  const std::vector<std::size_t> expected = {0, 1, 1, 0};
  EXPECT_EQ(assignment, expected);
}

TEST(GreedyPlace, TieBreaksToTheLowestShardIndex) {
  // Empty identical shards: every placement of the first job ties; the
  // deterministic contract is lowest index wins, each time.
  const std::vector<double> widths = {4.0, 4.0, 4.0};
  const auto assignment = greedy_place(widths, empty_shards(3, 16));
  const std::vector<std::size_t> expected = {0, 1, 2};
  EXPECT_EQ(assignment, expected);
}

TEST(GreedyPlace, AccountsForStandingLoad) {
  // Shard 0 already carries width 12: new work goes to shard 1 first.
  std::vector<ShardLoad> base = empty_shards(2, 16);
  base[0].width = 12.0;
  const std::vector<double> widths = {4.0, 4.0};
  const auto assignment = greedy_place(widths, base);
  const std::vector<std::size_t> expected = {1, 1};
  EXPECT_EQ(assignment, expected);
}

TEST(GreedyPlace, ThrowsWithoutShards) {
  EXPECT_THROW(greedy_place({1.0}, {}), std::invalid_argument);
}

TEST(AnnealPlace, NeverWorsensTheObjective) {
  // Fuzzed batches: whatever the annealer does, the returned assignment's
  // objective must be <= the input assignment's. Run many seeds so a
  // last-accepted (instead of best-seen) regression cannot hide.
  Xoshiro256 rng(0xA11EA1ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t shards = 2 + rng() % 3;
    const std::size_t jobs = 1 + rng() % 12;
    std::vector<double> widths;
    for (std::size_t j = 0; j < jobs; ++j)
      widths.push_back(1.0 + static_cast<double>(rng() % 16));
    const auto base = empty_shards(shards, 16);
    auto seed_assignment = greedy_place(widths, base);
    const double before = placement_objective(
        loads_with_assignment(base, widths, seed_assignment));

    const auto improved =
        anneal_place(widths, base, seed_assignment,
                     0x5eedULL + static_cast<std::uint64_t>(trial));
    const double after =
        placement_objective(loads_with_assignment(base, widths, improved));
    EXPECT_LE(after, before) << "trial " << trial;
  }
}

TEST(AnnealPlace, FindsTheBalanceGreedyMisses) {
  // Greedy packs {6, 5, 4, 3, 2} as 0:6+3=9... actually 0:{6,2,3},1:{5,4}
  // or similar; the point is an imbalanced seed. Hand it a deliberately
  // terrible seed assignment (everything on shard 0) and the annealer must
  // spread it.
  const std::vector<double> widths = {6.0, 5.0, 4.0, 3.0, 2.0};
  const auto base = empty_shards(2, 16);
  std::vector<std::size_t> awful(widths.size(), 0);
  const double before =
      placement_objective(loads_with_assignment(base, widths, awful));
  const auto improved = anneal_place(widths, base, awful, 0x5e7a11ULL);
  const double after =
      placement_objective(loads_with_assignment(base, widths, improved));
  EXPECT_LT(after, before);
  // The optimum splits 20 total width 10/10; the annealer should get
  // exactly there on a batch this small (10/16)^2 * 2.
  EXPECT_DOUBLE_EQ(after, 2.0 * (10.0 / 16.0) * (10.0 / 16.0));
}

TEST(AnnealPlace, DeterministicForAFixedSeed) {
  const std::vector<double> widths = {7.0, 3.0, 5.0, 1.0, 9.0, 2.0};
  const auto base = empty_shards(3, 16);
  const auto seed_assignment = greedy_place(widths, base);
  const auto a = anneal_place(widths, base, seed_assignment, 0xFEEDULL);
  const auto b = anneal_place(widths, base, seed_assignment, 0xFEEDULL);
  EXPECT_EQ(a, b);
  // A different seed is allowed to find a different (equally good or
  // better) assignment — the cluster mixes a batch counter in for exactly
  // this reason. Just assert it still never worsens.
  const auto c = anneal_place(widths, base, seed_assignment, 0xBEEFULL);
  EXPECT_LE(placement_objective(loads_with_assignment(base, widths, c)),
            placement_objective(
                loads_with_assignment(base, widths, seed_assignment)));
}

TEST(AnnealPlace, SingleShardAndEmptyBatchAreNoOps) {
  const auto one = anneal_place({3.0, 4.0}, empty_shards(1, 8), {0, 0}, 1);
  EXPECT_EQ(one, (std::vector<std::size_t>{0, 0}));
  const auto none = anneal_place({}, empty_shards(3, 8), {}, 1);
  EXPECT_TRUE(none.empty());
}

TEST(AnnealPlace, RejectsMismatchedAssignment) {
  EXPECT_THROW(anneal_place({1.0, 2.0}, empty_shards(2, 8), {0}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace opsched::serve
