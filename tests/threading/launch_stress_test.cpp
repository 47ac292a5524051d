// Oversubscription stress for LaunchPad + TeamPool: far more concurrent
// launches than the host has cores. Guards two past failure modes:
//  - the PR-1 deadlock where concurrent co-run slots on a narrow host
//    shared one (width, affinity) ThreadTeam — slot tags must keep live
//    teams distinct;
//  - launcher starvation/deadlock when every launcher blocks inside a
//    kernel while more jobs queue behind them.
// The assertions are completion (no deadlock — bounded by the CTest
// timeout), exact work accounting, and team distinctness; nothing timing-
// sensitive, so the test is safe on 1-core CI and under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "threading/core_set.hpp"
#include "threading/launch_pad.hpp"
#include "threading/team_pool.hpp"
#include "threading/thread_team.hpp"

namespace opsched {
namespace {

/// Blocks until `count` reaches `target` (condvar, no spinning).
class Barrier {
 public:
  void arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    cv_.notify_all();
  }
  void wait_for(int target) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ >= target; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
};

TEST(LaunchStressTest, OversubscribedInlineWidth1LaunchesAllComplete) {
  // Many more launchers than cores, each running the shared workerless
  // inline team (documented safe for concurrent use) — the host executor's
  // width-1 fast path under maximum oversubscription.
  const std::size_t cores = host_logical_cores();
  const std::size_t launchers = 4 * cores + 12;
  constexpr int kJobs = 128;
  constexpr std::size_t kIters = 512;

  LaunchPad pad(launchers);
  ThreadTeam inline1(1, CoreSet(), /*inline_single=*/true);
  std::atomic<std::uint64_t> work{0};
  Barrier done;
  for (int j = 0; j < kJobs; ++j) {
    pad.launch_on(static_cast<std::size_t>(j) % launchers, [&] {
      inline1.parallel_for(kIters, [&](std::size_t b, std::size_t e,
                                       std::size_t) {
        work.fetch_add(e - b, std::memory_order_relaxed);
      });
      done.arrive();
    });
  }
  done.wait_for(kJobs);
  EXPECT_EQ(work.load(), static_cast<std::uint64_t>(kJobs) * kIters);
  EXPECT_EQ(pad.width(), launchers);
}

TEST(LaunchStressTest, LaneTargetedLaunchesRunInOrderOnOneThread) {
  // launch_on(lane) is the executor's sharded dispatch path: every job
  // aimed at one lane must run on that lane's single worker thread, in
  // submission order, and lane indices wrap modulo the pad width.
  constexpr std::size_t kLanes = 3;
  constexpr int kJobsPerLane = 64;
  LaunchPad pad(kLanes);

  std::mutex mu;
  std::vector<std::vector<int>> order(kLanes);
  std::vector<std::vector<std::thread::id>> runners(kLanes);
  Barrier done;
  for (int j = 0; j < kJobsPerLane; ++j) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      // Exercise the modulo wrap on every other job.
      const std::size_t target = (j % 2 == 0) ? lane : lane + kLanes;
      pad.launch_on(target, [&, lane, j] {
        {
          std::lock_guard<std::mutex> lock(mu);
          order[lane].push_back(j);
          runners[lane].push_back(std::this_thread::get_id());
        }
        done.arrive();
      });
    }
  }
  done.wait_for(kJobsPerLane * static_cast<int>(kLanes));

  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    ASSERT_EQ(order[lane].size(), static_cast<std::size_t>(kJobsPerLane));
    for (int j = 0; j < kJobsPerLane; ++j)
      EXPECT_EQ(order[lane][j], j) << "lane queue must be FIFO";
    for (const std::thread::id& id : runners[lane])
      EXPECT_EQ(id, runners[lane].front())
          << "one worker thread per lane";
  }
  // Distinct lanes really are distinct workers.
  EXPECT_NE(runners[0].front(), runners[1].front());
}

TEST(LaunchStressTest, SlotTagsKeepLiveTeamsDistinct) {
  // Identical (width, affinity) requested under distinct slot tags must
  // yield distinct teams; the same slot must reuse its team.
  TeamPool pool(2);
  const CoreSet span = CoreSet::range(2, 0, 1);
  std::vector<ThreadTeam*> teams;
  for (std::size_t slot = 0; slot < 8; ++slot)
    teams.push_back(&pool.team_pinned(1, span, slot));
  for (std::size_t i = 0; i < teams.size(); ++i) {
    EXPECT_EQ(teams[i], &pool.team_pinned(1, span, i)) << "slot " << i;
    for (std::size_t j = i + 1; j < teams.size(); ++j)
      EXPECT_NE(teams[i], teams[j]) << "slots " << i << "," << j;
  }
  EXPECT_GE(pool.teams_created(), 8u);
}

TEST(LaunchStressTest, ConcurrentSlotTaggedCorunSlotsNeverDeadlock) {
  // The PR-1 regression shape, oversubscribed: 8 concurrent "co-run slots"
  // on a 2-core pool, each launch running a parallel_for on its
  // slot-tagged pinned team while every other slot does the same. With a
  // shared team this deadlocks (a team must never run two parallel_for
  // calls at once); with slot tags it must finish and count exactly.
  constexpr std::size_t kSlots = 8;
  constexpr int kRounds = 20;
  constexpr std::size_t kIters = 256;

  TeamPool pool(2);
  const CoreSet span = CoreSet::range(2, 0, 2);
  LaunchPad pad(kSlots);
  std::atomic<std::uint64_t> work{0};
  Barrier done;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      pad.launch_on(s % pad.width(), [&, s] {
        ThreadTeam& team = pool.team_pinned(2, span, s);
        team.parallel_for(kIters, [&](std::size_t b, std::size_t e,
                                      std::size_t) {
          work.fetch_add(e - b, std::memory_order_relaxed);
        });
        done.arrive();
      });
    }
    // Drain the round before relaunching: a slot's team may only ever run
    // ONE parallel_for at a time — concurrency lives across slots, reuse
    // across rounds.
    done.wait_for((r + 1) * static_cast<int>(kSlots));
  }
  EXPECT_EQ(work.load(),
            static_cast<std::uint64_t>(kRounds) * kSlots * kIters);
  // One live team per slot, never more (teams are cached and reused across
  // rounds): the pool must hold exactly kSlots (2, span)-teams.
  EXPECT_EQ(pool.teams_created(), kSlots);
}

}  // namespace
}  // namespace opsched
