// serve::Pump, the driving contract SchedulerService and ClusterService
// share, driven by a fake owner: `open` jobs, each productive cycle closes
// one. The claims under test:
//   - a cycle that throws on the background thread parks the loop, and
//     blocked drain()/wait() callers get the failure rethrown;
//   - stop() wakes a blocked drainer and a blocked waiter;
//   - lifecycle misuse (double start, restart after stop, an inline drive
//     while the thread runs, a start while an inline drive runs) throws
//     std::logic_error naming the owner;
//   - an inline drain that makes no progress with work open throws;
//   - a nap ends early on boundary work and on stop().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/pump.hpp"

namespace opsched::serve {
namespace {

using namespace std::chrono_literals;

/// Every field below `pump` is guarded by the pump's lock.
class FakeOwner : public Pump::Owner {
 public:
  FakeOwner() : pump(*this, "Fake", "run_once") {}
  ~FakeOwner() { pump.stop(); }

  Pump pump;
  int open = 0;            // non-terminal jobs
  bool stuck = false;      // cycles make no progress
  bool fail = false;       // cycles throw
  bool pending = false;    // boundary work for a parked loop
  int cycles = 0;
  /// Runs at the top of every cycle with the lock held.
  std::function<void(std::unique_lock<std::mutex>&)> hook;

 private:
  bool pump_cycle(std::unique_lock<std::mutex>& lk) override {
    ++cycles;
    pending = false;
    if (hook) hook(lk);
    if (fail) throw std::runtime_error("fake cycle failed");
    if (open == 0 || stuck) return false;
    --open;
    return true;
  }
  bool pump_work_pending() const override { return pending; }
  bool pump_all_terminal() const override { return open == 0; }
};

/// Runs `fn` and returns the std::logic_error message it throws ("" if it
/// throws nothing).
std::string logic_error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(Pump, InlineDrainRunsCyclesUntilEveryJobIsTerminal) {
  FakeOwner f;
  {
    auto lk = f.pump.lock();
    f.open = 3;
  }
  EXPECT_TRUE(f.pump.run_once());
  f.pump.drain();
  auto lk = f.pump.lock();
  EXPECT_EQ(f.open, 0);
  EXPECT_EQ(f.cycles, 3);
  lk.unlock();
  EXPECT_FALSE(f.pump.run_once());  // nothing left: an idle cycle
  f.pump.drain();                   // already terminal: returns at once
}

TEST(Pump, InlineDrainWithoutProgressThrows) {
  FakeOwner f;
  {
    auto lk = f.pump.lock();
    f.open = 2;
    f.stuck = true;
  }
  const std::string why = logic_error_of([&] { f.pump.drain(); });
  EXPECT_TRUE(starts_with(why, "Fake::drain:")) << why;
  // The failed drive released the driver slot: the next one may run.
  {
    auto lk = f.pump.lock();
    f.stuck = false;
  }
  f.pump.drain();
}

TEST(Pump, BackgroundFailureIsRethrownByDrainAndWait) {
  FakeOwner f;
  std::atomic<bool> released{false};
  {
    auto lk = f.pump.lock();
    f.open = 1;
    f.fail = true;
    // Hold the failing cycle in flight until both clients are blocked.
    f.hook = [&](std::unique_lock<std::mutex>& held) {
      held.unlock();
      while (!released.load()) std::this_thread::yield();
      held.lock();
    };
  }
  f.pump.start();

  std::atomic<int> entered{0};
  std::atomic<int> rethrown{0};
  const auto expect_failure = [&](const std::function<void()>& block) {
    try {
      ++entered;
      block();
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "fake cycle failed") ++rethrown;
    }
  };
  std::thread drainer([&] { expect_failure([&] { f.pump.drain(); }); });
  std::thread waiter([&] {
    expect_failure([&] {
      auto lk = f.pump.lock();
      f.pump.wait(lk, [&] { return f.open == 0; });
    });
  });
  while (entered.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);
  released = true;
  drainer.join();
  waiter.join();
  EXPECT_EQ(rethrown.load(), 2);

  // The parked loop keeps reporting its failure and refuses new work.
  EXPECT_THROW(f.pump.drain(), std::runtime_error);
  auto lk = f.pump.lock();
  EXPECT_TRUE(f.pump.stopping());
}

TEST(Pump, StopWakesBlockedDrainerAndWaiter) {
  FakeOwner f;
  {
    auto lk = f.pump.lock();
    f.open = 1;
    f.stuck = true;  // a job that never finishes
  }
  f.pump.start();

  std::atomic<int> entered{0};
  std::atomic<int> woken{0};
  const auto expect_woken = [&](const std::function<void()>& block) {
    try {
      ++entered;
      block();
    } catch (const std::logic_error&) {
      ++woken;
    }
  };
  std::thread drainer([&] { expect_woken([&] { f.pump.drain(); }); });
  std::thread waiter([&] {
    expect_woken([&] {
      auto lk = f.pump.lock();
      f.pump.wait(lk, [&] { return f.open == 0; });
    });
  });
  while (entered.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);
  f.pump.stop();
  drainer.join();
  waiter.join();
  EXPECT_EQ(woken.load(), 2);
  EXPECT_FALSE(f.pump.started());
}

TEST(Pump, LifecycleMisuseThrowsLogicError) {
  FakeOwner f;
  // wait() needs the background thread: inline, nothing would finish.
  {
    auto lk = f.pump.lock();
    f.open = 1;
    EXPECT_TRUE(starts_with(logic_error_of([&] {
                              f.pump.wait(lk, [&] { return f.open == 0; });
                            }),
                            "Fake::wait:"));
    f.open = 0;
  }

  f.pump.start();
  EXPECT_TRUE(f.pump.started());
  EXPECT_TRUE(
      starts_with(logic_error_of([&] { f.pump.start(); }), "Fake::start:"));
  EXPECT_TRUE(starts_with(logic_error_of([&] { (void)f.pump.run_once(); }),
                          "Fake::run_once:"));
  f.pump.stop();
  f.pump.stop();  // idempotent
  EXPECT_FALSE(f.pump.started());
  EXPECT_TRUE(
      starts_with(logic_error_of([&] { f.pump.start(); }), "Fake::start:"));
  auto lk = f.pump.lock();
  EXPECT_TRUE(f.pump.stopping());
}

TEST(Pump, StartIsRejectedWhileDrivenInline) {
  FakeOwner f;
  std::string why;
  {
    auto lk = f.pump.lock();
    f.open = 1;
    // Cycles release the lock around long work; a start() landing then
    // must not spawn a second driver.
    f.hook = [&](std::unique_lock<std::mutex>& held) {
      held.unlock();
      why = logic_error_of([&] { f.pump.start(); });
      held.lock();
    };
  }
  EXPECT_TRUE(f.pump.run_once());
  EXPECT_TRUE(starts_with(why, "Fake::start:")) << why;
  EXPECT_FALSE(f.pump.started());
}

TEST(Pump, NapEndsOnBoundaryWorkAndOnStop) {
  FakeOwner f;
  std::atomic<bool> napping{false};
  {
    auto lk = f.pump.lock();
    f.open = 1;
    f.hook = [&](std::unique_lock<std::mutex>& held) {
      napping = true;
      f.pump.nap(held, 60s);
    };
  }
  // Inline: a submit (boundary work + notify) ends the nap.
  const auto t0 = std::chrono::steady_clock::now();
  std::thread driver([&] { (void)f.pump.run_once(); });
  while (!napping.load()) std::this_thread::yield();
  {
    auto lk = f.pump.lock();
    f.pending = true;
  }
  f.pump.notify();
  driver.join();

  // Background: stop() ends the nap of the in-flight cycle.
  {
    auto lk = f.pump.lock();
    f.open = 1;
    napping = false;
  }
  f.pump.start();
  while (!napping.load()) std::this_thread::yield();
  f.pump.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 30s);
}

}  // namespace
}  // namespace opsched::serve
