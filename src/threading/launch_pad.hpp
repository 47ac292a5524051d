// LaunchPad: a small pool of reusable launcher threads for dispatching
// operations asynchronously. The host executor's scheduling loop runs on
// one dispatcher thread; every admitted op is handed to a launcher, which
// blocks inside the op's ThreadTeam::parallel_for until the kernel
// finishes, then runs the caller's completion callback.
//
// This mirrors the inter-op thread pool of a TensorFlow-style executor: the
// launchers themselves do negligible work (the op's compute happens on its
// team's pinned workers); they exist so the dispatcher never blocks on a
// kernel and can keep admitting co-runners. Launchers are spawned once and
// reused — per-launch std::thread spawn cost would pollute exactly the
// small-op timings Strategy 4 cares about.
//
// Each launcher owns a private mailbox (mutex + queue + condvar). launch_on
// hands a job to a specific lane, so a caller that maps work to lanes by
// core span (the host executor: lane = span's lowest core) always wakes the
// SAME launcher thread for the same cores — the handoff touches one
// uncontended mutex, and the launcher's working set (its stack, the team it
// keeps waking) stays warm on that core's cache instead of migrating to
// whichever launcher won a shared queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace opsched {

/// Thread-safety: launch_on() may be called concurrently from any threads;
/// jobs run concurrently on launcher threads. Jobs posted to one lane run
/// in posting order. The destructor drains queued jobs, waits for running
/// ones, then joins.
class LaunchPad {
 public:
  /// Spawns `width` launcher threads (at least 1), one per lane.
  explicit LaunchPad(std::size_t width);
  LaunchPad(const LaunchPad&) = delete;
  LaunchPad& operator=(const LaunchPad&) = delete;
  ~LaunchPad();

  /// Enqueues `job` on lane `lane % width()`. Never blocks; jobs on a busy
  /// lane wait for it (that is the point — the caller picked the lane
  /// because the previous job there must finish first anyway).
  void launch_on(std::size_t lane, std::function<void()> job);

  std::size_t width() const noexcept { return lanes_.size(); }

 private:
  /// One launcher thread's private mailbox.
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stopping = false;
    std::thread thread;
  };

  void worker_loop(Lane& lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace opsched
