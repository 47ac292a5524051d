// Pump: the one driving contract shared by SchedulerService (one machine)
// and ClusterService (a fleet of them). Both run the same shape of loop —
// a cycle over their books, repeated either on a background thread
// (start()/stop()) or inline on the caller of drain()/run_once() — and
// exactly one thread drives it at a time.
//
// The pump owns the owner's state lock, the condition variable every
// waiter sleeps on, the background thread, the lifecycle flags and the
// captured loop failure. It knows nothing of jobs: it asks its Owner three
// things, always with the lock held —
//   - pump_cycle: run one cycle (may release and retake the lock around
//     long work, but must return holding it) and report progress;
//   - pump_work_pending: is there boundary work a parked loop must wake
//     for (a submit, a cancel);
//   - pump_all_terminal: is every job so far terminal (drain's goal).
//
// Contract:
//   - a background cycle that throws parks the loop; drain() and wait()
//     rethrow the failure instead of blocking on jobs that cannot finish;
//   - stop() parks the loop after the in-flight cycle and wakes every
//     blocked drainer and waiter; a stopped pump never restarts;
//   - an inline drain that makes no progress while work is still open
//     throws instead of spinning;
//   - inline drives (drain/run_once) and the background thread exclude
//     each other with std::logic_error.
// Every exception message starts with the owner's name ("<name>::drain:").
//
// Lifetime: the owner must stop() the pump in its own destructor, before
// the members a cycle touches are destroyed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace opsched::serve {

class Pump {
 public:
  /// What a pump drives. The hooks are private: only the Pump calls them.
  class Owner {
   protected:
    ~Owner() = default;

   private:
    friend class Pump;
    /// One loop iteration with `lk` held; true when it made progress.
    virtual bool pump_cycle(std::unique_lock<std::mutex>& lk) = 0;
    virtual bool pump_work_pending() const = 0;
    virtual bool pump_all_terminal() const = 0;
  };

  /// `name` prefixes every exception message; `step` names the owner's
  /// public single-cycle call (run_once's role) in those messages.
  Pump(Owner& owner, std::string name, std::string step);

  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  /// The owner's state lock: every owner method that reads or writes its
  /// books holds it, and every hook runs under it.
  std::unique_lock<std::mutex> lock() const {
    return std::unique_lock<std::mutex>(mu_);
  }
  /// Wakes the parked loop and every blocked drainer/waiter to re-check
  /// their predicates. Call after a state change they may care about.
  void notify() { cv_.notify_all(); }

  /// Spawns the background thread. Throws std::logic_error if already
  /// started, stopped, or driven inline right now.
  void start();
  /// Parks the background loop after its in-flight cycle and joins it.
  /// Idempotent; a no-op (beyond marking the pump stopped) when never
  /// started.
  void stop();
  /// Blocks until pump_all_terminal(): waits on the background thread, or
  /// runs the cycles inline on this thread when it is not started.
  void drain();
  /// Runs one cycle inline; returns its progress. Throws std::logic_error
  /// while the background thread owns the loop.
  bool run_once();
  /// Blocks (lock held via `lk`) until `done()` — the waiter's own
  /// terminal predicate — holds. Unless it already holds, requires the
  /// background thread; rethrows a loop failure; throws std::logic_error
  /// if stopped first.
  void wait(std::unique_lock<std::mutex>& lk,
            const std::function<bool()>& done);
  /// Sleeps (lock held via `lk`) up to `d`, waking early on stop or on
  /// boundary work. For a cycle idling until a wall-clock deadline.
  void nap(std::unique_lock<std::mutex>& lk,
           std::chrono::duration<double, std::milli> d);

  bool started() const {
    const auto lk = lock();
    return started_;
  }
  /// Stopped or stopping (lock held): the owner rejects new work.
  bool stopping() const noexcept { return stopped_ || stop_requested_; }

 private:
  void loop();
  [[noreturn]] void fail(const char* op, const char* why) const;

  Owner& owner_;
  const std::string name_;
  const std::string step_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool stopped_ = false;
  bool stop_requested_ = false;
  bool inline_ = false;
  /// Set when the background loop died on an exception.
  std::exception_ptr failure_ = nullptr;
  std::thread thread_;
};

}  // namespace opsched::serve
