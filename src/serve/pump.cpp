#include "serve/pump.hpp"

#include <stdexcept>
#include <utility>

namespace opsched::serve {

namespace {
/// Holds the inline-driver flag for one scope, exceptions included.
struct InlineDrive {
  explicit InlineDrive(bool& flag) : flag(flag) { flag = true; }
  ~InlineDrive() { flag = false; }
  bool& flag;
};
}  // namespace

Pump::Pump(Owner& owner, std::string name, std::string step)
    : owner_(owner), name_(std::move(name)), step_(std::move(step)) {}

void Pump::fail(const char* op, const char* why) const {
  throw std::logic_error(name_ + "::" + op + ": " + why);
}

void Pump::start() {
  std::unique_lock<std::mutex> lk(mu_);
  if (stopped_) fail("start", "stopped");
  if (started_) fail("start", "already started");
  if (inline_) fail("start", "driven inline right now");
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void Pump::stop() {
  std::unique_lock<std::mutex> lk(mu_);
  if (started_) {
    stop_requested_ = true;
    cv_.notify_all();
    lk.unlock();
    thread_.join();
    lk.lock();
    started_ = false;
  }
  stopped_ = true;
}

void Pump::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    bool progress = false;
    try {
      progress = owner_.pump_cycle(lk);
    } catch (...) {
      // A cycle failure (e.g. the checksum corruption detector) parks the
      // loop; drain()/wait() rethrow it to a client thread instead of
      // hanging forever on jobs that will never finish.
      failure_ = std::current_exception();
      stop_requested_ = true;
    }
    cv_.notify_all();  // waiters re-check their predicates after every cycle
    if (!progress)
      cv_.wait(lk,
               [&] { return stop_requested_ || owner_.pump_work_pending(); });
  }
}

void Pump::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  if (started_) {
    // stop_requested_ in the predicate: a concurrent stop() parks the loop
    // with jobs outstanding, and this waiter must wake and report instead
    // of sleeping on a notification that will never come.
    cv_.wait(lk, [&] {
      return owner_.pump_all_terminal() || failure_ != nullptr ||
             stop_requested_;
    });
    if (failure_ != nullptr) std::rethrow_exception(failure_);
    if (!owner_.pump_all_terminal())
      fail("drain", "stopped with jobs outstanding");
    return;
  }
  // Inline mode: this thread IS the loop until the books close.
  if (inline_) fail("drain", "concurrent inline driver");
  const InlineDrive drive(inline_);
  while (!owner_.pump_all_terminal()) {
    if (!owner_.pump_cycle(lk) && !owner_.pump_all_terminal())
      fail("drain", "no progress with non-terminal jobs");
  }
}

bool Pump::run_once() {
  std::unique_lock<std::mutex> lk(mu_);
  if (started_) fail(step_.c_str(), "background thread owns the loop");
  if (inline_) fail(step_.c_str(), "concurrent inline driver");
  const InlineDrive drive(inline_);
  return owner_.pump_cycle(lk);
}

void Pump::wait(std::unique_lock<std::mutex>& lk,
                const std::function<bool()>& done) {
  if (done()) return;
  if (!started_)
    fail("wait", "not started (drain() drives the loop inline instead)");
  cv_.wait(lk, [&] {
    return done() || failure_ != nullptr || stop_requested_;
  });
  if (done()) return;
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  fail("wait", "stopped before the job finished");
}

void Pump::nap(std::unique_lock<std::mutex>& lk,
               std::chrono::duration<double, std::milli> d) {
  cv_.wait_for(lk, d,
               [&] { return stop_requested_ || owner_.pump_work_pending(); });
}

}  // namespace opsched::serve
