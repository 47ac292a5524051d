#include "threading/launch_pad.hpp"

#include <algorithm>
#include <utility>

namespace opsched {

LaunchPad::LaunchPad(std::size_t width) {
  const std::size_t n = std::max<std::size_t>(1, width);
  lanes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    Lane& lane = *lanes_.back();
    lane.thread = std::thread([this, &lane] { worker_loop(lane); });
  }
}

LaunchPad::~LaunchPad() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->stopping = true;
    }
    lane->cv.notify_one();
  }
  for (auto& lane : lanes_) lane->thread.join();
}

void LaunchPad::launch_on(std::size_t lane_index, std::function<void()> job) {
  Lane& lane = *lanes_[lane_index % lanes_.size()];
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.queue.push_back(std::move(job));
  }
  lane.cv.notify_one();
}

void LaunchPad::worker_loop(Lane& lane) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(lane.mutex);
      lane.cv.wait(lock,
                   [&lane] { return lane.stopping || !lane.queue.empty(); });
      if (lane.queue.empty()) return;  // stopping with a drained queue
      job = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    job();
  }
}

}  // namespace opsched
