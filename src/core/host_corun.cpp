#include "core/host_corun.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "ops/work_profile.hpp"
#include "util/clock.hpp"

namespace opsched {

namespace {

/// Machine-agnostic memory-intensity proxy for the Strategy 4 eligibility
/// test (the simulator asks its CostModel; the host has no MachineSpec).
/// Bytes are weighted against flops at a typical host compute/bandwidth
/// ratio; only AdmissionPolicy::kComputeBoundCutoff consumes the value, so
/// the constant's precision is not load-bearing.
double host_mem_intensity(const Node& node) {
  const WorkProfile w = work_profile(node);
  const double tc = w.flops;
  const double tm = w.bytes * 16.0;
  if (tc + tm <= 0.0) return 0.0;
  return tm / (tc + tm);
}

/// EWMA weight of the newest (wall ms / predicted ms) calibration sample.
constexpr double kCalibrationAlpha = 0.3;

/// Sharded completion posting: one cache-line-aligned slot per launch lane,
/// so launcher threads finishing concurrently each write their own line and
/// never contend a shared mutex/deque. A lane has at most one op in flight
/// (its cores stay busy until the dispatcher consumes the completion), so a
/// slot is written at most once between reads by construction.
///
/// Wakeup is a Dekker handshake on (posted_, sleeping_): posters bump
/// posted_ then check whether the dispatcher announced it was going to
/// sleep; the dispatcher announces, then re-checks posted_ under the mutex
/// before actually sleeping. Both sides use seq_cst so at least one of them
/// observes the other — the mutex is only ever touched on the empty-board
/// edge, never on the per-completion fast path.
class CompletionBoard {
 public:
  explicit CompletionBoard(std::size_t lanes) : slots_(lanes) {}

  /// Launcher side. Wait-free except when the dispatcher is asleep.
  void post(std::size_t lane, double end_ms) {
    Slot& s = slots_[lane];
    s.end_ms = end_ms;
    s.full.store(true, std::memory_order_release);
    posted_.fetch_add(1, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_one();
    }
  }

  /// Dispatcher side: blocks until an unconsumed post exists, then hands
  /// every posted completion to `fn(lane, end_ms)`.
  template <typename Fn>
  void drain(Fn&& fn) {
    if (posted_.load(std::memory_order_seq_cst) <= consumed_) {
      sleeping_.store(true, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return posted_.load(std::memory_order_seq_cst) > consumed_;
        });
      }
      sleeping_.store(false, std::memory_order_relaxed);
    }
    for (std::size_t lane = 0; lane < slots_.size(); ++lane) {
      Slot& s = slots_[lane];
      if (!s.full.load(std::memory_order_acquire)) continue;
      const double end_ms = s.end_ms;
      s.full.store(false, std::memory_order_relaxed);
      ++consumed_;
      fn(lane, end_ms);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<bool> full{false};
    double end_ms = 0.0;
  };
  std::vector<Slot> slots_;
  std::atomic<std::size_t> posted_{0};
  std::size_t consumed_ = 0;  // dispatcher side only
  std::atomic<bool> sleeping_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace

HostCorunExecutor::HostCorunExecutor(const PerfDatabase& db, int default_width,
                                     TeamPool& pool, RuntimeOptions options,
                                     HostCorunOptions host)
    : pool_(pool),
      options_(options),
      host_(host),
      cores_(host.cores == 0 ? pool.max_width()
                             : std::min(host.cores, pool.max_width())),
      policy_(db, options, default_width) {
  if (cores_ == 0)
    throw std::invalid_argument("HostCorunExecutor: zero-width pool");
  // Launch lanes: lane 2c runs the primary whose span starts at core c,
  // lane 2c+1 the overlay riding on core c. The mapping is collision-free
  // while an op is in flight (its span's lowest core stays busy), and it is
  // what makes per-lane completion slots and per-lane team caches work.
  lane_teams_.resize(2 * cores_);
}

void HostCorunExecutor::attach_observability(obs::Registry* reg,
                                             obs::TraceCollector* trace,
                                             std::uint32_t trace_pid,
                                             const std::string& instance) {
  metrics_ = reg;
  trace_ = trace;
  trace_pid_ = trace_pid;
  trace_named_tenants_ = 0;
  m_inline_launches_ = nullptr;
  m_team_launches_ = nullptr;
  m_overlay_launches_ = nullptr;
  m_launch_ms_ = nullptr;
  m_lanes_inflight_ = nullptr;
  if (reg != nullptr) {
    const auto qual = [&](const char* name) {
      return instance.empty() ? std::string(name)
                              : obs::label(name, "shard", instance);
    };
    m_inline_launches_ = reg->counter(qual("host_inline_launches_total"));
    m_team_launches_ = reg->counter(qual("host_team_launches_total"));
    m_overlay_launches_ = reg->counter(qual("host_overlay_launches_total"));
    m_launch_ms_ = reg->histogram(qual("host_launch_ms"));
    m_lanes_inflight_ = reg->histogram(
        qual("host_lanes_inflight"),
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  }
  policy_.attach_metrics(reg, instance);
}

/// The host core map as a dispatch substrate: wall clock since step start,
/// lanes served by LaunchPad launchers posting to a CompletionBoard,
/// interference judged against the calibrated prediction.
class HostCorunExecutor::Substrate final : public DispatchSubstrate {
 public:
  Substrate(HostCorunExecutor& exec,
            const std::vector<HostGraphProgram*>& programs)
      : exec_(exec),
        programs_(programs),
        t0_(wall_time_ms()),
        lanes_(2 * exec.cores_),
        board_(lanes_.size()),
        primary_busy_(exec.cores_),
        overlaid_(exec.cores_),
        pad_(lanes_.size()) {}

  std::size_t cores() const override { return exec_.cores_; }
  double now_ms() const override { return wall_time_ms() - t0_; }

  CoreSet idle_cores() const override {
    return CoreSet::all(exec_.cores_).minus(primary_busy_).minus(overlaid_);
  }

  // Gated on a multi-core host: overlays bank on spare hardware contexts
  // next to a busy primary; on a single-core host there are none and an
  // overlay is pure oversubscription.
  CoreSet overlay_cores() const override {
    CoreSet eligible(exec_.cores_);
    if (exec_.cores_ < 2) return eligible;
    for (const Lane& ln : lanes_) {
      if (ln.live && !ln.overlay &&
          host_mem_intensity(*ln.node) <
              AdmissionPolicy::kComputeBoundCutoff) {
        eligible = eligible.union_with(ln.cores);
      }
    }
    return eligible.minus(overlaid_);
  }

  // Remaining time is predicted_ms minus elapsed wall-clock converted back
  // to the curves' timescale through the learned calibration (1.0
  // until the first completion: the guard only compares these values
  // against each other, so a uniform scale error is harmless).
  void remaining_ms(std::vector<double>& by_lane) const override {
    const double now = wall_time_ms();
    const double calib = exec_.calib_ > 0.0 ? exec_.calib_ : 1.0;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      const Lane& ln = lanes_[lane];
      if (!ln.live) continue;
      const double elapsed_model = (now - ln.start_wall_ms) / calib;
      by_lane[lane] = std::max(0.0, ln.predicted_ms - elapsed_model);
    }
  }

  std::optional<DispatchCompletion> launch(const DispatchLaunch& l) override {
    const double l0 = exec_.metrics_ != nullptr ? wall_time_ms() : 0.0;
    HostGraphProgram& program = *programs_[l.tenant];
    const NodeId node_id = l.node->id;
    const std::size_t lane = l.lane;
    // A saturating launch — empty machine, op takes every idle core —
    // excludes any co-runner until it completes, so the dispatcher runs it
    // inline: the async detour (launcher handoff + condvar round-trip)
    // would sit on the critical path for nothing. FIFO executors pipeline
    // that latency behind their second slot; without this, serial phases
    // of the adaptive schedule would pay pure overhead against them.
    // Only when no Strategy-4 overlay could ride on it (overlays need the
    // dispatcher free): single-core host, S4 off, or nothing else ready in
    // ANY tenant's queue.
    const bool overlays_possible =
        exec_.cores_ >= 2 &&
        (exec_.options_.strategies & kStrategy4) != 0 && l.others_ready;
    const bool inline_run = !l.overlay && live_ == 0 && !overlays_possible &&
                            l.cores.count() == idle_cores().count();

    // One pinned team per disjoint span. Overlays use slot 1 so an overlay
    // whose (width, span) coincides with its primary's never shares the
    // primary's (busy) team. Width-1 ops on the dispatcher-inline path use
    // the workerless inline team — the dispatcher runs the kernel body
    // itself, skipping the per-op dispatch round-trip that dominates tiny
    // single-threaded ops. Async width-1 launches keep a pinned pool team:
    // an inline team inherits the launcher thread's (absent) affinity,
    // which would put the op on an OS-chosen core instead of its span.
    // The per-lane cache makes the steady state (same op pattern -> same
    // lane -> same span/width) a pointer compare instead of a pool lookup,
    // and keeps re-waking the workers already pinned there.
    ThreadTeam* team;
    const std::size_t width = l.cores.count();
    if (inline_run && width == 1) {
      team = &exec_.inline1_;
    } else {
      LaneTeam& cached = exec_.lane_teams_[lane];
      const std::size_t slot = l.overlay ? 1 : 0;
      if (cached.team != nullptr && cached.width == width &&
          cached.slot == slot && cached.span == l.cores) {
        team = cached.team;
      } else {
        team = &exec_.pool_.team_pinned(width, l.cores, slot);
        cached = LaneTeam{team, width, slot, l.cores};
      }
    }
    if (l.overlay) {
      overlaid_ = overlaid_.union_with(l.cores);
    } else {
      primary_busy_ = primary_busy_.union_with(l.cores);
    }
    Lane& ln = lanes_[lane];
    ln.node = l.node;
    ln.tenant = l.tenant;
    ln.cores = l.cores;
    ln.overlay = l.overlay;
    ln.live = true;
    ln.predicted_ms = l.candidate.time_ms;
    ln.start_wall_ms = wall_time_ms();
    ++live_;
    if (exec_.metrics_ != nullptr) {
      if (l.overlay) {
        exec_.m_overlay_launches_->inc();
      } else if (inline_run) {
        exec_.m_inline_launches_->inc();
      } else {
        exec_.m_team_launches_->inc();
      }
      exec_.m_lanes_inflight_->observe(static_cast<double>(live_));
      // Dispatch handoff cost: admission bookkeeping to kernel handoff
      // (team resolution, lane setup) — kernel time excluded on every path.
      exec_.m_launch_ms_->observe(wall_time_ms() - l0);
    }
    if (inline_run) {
      program.run_node(node_id, *team);
      return finish(lane, wall_time_ms());
    }
    // Same-lane posting: the launcher that owns this span's lane runs the
    // op and writes its own completion slot — no shared queue anywhere.
    CompletionBoard& board = board_;
    pad_.launch_on(lane, [&program, &board, node_id, lane, team] {
      program.run_node(node_id, *team);
      board.post(lane, wall_time_ms());
    });
    return std::nullopt;
  }

  void wait(std::vector<DispatchCompletion>& out) override {
    board_.drain([&](std::size_t lane, double end_wall) {
      out.push_back(finish(lane, end_wall));
    });
  }

 private:
  struct Lane {
    const Node* node = nullptr;
    std::size_t tenant = 0;
    CoreSet cores;
    bool overlay = false;
    bool live = false;
    double predicted_ms = 0.0;  // the curves' timescale
    double start_wall_ms = 0.0;
  };

  /// Releases `lane`'s cores and folds its wall time into the calibration.
  DispatchCompletion finish(std::size_t lane, double end_wall) {
    Lane& ln = lanes_[lane];
    ln.live = false;
    --live_;
    DispatchCompletion c;
    c.lane = lane;
    c.end_ms = end_wall - t0_;
    c.actual_ms = end_wall - ln.start_wall_ms;
    if (ln.predicted_ms > 0.0) {
      // Interference is judged against the calibration as it stood BEFORE
      // this sample: folding the slow sample into the EWMA first would
      // dilute the 2.5x bad-pair threshold toward unreachable.
      double& calib = exec_.calib_;
      if (calib > 0.0) c.expected_ms = ln.predicted_ms * calib;
      // Overlays are excluded from the calibration: they run up to ~2.5x
      // slow BY DESIGN, and folding that in would inflate every later
      // expectation (recorder threshold, throughput-guard views).
      if (!ln.overlay) {
        const double ratio = c.actual_ms / ln.predicted_ms;
        calib = calib == 0.0 ? ratio
                             : (1.0 - kCalibrationAlpha) * calib +
                                   kCalibrationAlpha * ratio;
      }
    }
    if (ln.overlay) {
      overlaid_ = overlaid_.minus(ln.cores);
    } else {
      primary_busy_ = primary_busy_.minus(ln.cores);
    }
    // One wall-clock span per completed op, on its tenant×lane track.
    if (exec_.trace_ != nullptr) {
      obs::TraceSpan span;
      span.name = ln.node->label.empty()
                      ? std::string(op_kind_name(ln.node->kind))
                      : ln.node->label;
      span.cat = ln.overlay ? "op.overlay" : "op";
      span.pid = exec_.trace_pid_;
      span.tid = static_cast<std::uint32_t>(ln.tenant * lanes_.size() + lane);
      span.start_ms = ln.start_wall_ms;
      span.dur_ms = c.actual_ms;
      exec_.trace_->span(std::move(span));
    }
    return c;
  }

  HostCorunExecutor& exec_;
  const std::vector<HostGraphProgram*>& programs_;
  const double t0_;
  std::vector<Lane> lanes_;
  std::size_t live_ = 0;
  CompletionBoard board_;
  CoreSet primary_busy_;
  CoreSet overlaid_;
  // Declared last: its destructor joins the launcher threads before the
  // board they post to goes away.
  LaunchPad pad_;
};

std::vector<StepResult> HostCorunExecutor::run_step_multi(
    const std::vector<HostGraphProgram*>& programs, const TenantSet& set) {
  const std::size_t tenants = programs.size();
  // Trace track metadata: one track per tenant×lane (primary + overlay
  // sub-track per core), named once per population growth.
  if (trace_ != nullptr && trace_named_tenants_ < tenants) {
    const std::size_t lanes = 2 * cores_;
    for (std::size_t t = trace_named_tenants_; t < tenants; ++t) {
      for (std::size_t c = 0; c < cores_; ++c) {
        const auto tid = static_cast<std::uint32_t>(t * lanes + 2 * c);
        const std::string base =
            "tenant " + std::to_string(t) + " core " + std::to_string(c);
        trace_->set_track_name(trace_pid_, tid, base);
        trace_->set_track_name(trace_pid_, tid + 1, base + " ovl");
      }
    }
    trace_named_tenants_ = tenants;
  }

  std::vector<const Graph*> graphs;
  graphs.reserve(tenants);
  for (HostGraphProgram* program : programs) {
    graphs.push_back(&program->graph());
  }
  Substrate substrate(*this, programs);
  std::vector<StepResult> results =
      run_dispatch(policy_, substrate, graphs, set, host_.decision_batch);
  for (std::size_t t = 0; t < tenants; ++t) {
    results[t].checksum = programs[t]->step_checksum();
  }
  return results;
}

/// The host pool as a FIFO substrate: slot s starts an unpinned team of the
/// FIFO width (one live team per slot; the OS scatters its threads, as with
/// TensorFlow's executor) on launcher lane s, which posts to the completion
/// board. FIFO slots are long-lived, so the same launcher keeps serving the
/// same team.
class HostCorunExecutor::FifoSlots final : public FifoSubstrate {
 public:
  FifoSlots(HostCorunExecutor& exec, HostGraphProgram& program,
            std::size_t slots, std::size_t width)
      : exec_(exec),
        program_(program),
        width_(width),
        t0_(wall_time_ms()),
        start_wall_ms_(slots, 0.0),
        board_(slots),
        pad_(slots) {}

  double now_ms() const override { return wall_time_ms() - t0_; }

  void start(std::size_t slot, const Node& node) override {
    ThreadTeam& team =
        exec_.pool_.team_pinned(width_, CoreSet(exec_.cores_), slot);
    start_wall_ms_[slot] = wall_time_ms();
    HostGraphProgram& program = program_;
    CompletionBoard& board = board_;
    const NodeId node_id = node.id;
    pad_.launch_on(slot, [&program, &board, node_id, slot, &team] {
      program.run_node(node_id, team);
      board.post(slot, wall_time_ms());
    });
  }

  void wait(std::vector<DispatchCompletion>& out) override {
    board_.drain([&](std::size_t slot, double end_wall) {
      out.push_back(DispatchCompletion{
          slot, end_wall - t0_, end_wall - start_wall_ms_[slot], 0.0});
    });
  }

 private:
  HostCorunExecutor& exec_;
  HostGraphProgram& program_;
  const std::size_t width_;
  const double t0_;
  std::vector<double> start_wall_ms_;
  CompletionBoard board_;
  // Declared last: its destructor joins the launcher threads before the
  // board they post to goes away.
  LaunchPad pad_;
};

StepResult HostCorunExecutor::run_step_fifo(HostGraphProgram& program,
                                            int inter_op, int intra_op) {
  FifoSlots slots(*this, program,
                  static_cast<std::size_t>(std::max(1, inter_op)),
                  static_cast<std::size_t>(std::clamp<int>(
                      intra_op, 1, static_cast<int>(pool_.max_width()))));
  StepResult stats = run_fifo(slots, program.graph(), inter_op);
  stats.checksum = program.step_checksum();
  return stats;
}

}  // namespace opsched
