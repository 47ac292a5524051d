// Shared pieces of the repository benchmark: the result every workload
// fills, the percentile rule, the benchmark's own span recorder (spans are
// taken around calls into the opsched layers, from outside), and the host
// probes (effective cores, fork-join latency, peak RSS).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `context` carries numbers printed next to
/// the metrics but not gated (sample counts, chosen percentiles, probes).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> context;
  std::vector<std::string> failures;  // one line per failed check

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check of `items` work items.
  void fail(std::size_t items, const std::string& why);
};

// -- percentile rule ------------------------------------------------------

/// True when `n` samples leave at least ten samples beyond percentile `p`.
bool percentile_allowed(double p, std::size_t n);
/// The highest of {50, 90, 95, 99, 99.9} that percentile_allowed admits for
/// `n` samples (50 when none of the tail ones is).
double highest_allowed_percentile(std::size_t n);
/// util::percentile of `xs` at `p`, after checking the rule; throws
/// std::logic_error naming `what` when `xs` is too small for `p`.
double checked_percentile(const std::vector<double>& xs, double p,
                          const std::string& what);
double median_of(std::vector<double> xs);
/// Items per second over each tenth of a run, from the run's cumulative
/// wall time at each item's completion (in completion order).
std::vector<double> tenth_rates(const std::vector<double>& done_wall_s);
/// Percentile `p` of every consecutive block of `block` samples (the last
/// block absorbs the remainder), and the median of those: a tail that one
/// slow spell in part of a run does not move. Needs at least one block; the
/// percentile rule applies per block.
double block_median_percentile(const std::vector<double>& xs, double p,
                               std::size_t block, const std::string& what);

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

// -- the benchmark's own spans ----------------------------------------------

/// One span around a call into a layer. Times are wall-clock microseconds
/// since the recorder was created, except spans on the virtual clock
/// (`virtual_clock`), whose times are service-clock microseconds.
struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;          // index into the recorder, -1 for a root
  std::uint64_t id = 0;     // job or request id, 0 when none
  bool virtual_clock = false;
};

/// In-memory span store. Disabled recorders keep nothing and cost one
/// branch per span, so untraced runs use the same code paths.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Opens a wall-clock span under the innermost open one; returns its index
  /// (-1 when disabled).
  int begin(const std::string& name, const std::string& layer,
            std::uint64_t id = 0);
  void end(int index);
  /// A completed root span on the virtual clock (times in ms).
  void add_virtual(const std::string& name, const std::string& layer,
                   double start_ms, double end_ms, std::uint64_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time of every wall-clock span: its duration minus the part of it
  /// that its children cover. Index-aligned with spans().
  std::vector<double> self_us() const;
  /// Sum of self time per layer, in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Chrome trace-event JSON: wall-clock spans under pid 1, virtual-clock
  /// spans under pid 2; args carry layer, parent and id.
  std::string to_chrome_json() const;

 private:
  bool enabled_;
  double epoch_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; no-op on a disabled recorder.
class Scope {
 public:
  Scope(SpanRecorder& rec, const std::string& name, const std::string& layer,
        std::uint64_t id = 0)
      : rec_(rec), index_(rec.begin(name, layer, id)) {}
  ~Scope() { rec_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

// -- host probes ------------------------------------------------------------

/// Logical cores the benchmark may use (std::thread::hardware_concurrency,
/// at least 1).
std::size_t host_cores();

/// ALU-loop throughput at 1 and at `threads` threads: returns
/// (ms for the single-thread loop, ms for `threads` copies run in parallel).
/// threads x ms1 / msN is the effective core count.
std::pair<double, double> alu_probe(std::size_t threads);

/// Median wall time of an empty ThreadTeam::parallel_for at `width`, in µs.
double fork_join_us(std::size_t width, int calls);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Formats `v` with every significant digit as a JSON number.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
