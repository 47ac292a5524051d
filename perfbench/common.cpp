#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "threading/thread_team.hpp"
#include "util/stats.hpp"

namespace perfbench {

void Result::fail(std::size_t items, const std::string& why) {
  failed += items;
  failures.push_back(why);
}

bool percentile_allowed(double p, std::size_t n) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

double highest_allowed_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 95.0, 99.0, 99.9})
    if (percentile_allowed(p, n)) best = p;
  return best;
}

double checked_percentile(const std::vector<double>& xs, double p,
                          const std::string& what) {
  if (xs.empty() || (p > 50.0 && !percentile_allowed(p, xs.size())))
    throw std::logic_error(what + ": " + std::to_string(xs.size()) +
                           " samples are too few for p" + std::to_string(p));
  return opsched::percentile(xs, p);
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : opsched::percentile(xs, 50.0);
}

std::vector<double> tenth_rates(const std::vector<double>& done_wall_s) {
  std::vector<double> out;
  const std::size_t n = done_wall_s.size();
  std::size_t lo = 0;
  double start = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    const std::size_t hi = n * k / 10;
    if (hi == lo) continue;
    const double end = done_wall_s[hi - 1];
    if (end > start) out.push_back(static_cast<double>(hi - lo) / (end - start));
    lo = hi;
    start = end;
  }
  return out;
}

double block_median_percentile(const std::vector<double>& xs, double p,
                               std::size_t block, const std::string& what) {
  const std::size_t blocks = std::max<std::size_t>(1, xs.size() / block);
  std::vector<double> tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? xs.end() : first + static_cast<std::ptrdiff_t>(block);
    tails.push_back(checked_percentile(std::vector<double>(first, last), p, what));
  }
  return median_of(std::move(tails));
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// -- spans ------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), epoch_s_(now_s()) {}

int SpanRecorder::begin(const std::string& name, const std::string& layer,
                        std::uint64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = (now_s() - epoch_s_) * 1e6;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = (now_s() - epoch_s_) * 1e6;
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::add_virtual(const std::string& name,
                               const std::string& layer, double start_ms,
                               double end_ms, std::uint64_t id) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_us = start_ms * 1e3;
  s.end_us = end_ms * 1e3;
  s.id = id;
  s.virtual_clock = true;
  spans_.push_back(std::move(s));
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.virtual_clock || s.parent < 0) continue;
    kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.virtual_clock) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start_us);
      const double hi = std::min(hi0, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  const std::vector<double> self = self_us();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (!spans_[i].virtual_clock) out[spans_[i].layer] += self[i] / 1e3;
  return out;
}

std::string SpanRecorder::to_chrome_json() const {
  std::ostringstream os;
  os << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"benchmark (wall clock)\"}},"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"benchmark (virtual clock)\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",{\"name\":" << json_string(s.name) << ",\"cat\":"
       << json_string(s.layer) << ",\"ph\":\"X\",\"pid\":"
       << (s.virtual_clock ? 2 : 1) << ",\"tid\":" << (s.virtual_clock ? s.id : 0)
       << ",\"ts\":" << json_number(s.start_us)
       << ",\"dur\":" << json_number(s.end_us - s.start_us)
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << "}}";
  }
  os << "]\n";
  return os.str();
}

// -- probes -----------------------------------------------------------------

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

namespace {

// A dependent multiply-add chain: pure ALU, no memory traffic.
double alu_loop(std::uint64_t iters, double seed) {
  double x = seed;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 0.999999 + 1e-7;
  return x;
}

}  // namespace

std::pair<double, double> alu_probe(std::size_t threads) {
  constexpr std::uint64_t kIters = 30'000'000;
  volatile double sink = 0.0;
  const double t0 = now_s();
  sink = sink + alu_loop(kIters, 1.0);
  const double one_ms = (now_s() - t0) * 1e3;

  std::vector<double> out(threads, 0.0);
  std::vector<std::thread> pool;
  const double t1 = now_s();
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&out, t] { out[t] = alu_loop(kIters, 1.0 + t); });
  for (std::thread& th : pool) th.join();
  const double n_ms = (now_s() - t1) * 1e3;
  for (const double v : out) sink = sink + v;
  return {one_ms, n_ms};
}

double fork_join_us(std::size_t width, int calls) {
  opsched::ThreadTeam team(width);
  const opsched::RangeFn noop = [](std::size_t, std::size_t, std::size_t) {};
  for (int i = 0; i < 20; ++i) team.parallel_for(width, noop);  // wake-up
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const double t0 = now_s();
    team.parallel_for(width, noop);
    us.push_back((now_s() - t0) * 1e6);
  }
  return median_of(std::move(us));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
