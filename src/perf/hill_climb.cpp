#include "perf/hill_climb.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace opsched {

void ProfileCurve::add_sample(AffinityMode mode, int threads, double time_ms) {
  auto& v = mode == AffinityMode::kShared ? shared_ : spread_;
  v.push_back(ProfilePoint{threads, mode, time_ms});
  std::sort(v.begin(), v.end(),
            [](const ProfilePoint& a, const ProfilePoint& b) {
              return a.threads < b.threads;
            });
}

const std::vector<ProfilePoint>& ProfileCurve::samples(
    AffinityMode mode) const {
  return mode == AffinityMode::kShared ? shared_ : spread_;
}

std::size_t ProfileCurve::total_samples() const {
  return spread_.size() + shared_.size();
}

bool ProfileCurve::empty() const { return spread_.empty() && shared_.empty(); }

double ProfileCurve::predict(int threads, AffinityMode mode) const {
  const auto& v = mode == AffinityMode::kShared ? shared_ : spread_;
  if (v.empty())
    throw std::logic_error("ProfileCurve::predict: no samples for mode");
  std::vector<double> xs, ys;
  xs.reserve(v.size());
  ys.reserve(v.size());
  for (const ProfilePoint& p : v) {
    xs.push_back(static_cast<double>(p.threads));
    ys.push_back(p.time_ms);
  }
  return lerp_through(xs, ys, static_cast<double>(threads));
}

Candidate ProfileCurve::best() const {
  if (empty()) throw std::logic_error("ProfileCurve::best: empty curve");
  Candidate best;
  bool first = true;
  for (const auto* v : {&spread_, &shared_}) {
    for (const ProfilePoint& p : *v) {
      if (first || p.time_ms < best.time_ms) {
        best = Candidate{p.threads, p.mode, p.time_ms};
        first = false;
      }
    }
  }
  return best;
}

std::vector<Candidate> ProfileCurve::candidates(std::size_t k) const {
  std::vector<Candidate> all;
  for (const auto* v : {&spread_, &shared_})
    for (const ProfilePoint& p : *v)
      all.push_back(Candidate{p.threads, p.mode, p.time_ms});
  std::sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.time_ms < b.time_ms;
  });
  // The candidates must give the scheduler real packing freedom: the
  // paper's Strategy-3 example offers 16/18/20 threads with times spanning
  // 60%, i.e. the menu covers distinctly *narrower* configurations, not
  // just the optimum's neighbours. Greedy pick by time with a relative
  // spacing requirement on the thread counts.
  std::vector<Candidate> out;
  for (const Candidate& c : all) {
    const bool too_close =
        std::any_of(out.begin(), out.end(), [&](const Candidate& o) {
          const int spacing =
              std::max(2, static_cast<int>(0.25 * static_cast<double>(o.threads)));
          return std::abs(o.threads - c.threads) < spacing;
        });
    if (!too_close) out.push_back(c);
    if (out.size() == k) break;
  }
  return out;
}

void HillClimbProfiler::climb_mode(const MeasureFn& measure, AffinityMode mode,
                                   ProfileCurve& out) const {
  const int x = std::max(1, params_.interval);
  // Shared mode needs thread pairs per tile: start at 2, step stays x but
  // rounded to even (odd counts would leave a lone thread on a tile and
  // unbalance it — the paper only uses even counts with sharing).
  int n = mode == AffinityMode::kShared ? 2 : 1;
  const auto align = [&](int v) {
    if (mode != AffinityMode::kShared) return v;
    return v % 2 == 0 ? v : v + 1;
  };
  n = align(n);

  double best = -1.0;
  int increases = 0;
  while (n <= params_.max_threads) {
    const double t = measure(n, mode);
    ++last_samples_;
    out.add_sample(mode, n, t);
    if (best >= 0.0 && t > best) {
      // Time increased: stop once it has increased kHillClimbPatience times
      // in a row (tolerates jitter bumps on an otherwise descending curve).
      if (++increases >= kHillClimbPatience) break;
    } else {
      increases = 0;
      best = t;
    }
    if (n == params_.max_threads) break;
    n = std::min(params_.max_threads, align(n + x));
  }
}

ProfileCurve HillClimbProfiler::profile(const MeasureFn& measure) const {
  last_samples_ = 0;
  ProfileCurve curve;
  climb_mode(measure, AffinityMode::kSpread, curve);
  if (params_.both_modes) climb_mode(measure, AffinityMode::kShared, curve);
  return curve;
}

}  // namespace opsched
