#include "serve/admission_control.hpp"

#include <algorithm>

namespace opsched::serve {

namespace {
/// Batch admission budget, in machine cores' worth of mean width demand.
constexpr double kCapacityFactor = 1.25;
}  // namespace

WidthDemand estimate_demand(const Graph& g, const PerfDatabase& db) {
  WidthDemand d;
  double weighted_width = 0.0;
  double total_time = 0.0;
  for (const Node& node : g.nodes()) {
    const ProfileCurve* curve = db.find(OpKey::of(node));
    if (curve == nullptr || curve->empty()) continue;
    const Candidate best = curve->best();
    const int width = std::max(1, best.threads);
    const double time = std::max(best.time_ms, 0.0);
    d.peak_width = std::max(d.peak_width, width);
    weighted_width += time * static_cast<double>(width);
    total_time += time;
    d.area_ms += time * static_cast<double>(width);
  }
  d.mean_width = total_time > 0.0 ? weighted_width / total_time : 1.0;
  d.profiled = total_time > 0.0;
  return d;
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         std::size_t machine_cores)
    : options_(options), cores_(std::max<std::size_t>(1, machine_cores)) {
  options_.max_corun_jobs = std::max<std::size_t>(1, options_.max_corun_jobs);
}

int AdmissionController::clamped_floor(int width_floor) const noexcept {
  return std::min(std::max(1, width_floor), static_cast<int>(cores_));
}

double AdmissionController::charged_width(
    const WidthDemand& d) const noexcept {
  return d.profiled ? d.mean_width : static_cast<double>(cores_);
}

bool AdmissionController::admit(
    const WidthDemand& candidate, JobKind kind, int width_floor,
    const std::vector<ResidentDemand>& resident) const {
  if (resident.empty()) return true;  // idle machine: always take work
  if (resident.size() >= options_.max_corun_jobs) return false;
  if (kind == JobKind::kInference) {
    // Floors are HARD reservations the per-op walk honors every round, so
    // the only thing that can make an inference tenant unschedulable is
    // other inference tenants' floors: admit while they all fit the cores
    // that physically exist. Batch residents don't count — the walk
    // preempts them at op boundaries. Every floor is clamped to the
    // machine first: an over-wide floor is served at machine width, not
    // held as an unsatisfiable reservation that starves the queue forever.
    int floors = clamped_floor(width_floor);
    for (const ResidentDemand& r : resident)
      if (r.kind == JobKind::kInference) floors += clamped_floor(r.width_floor);
    return floors <= static_cast<int>(cores_);
  }
  double total = charged_width(candidate);
  for (const ResidentDemand& r : resident) total += charged_width(r.demand);
  return total <= kCapacityFactor * static_cast<double>(cores_);
}

}  // namespace opsched::serve
