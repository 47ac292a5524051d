#include "perf/perf_db.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace opsched {

namespace {

/// Parses the curves of one JSON document into a fresh map, so a throw
/// leaves the caller's database untouched.
std::map<OpKey, ProfileCurve> parse_json_curves(const std::string& text) {
  const json::JsonValue doc = json::parse(text);
  const int version =
      static_cast<int>(json::num_member(doc, "schema_version"));
  if (version != PerfDatabase::kJsonSchemaVersion) {
    throw std::runtime_error(
        "PerfDatabase: unsupported schema_version " + std::to_string(version) +
        " (this build reads " +
        std::to_string(PerfDatabase::kJsonSchemaVersion) + ")");
  }
  std::map<OpKey, ProfileCurve> loaded;
  for (const json::JsonValue& cval : json::array_member(doc, "curves")) {
    const int kind_id = static_cast<int>(json::num_member(cval, "kind"));
    if (kind_id < 0 || kind_id >= static_cast<int>(kNumOpKinds))
      throw std::runtime_error("PerfDatabase: curve with unknown kind " +
                               std::to_string(kind_id));
    // Digits-only check first: stoull alone would accept "-1" (wrapping
    // mod 2^64) and "123abc" (trailing garbage ignored).
    const std::string hash_text = json::str_member(cval, "shape_hash");
    std::uint64_t shape_hash = 0;
    if (hash_text.empty() ||
        hash_text.find_first_not_of("0123456789") != std::string::npos)
      throw std::runtime_error("PerfDatabase: malformed shape_hash");
    try {
      shape_hash = std::stoull(hash_text);
    } catch (const std::exception&) {  // out_of_range: > 2^64-1
      throw std::runtime_error("PerfDatabase: malformed shape_hash");
    }
    const OpKey key{static_cast<OpKind>(kind_id), shape_hash};
    if (loaded.count(key) > 0)
      throw std::runtime_error("PerfDatabase: duplicate curve for kind " +
                               std::to_string(kind_id));
    ProfileCurve curve;
    for (const json::JsonValue& sval : json::array_member(cval, "samples")) {
      const int mode_id = static_cast<int>(json::num_member(sval, "mode"));
      const int threads = static_cast<int>(json::num_member(sval, "threads"));
      const double time_ms = json::num_member(sval, "time_ms");
      if ((mode_id != 0 && mode_id != 1) || threads < 1 || time_ms <= 0.0)
        throw std::runtime_error("PerfDatabase: malformed sample");
      curve.add_sample(static_cast<AffinityMode>(mode_id), threads, time_ms);
    }
    if (curve.empty())
      throw std::runtime_error("PerfDatabase: curve with no samples");
    loaded[key] = std::move(curve);
  }
  return loaded;
}

}  // namespace

void PerfDatabase::put(const OpKey& key, ProfileCurve curve) {
  curves_[key] = std::move(curve);
  ++version_;
}

bool PerfDatabase::contains(const OpKey& key) const {
  return curves_.count(key) > 0;
}

const ProfileCurve& PerfDatabase::at(const OpKey& key) const {
  const auto it = curves_.find(key);
  if (it == curves_.end())
    throw std::out_of_range("PerfDatabase::at: unprofiled op");
  return it->second;
}

const ProfileCurve* PerfDatabase::find(const OpKey& key) const {
  const auto it = curves_.find(key);
  return it == curves_.end() ? nullptr : &it->second;
}

std::size_t PerfDatabase::total_samples() const {
  std::size_t n = 0;
  for (const auto& [k, c] : curves_) n += c.total_samples();
  return n;
}

std::string PerfDatabase::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << kJsonSchemaVersion << ",\n";
  out << "  \"generator\": \"opsched_perfdb\",\n";
  out << "  \"curves\": [";
  bool first_curve = true;
  for (const auto& [key, curve] : curves_) {
    out << (first_curve ? "\n" : ",\n");
    first_curve = false;
    out << "    {\"kind\": " << static_cast<int>(key.kind)
        << ", \"kind_name\": \""
        << json::escape(std::string(op_kind_name(key.kind)))
        << "\", \"shape_hash\": \"" << key.shape_hash
        << "\",\n     \"samples\": [";
    bool first_sample = true;
    for (AffinityMode mode : {AffinityMode::kSpread, AffinityMode::kShared}) {
      for (const ProfilePoint& p : curve.samples(mode)) {
        out << (first_sample ? "\n" : ",\n");
        first_sample = false;
        out << "      {\"mode\": " << static_cast<int>(mode)
            << ", \"threads\": " << p.threads << ", \"time_ms\": "
            << json::number(p.time_ms) << "}";
      }
    }
    out << (first_sample ? "]}" : "\n     ]}");
  }
  out << (first_curve ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

void PerfDatabase::load_json(const std::string& text) {
  curves_ = parse_json_curves(text);
  ++version_;
}

void PerfDatabase::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("PerfDatabase::save_file: cannot open " + path);
  out << to_json();
  if (!out)
    throw std::runtime_error("PerfDatabase::save_file: failed writing " +
                             path);
}

void PerfDatabase::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("PerfDatabase::load_file: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  load_json(buf.str());
}

}  // namespace opsched
