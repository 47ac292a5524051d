// PerfDatabase: profiled curves keyed by (op kind, input shape). Two
// instances of an operation with identical kind and shapes share a curve —
// the stability property the paper's profiling step relies on.
//
// Profiling only fills this database; it decides nothing. The admission
// policy that walks the graphs builds the Strategy 1/2 decisions from it,
// and rebuilds them whenever version() moves.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "graph/graph.hpp"
#include "perf/hill_climb.hpp"

namespace opsched {

/// Profile key: operation type + input/aux shape identity.
struct OpKey {
  OpKind kind = OpKind::kConv2D;
  std::uint64_t shape_hash = 0;

  static OpKey of(const Node& node) {
    // Keyed on every cost-relevant shape (input, filter, output): two
    // instances share a profile curve only if they behave identically.
    return OpKey{node.kind, node.input_shape.hash() * 31 +
                                node.aux_shape.hash() * 17 +
                                node.output_shape.hash()};
  }
  auto operator<=>(const OpKey&) const = default;
};

/// Lifetime: ConcurrencyController and AdmissionPolicy hold a reference to
/// the database they decide from — the database must outlive them.
/// References returned by at()/find() are invalidated by put()/load() for
/// that key (and by destruction), but not by inserting other keys
/// (std::map stability).
///
/// Thread-safety: NOT thread-safe. Profiling writes (put/load) must be
/// externally serialised against readers; the steady-state scheduler path
/// only reads, so concurrent read-only use after profiling is safe.
class PerfDatabase {
 public:
  /// Inserts or replaces the curve for `key`.
  void put(const OpKey& key, ProfileCurve curve);

  bool contains(const OpKey& key) const;
  const ProfileCurve& at(const OpKey& key) const;
  const ProfileCurve* find(const OpKey& key) const;

  std::size_t size() const noexcept { return curves_.size(); }

  /// Bumped by every put and load_json, so a holder of decisions built
  /// from the curves can tell that they may have changed.
  std::uint64_t version() const noexcept { return version_; }

  /// Total profiling samples across all curves (the profiling cost the
  /// paper bounds at N <= C/x * 2 per op).
  std::size_t total_samples() const;

  /// Bumped whenever the JSON layout changes incompatibly; load_json
  /// rejects unknown versions instead of misparsing them.
  static constexpr int kJsonSchemaVersion = 1;

  /// Persistence, in one schema-versioned JSON form: a long-running
  /// service profiles once and warm-starts from the saved database (see
  /// docs/SERVING.md). shape_hash is serialised as a decimal STRING (a JSON
  /// number is a double and would silently round 64-bit hashes), and
  /// time_ms at %.17g, so a round trip is exact. load_json and load_file
  /// REPLACE the contents; they throw std::runtime_error on malformed
  /// input or an unsupported schema_version, leaving the database
  /// unchanged. The file helpers also throw when the file cannot be
  /// opened or written.
  std::string to_json() const;
  void load_json(const std::string& text);
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  std::map<OpKey, ProfileCurve> curves_;
  std::uint64_t version_ = 0;
};

}  // namespace opsched
