// TensorShape: dimensions of an operation input/output. The runtime never
// touches tensor *values* on the simulated path; shapes are what drive cost
// (flops, bytes, working set) and therefore scheduling, exactly as in the
// paper where "different instances of an operation can have different input
// data sizes" (Observation 2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace opsched {

class TensorShape {
 public:
  static constexpr std::size_t kMaxRank = 5;

  TensorShape() = default;
  TensorShape(std::initializer_list<std::int64_t> dims);

  std::size_t rank() const noexcept { return rank_; }
  std::int64_t dim(std::size_t i) const;
  /// Bracket access without bounds check (hot paths).
  std::int64_t operator[](std::size_t i) const noexcept { return dims_[i]; }

  /// This shape with dim 0 multiplied by `factor` (rank-0 shapes are
  /// returned unchanged). Throws std::invalid_argument on a negative factor.
  TensorShape scaled_dim0(std::int64_t factor) const;

  /// Product of all dimensions (1 for rank-0 scalars).
  std::int64_t elements() const noexcept;
  /// Bytes assuming float32 payloads (the paper's training workloads).
  std::int64_t bytes() const noexcept { return elements() * 4; }

  bool operator==(const TensorShape& other) const noexcept;
  bool operator!=(const TensorShape& other) const noexcept {
    return !(*this == other);
  }

  /// Stable hash usable as part of a profile-database key.
  std::uint64_t hash() const noexcept;

  /// "(32,8,8,384)" — matches the paper's notation.
  std::string to_string() const;

 private:
  std::size_t rank_ = 0;
  std::array<std::int64_t, kMaxRank> dims_{};
};

}  // namespace opsched
