#include "graph/shape.hpp"

#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace opsched {

TensorShape::TensorShape(std::initializer_list<std::int64_t> dims) {
  if (dims.size() > kMaxRank)
    throw std::invalid_argument("TensorShape: rank > kMaxRank");
  for (std::int64_t d : dims) {
    if (d < 0) throw std::invalid_argument("TensorShape: negative dimension");
    dims_[rank_++] = d;
  }
}

std::int64_t TensorShape::dim(std::size_t i) const {
  if (i >= rank_) throw std::out_of_range("TensorShape::dim");
  return dims_[i];
}

TensorShape TensorShape::scaled_dim0(std::int64_t factor) const {
  if (factor < 0)
    throw std::invalid_argument("TensorShape::scaled_dim0: negative factor");
  TensorShape out = *this;
  if (rank_ > 0) out.dims_[0] *= factor;
  return out;
}

std::int64_t TensorShape::elements() const noexcept {
  std::int64_t n = 1;
  for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
  return n;
}

bool TensorShape::operator==(const TensorShape& other) const noexcept {
  if (rank_ != other.rank_) return false;
  for (std::size_t i = 0; i < rank_; ++i)
    if (dims_[i] != other.dims_[i]) return false;
  return true;
}

std::uint64_t TensorShape::hash() const noexcept {
  std::uint64_t h = mix64(0x5eedULL + rank_);
  for (std::size_t i = 0; i < rank_; ++i)
    h = mix64(h, static_cast<std::uint64_t>(dims_[i]));
  return h;
}

std::string TensorShape::to_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) os << ',';
    os << dims_[i];
  }
  os << ')';
  return os.str();
}

}  // namespace opsched
