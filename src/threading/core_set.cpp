#include "threading/core_set.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace opsched {

CoreSet::CoreSet(std::size_t capacity)
    : capacity_(capacity), words_((capacity + 63) / 64, 0) {}

CoreSet CoreSet::range(std::size_t capacity, std::size_t first,
                       std::size_t count) {
  if (first + count > capacity)
    throw std::out_of_range("CoreSet::add: core id beyond capacity");
  CoreSet s(capacity);
  // Whole words at a time: the simulator builds the full set on every
  // idle-core query.
  for (std::size_t c = first, end = first + count; c < end;) {
    const std::size_t bit = c % 64;
    const std::size_t n = std::min<std::size_t>(64 - bit, end - c);
    const std::uint64_t ones = n == 64 ? ~0ULL : (1ULL << n) - 1;
    s.words_[c / 64] |= ones << bit;
    c += n;
  }
  return s;
}

CoreSet CoreSet::all(std::size_t capacity) {
  return range(capacity, 0, capacity);
}

std::size_t CoreSet::count() const noexcept {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool CoreSet::contains(std::size_t core) const {
  if (core >= capacity_) return false;
  return (words_[core / 64] >> (core % 64)) & 1ULL;
}

void CoreSet::add(std::size_t core) {
  if (core >= capacity_)
    throw std::out_of_range("CoreSet::add: core id beyond capacity");
  words_[core / 64] |= (1ULL << (core % 64));
}

void CoreSet::remove(std::size_t core) {
  if (core >= capacity_)
    throw std::out_of_range("CoreSet::remove: core id beyond capacity");
  words_[core / 64] &= ~(1ULL << (core % 64));
}

void CoreSet::clear() {
  for (auto& w : words_) w = 0;
}

void CoreSet::check_capacity(const CoreSet& other) const {
  if (capacity_ != other.capacity_)
    throw std::invalid_argument("CoreSet: capacity mismatch");
}

CoreSet CoreSet::union_with(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] | other.words_[i];
  return out;
}

CoreSet CoreSet::intersect(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] & other.words_[i];
  return out;
}

CoreSet CoreSet::minus(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] & ~other.words_[i];
  return out;
}

bool CoreSet::disjoint_with(const CoreSet& other) const {
  check_capacity(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] & other.words_[i]) return false;
  return true;
}

bool CoreSet::is_subset_of(const CoreSet& other) const {
  check_capacity(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] & ~other.words_[i]) return false;
  return true;
}

CoreSet CoreSet::take_lowest(std::size_t n) const {
  CoreSet out(capacity_);
  std::size_t taken = 0;
  for (std::size_t i = 0; i < words_.size() && taken < n; ++i) {
    for (std::uint64_t w = words_[i]; w != 0 && taken < n; w &= w - 1) {
      out.words_[i] |= w & (~w + 1);  // lowest remaining member
      ++taken;
    }
  }
  if (taken < n)
    throw std::invalid_argument("CoreSet::take_lowest: not enough cores");
  return out;
}

std::size_t CoreSet::lowest() const noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0)
      return i * 64 + static_cast<std::size_t>(std::countr_zero(words_[i]));
  }
  return capacity_;
}

std::size_t CoreSet::hash() const noexcept {
  // FNV-1a over the words plus the capacity; equal sets (same capacity,
  // same members) hash equal by construction.
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  mix(static_cast<std::uint64_t>(capacity_));
  for (const std::uint64_t w : words_) mix(w);
  return static_cast<std::size_t>(h);
}

std::vector<std::size_t> CoreSet::to_vector() const {
  std::vector<std::size_t> v;
  v.reserve(count());
  for (std::size_t c = 0; c < capacity_; ++c)
    if (contains(c)) v.push_back(c);
  return v;
}

bool CoreSet::operator==(const CoreSet& other) const {
  return capacity_ == other.capacity_ && words_ == other.words_;
}

std::string CoreSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  std::size_t c = 0;
  while (c < capacity_) {
    if (!contains(c)) {
      ++c;
      continue;
    }
    std::size_t run_start = c;
    while (c + 1 < capacity_ && contains(c + 1)) ++c;
    if (!first) os << ',';
    first = false;
    if (run_start == c) os << run_start;
    else os << run_start << '-' << c;
    ++c;
  }
  os << '}';
  return os.str();
}

}  // namespace opsched
