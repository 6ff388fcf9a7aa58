// Sorted-vector associative container for hot-path message state.
//
// SRM session messages carry two per-member tables (the sequence-state
// report and the timestamp-echo table) that are built once per send and
// only searched on receive.  A node-based std::map costs one allocation
// per entry — O(G) per message, O(G^2) per session round — and chases
// pointers on every lookup.  FlatMap keeps the entries in one contiguous
// sorted vector: building is an append (amortized O(1) when keys arrive in
// order, as echo tables do), lookup is a binary search, and iteration is
// linear and cache-friendly in ascending key order, matching std::map's
// iteration order bit-for-bit.
//
// The interface is the read-side subset of std::map the protocol code uses
// (find/count/at/operator[]/range-for over pairs), so call sites read the
// same; inserts out of key order fall back to a shifting insert, which is
// fine for the small tables (per-page stream reports) that are built from
// unordered iteration.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace srm::util {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;
  using iterator = const_iterator;  // keys are immutable once stored

  FlatMap() = default;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }  // keeps capacity
  void reserve(std::size_t n) { entries_.reserve(n); }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) return entries_.end();
    return it;
  }

  std::size_t count(const K& key) const {
    return find(key) == end() ? 0 : 1;
  }

  const V& at(const K& key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: missing key");
    return it->second;
  }

  // Insert-or-assign.  Appending in ascending key order is amortized O(1);
  // an out-of-order key shifts the tail (O(n)), acceptable for the small
  // tables built from unordered iteration.
  V& operator[](const K& key) {
    if (!entries_.empty() && entries_.back().first < key) {
      entries_.emplace_back(key, V{});
      return entries_.back().second;
    }
    const auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) {
      return mutable_iter(it)->second;
    }
    return entries_.emplace(mutable_iter(it), key, V{})->second;
  }

  void insert_or_assign(const K& key, V value) {
    (*this)[key] = std::move(value);
  }

  // Exchanges storage with the other map.
  void swap(FlatMap& other) noexcept { entries_.swap(other.entries_); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  typename std::vector<value_type>::const_iterator lower_bound(
      const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  typename std::vector<value_type>::iterator mutable_iter(const_iterator it) {
    return entries_.begin() + (it - entries_.cbegin());
  }

  std::vector<value_type> entries_;
};

}  // namespace srm::util
