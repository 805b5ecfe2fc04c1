// FlatIdMap: an open-addressing map from keys to dense ids assigned in
// first-insertion order.
//
// The write path's distinct-value work — exact distinct counts for column
// statistics and the Parquet-lite dictionary builder — needs one O(1)
// "seen this value? which id?" probe per row and nothing else: no erase, no
// ordered iteration, no per-key allocation. A linear-probing table of
// uint32 slots over a dense key vector does exactly that. String keys are
// `std::string_view`s into column arenas, so the caller keeps the viewed
// storage alive for the map's lifetime.

#ifndef BIGLAKE_COLUMNAR_FLAT_ID_MAP_H_
#define BIGLAKE_COLUMNAR_FLAT_ID_MAP_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/coding.h"

namespace biglake {

template <typename Key>
struct FlatIdHash {
  uint64_t operator()(const Key& k) const { return std::hash<Key>()(k); }
};

template <>
struct FlatIdHash<int64_t> {
  uint64_t operator()(int64_t k) const {
    return Mix64(static_cast<uint64_t>(k));
  }
};

template <typename Key>
class FlatIdMap {
 public:
  /// Sizes the table for `expected` keys up front (it still grows past).
  explicit FlatIdMap(size_t expected = 0) {
    size_t cap = 16;
    while (cap < expected * 2) cap *= 2;
    slots_.assign(cap, 0);
    keys_.reserve(expected);
  }

  /// Returns the id of `key` and whether this call inserted it. Ids are
  /// 0, 1, 2, ... in first-insertion order.
  std::pair<uint32_t, bool> Insert(const Key& key) {
    size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      uint32_t slot = slots_[i];
      if (slot == 0) {
        keys_.push_back(key);
        slots_[i] = static_cast<uint32_t>(keys_.size());
        if (keys_.size() * 2 > slots_.size()) Grow();
        return {static_cast<uint32_t>(keys_.size() - 1), true};
      }
      if (keys_[slot - 1] == key) return {slot - 1, false};
    }
  }

  /// True if `key` was inserted (a read-only probe: safe to call from many
  /// threads once inserts are done).
  bool Contains(const Key& key) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      uint32_t slot = slots_[i];
      if (slot == 0) return false;
      if (keys_[slot - 1] == key) return true;
    }
  }

  size_t size() const { return keys_.size(); }

 private:
  size_t Hash(const Key& key) const {
    return static_cast<size_t>(FlatIdHash<Key>()(key));
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    size_t mask = slots_.size() - 1;
    for (uint32_t id = 1; id <= keys_.size(); ++id) {
      size_t i = Hash(keys_[id - 1]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;  // 0 = empty, else id + 1
  std::vector<Key> keys_;        // indexed by id
};

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_FLAT_ID_MAP_H_
