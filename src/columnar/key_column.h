// Typed key columns: boxing-free hashing and equality of join and group-by
// keys.
//
// The hash join and the hash group-by (aggregate.h) key rows by the values
// of one or more columns. Both read those values typed through a KeyColumn
// view — plain data in place, dictionary strings through their indices,
// run-length runs decoded once — so neither boxes a cell or encodes a key.
// Equality is exactly the byte equality of EncodeColumnValue (ipc.h); the
// two operators differ only in NULL: a join key NULL never matches, while a
// group-by treats NULL as one more key value.

#ifndef BIGLAKE_COLUMNAR_KEY_COLUMN_H_
#define BIGLAKE_COLUMNAR_KEY_COLUMN_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

#include "columnar/column.h"
#include "common/coding.h"

namespace biglake {

/// Key-equality class. EncodeColumnValue writes one value tag per class, so
/// two non-NULL keys can be byte-equal only within the same class: INT64
/// and TIMESTAMP share a class, as do STRING and BYTES (plain or
/// dictionary-encoded).
enum class KeyClass : uint8_t { kBool, kInt, kDouble, kString };

inline KeyClass ClassOf(DataType t) {
  if (t == DataType::kBool) return KeyClass::kBool;
  if (t == DataType::kDouble) return KeyClass::kDouble;
  if (IsStringPhysical(t)) return KeyClass::kString;
  return KeyClass::kInt;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Boxing-free view of one column: plain data is read in place, dictionary
/// strings through their indices (each entry hashed once), RLE runs decoded
/// once. Within a class, key equality is exactly the byte equality of
/// EncodeColumnValue: int64 values, double bit patterns (so -0.0 != 0.0 and
/// equal NaN payloads match), bool truth values, string bytes.
///
/// `i64` may point into the view's own `decoded` vector, so a KeyColumn
/// moves (the vector keeps its storage) but never copies.
struct KeyColumn {
  KeyClass cls = KeyClass::kInt;
  const uint8_t* valid = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;
  const StringBuffer* strings = nullptr;  // plain values or the dictionary
  const uint32_t* dict = nullptr;         // dictionary indices, if encoded
  std::vector<int64_t> decoded;           // expanded RLE runs
  std::vector<uint64_t> dict_hash;        // per dictionary entry

  KeyColumn() = default;
  /// `hash_dictionary` = false skips hashing dictionary entries, for
  /// columns that are only read, never hashed.
  explicit KeyColumn(const Column& col, bool hash_dictionary = true);
  KeyColumn(KeyColumn&&) = default;
  KeyColumn& operator=(KeyColumn&&) = default;
  KeyColumn(const KeyColumn&) = delete;
  KeyColumn& operator=(const KeyColumn&) = delete;

  static uint64_t HashString(std::string_view s) {
    return Mix64(std::hash<std::string_view>()(s));
  }
  bool IsNull(uint32_t r) const { return valid != nullptr && valid[r] == 0; }
  std::string_view Str(uint32_t r) const {
    return (*strings)[dict != nullptr ? dict[r] : r];
  }
  /// Row hash; for the fixed-width classes a bijection of the key.
  uint64_t Hash(uint32_t r) const {
    switch (cls) {
      case KeyClass::kInt: return Mix64(static_cast<uint64_t>(i64[r]));
      case KeyClass::kDouble: return Mix64(DoubleBits(f64[r]));
      case KeyClass::kBool: return Mix64(b8[r] != 0 ? 1 : 0);
      case KeyClass::kString:
        return !dict_hash.empty() ? dict_hash[dict[r]] : HashString(Str(r));
    }
    return 0;
  }
};

/// Equality of two non-NULL keys of the same class.
inline bool KeyEqual(const KeyColumn& a, uint32_t ra, const KeyColumn& b,
                     uint32_t rb) {
  switch (a.cls) {
    case KeyClass::kInt: return a.i64[ra] == b.i64[rb];
    case KeyClass::kDouble:
      return DoubleBits(a.f64[ra]) == DoubleBits(b.f64[rb]);
    case KeyClass::kBool: return (a.b8[ra] != 0) == (b.b8[rb] != 0);
    case KeyClass::kString: return a.Str(ra) == b.Str(rb);
  }
  return false;
}

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_KEY_COLUMN_H_
