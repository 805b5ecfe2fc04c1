#include "columnar/key_column.h"

namespace biglake {

KeyColumn::KeyColumn(const Column& col, bool hash_dictionary)
    : cls(ClassOf(col.type())) {
  if (col.has_validity()) valid = col.validity().data();
  switch (col.encoding()) {
    case Encoding::kPlain:
      switch (cls) {
        case KeyClass::kInt: i64 = col.int64_data().data(); break;
        case KeyClass::kDouble: f64 = col.double_data().data(); break;
        case KeyClass::kBool: b8 = col.bool_data().data(); break;
        case KeyClass::kString: strings = &col.string_data(); break;
      }
      break;
    case Encoding::kDictionary:
      strings = &col.dictionary();
      dict = col.dict_indices().data();
      // Hash the dictionary once unless it dwarfs the column (a short
      // slice over a large dictionary hashes its rows instead).
      if (hash_dictionary && strings->size() <= col.length()) {
        dict_hash.resize(strings->size());
        for (size_t d = 0; d < strings->size(); ++d) {
          dict_hash[d] = HashString((*strings)[d]);
        }
      }
      break;
    case Encoding::kRunLength: {
      decoded.reserve(col.length());
      const auto& values = col.run_values();
      const auto& lengths = col.run_lengths();
      for (size_t r = 0; r < values.size(); ++r) {
        decoded.insert(decoded.end(), lengths[r], values[r]);
      }
      i64 = decoded.data();
      break;
    }
  }
}

}  // namespace biglake
