// Arrow-style varbinary storage for string/bytes columns: one offsets array
// (n+1 absolute positions, uint32) plus one shared byte arena, viewed through
// `std::string_view` accessors.
//
// Replaces the previous `Buffer<std::string>` element storage (one heap
// allocation per value, O(n) walks just to *account* the column). With the
// arena layout:
//   - Slice is an O(1) refcount bump on the offsets view; the arena is
//     shared whole, so values never move.
//   - Gather copies only the payload bytes the selection references, into a
//     freshly compacted arena.
//   - A dictionary shared across gathered columns is one arena, not a
//     per-copy forest of std::strings.
//   - ByteSize is exact O(1) arithmetic: offsets bytes + the payload span
//     [offsets[0], offsets[n]) the view references.
//
// Both physical arrays are `Buffer<T>` views (buffer.h), so all existing
// alloc/copy/slice accounting applies unchanged; arena materializations are
// additionally counted in the `biglake_buf_string_*` series.
//
// Thread safety: immutable after construction, like Buffer.

#ifndef BIGLAKE_COLUMNAR_STRING_BUFFER_H_
#define BIGLAKE_COLUMNAR_STRING_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/buffer.h"

namespace biglake {

class StringBufferBuilder;

/// Immutable shared view over varbinary string storage. `operator[]` returns
/// a `std::string_view` into the arena — valid for the lifetime of any view
/// of this buffer (the arena is refcounted with the views).
class StringBuffer {
 public:
  StringBuffer() = default;

  /// Materializes a fresh arena from std::string elements (builder output);
  /// counts bytes-allocated.
  static StringBuffer FromStrings(const std::vector<std::string>& values);
  /// Same, but produced by *copying* rows out of existing buffers
  /// (Gather / Decode / Concat): counts bytes-allocated AND bytes-copied.
  static StringBuffer FromStringsCopied(const std::vector<std::string>& values);
  /// Wraps offsets (n+1 absolute positions, offsets[0] = 0) and the arena
  /// they index, produced by copying rows out of existing buffers: counted
  /// as StringBufferBuilder::Finish(/*copied=*/true) counts them.
  static StringBuffer FromPartsCopied(std::vector<uint32_t> offsets,
                                      std::vector<uint8_t> bytes);
  /// `n` empty strings with no arena storage (the all-NULL column layout).
  static StringBuffer Empties(size_t n);
  /// Wraps already-accounted offsets/arena views (offsets must hold n+1
  /// absolute positions into `bytes`, or be empty together with `bytes`).
  static StringBuffer FromPartsInternal(Buffer<uint32_t> offsets,
                                        Buffer<uint8_t> bytes);

  size_t size() const {
    return offsets_.size() <= 1 ? 0 : offsets_.size() - 1;
  }
  bool empty() const { return size() == 0; }

  std::string_view operator[](size_t i) const {
    const uint32_t begin = offsets_[i];
    const uint32_t len = offsets_[i + 1] - begin;
    if (len == 0) return std::string_view();
    return std::string_view(
        reinterpret_cast<const char*>(bytes_.data()) + begin, len);
  }
  std::string_view front() const { return (*this)[0]; }
  std::string_view back() const { return (*this)[size() - 1]; }

  /// Forward iteration yielding string_views (what ipc encoding ranges over).
  class const_iterator {
   public:
    const_iterator(const StringBuffer* buf, size_t i) : buf_(buf), i_(i) {}
    std::string_view operator*() const { return (*buf_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const StringBuffer* buf_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  /// O(1) sub-view: slices the offsets view only, the arena is shared whole.
  /// Counted as one zero-copy slice (via the offsets Buffer).
  StringBuffer Slice(size_t offset, size_t count) const {
    const size_t n = size();
    if (offset > n) offset = n;
    if (count > n - offset) count = n - offset;
    StringBuffer out;
    if (n == 0) return out;
    out.offsets_ = offsets_.Slice(offset, count + 1);
    out.bytes_ = bytes_;  // full arena, shared
    return out;
  }

  /// Explicit deep copy of the viewed strings; payload bytes are counted as
  /// bytes-copied (offsets are not — they do not survive the conversion).
  std::vector<std::string> ToVector() const;

  /// True if both views share one arena (or, for arena-less all-empty
  /// buffers, one offsets block) — the "shared, not duplicated" test hook.
  bool SharesStorageWith(const StringBuffer& other) const {
    if (bytes_.SharesStorageWith(other.bytes_)) return true;
    return bytes_.empty() && other.bytes_.empty() &&
           offsets_.SharesStorageWith(other.offsets_);
  }

  /// True if both view the same strings of the same arena (one offsets
  /// window over one arena): what lets a Concat keep a shared dictionary.
  bool SameViewAs(const StringBuffer& other) const {
    return offsets_.SameViewAs(other.offsets_) &&
           bytes_.SameViewAs(other.bytes_);
  }

  /// Exact heap footprint of the view in O(1): offsets plus the referenced
  /// payload span. No per-string walk, no std::string header/capacity guess.
  uint64_t ByteSize() const {
    return static_cast<uint64_t>(offsets_.size()) * sizeof(uint32_t) +
           PayloadBytes();
  }
  /// Payload bytes the view references: offsets[n] - offsets[0].
  uint64_t PayloadBytes() const {
    const size_t n = size();
    return n == 0 ? 0 : offsets_[n] - offsets_[0];
  }

  /// Arena refcount (test hook); 0 for arena-less views.
  long use_count() const { return bytes_.use_count(); }

  const Buffer<uint32_t>& offsets() const { return offsets_; }
  const Buffer<uint8_t>& bytes() const { return bytes_; }

  friend bool operator==(const StringBuffer& a,
                         const std::vector<std::string>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator==(const std::vector<std::string>& a,
                         const StringBuffer& b) {
    return b == a;
  }

 private:
  friend class StringBufferBuilder;

  // Invariant: either both empty (zero strings), or offsets_ has size()+1
  // entries of absolute arena positions and bytes_ views the whole arena
  // (offsets stay valid across offsets-only slicing).
  Buffer<uint32_t> offsets_;
  Buffer<uint8_t> bytes_;
};

/// Incremental arena assembly: append string_views, then Finish() into an
/// immutable StringBuffer. Used by ColumnBuilder, the IPC decoder (which
/// appends wire string_views straight into the arena — no per-string heap
/// allocation), and the Gather/Decode/Concat compaction paths.
class StringBufferBuilder {
 public:
  void Reserve(size_t rows, size_t payload_bytes) {
    offsets_.reserve(rows + 1);
    bytes_.reserve(payload_bytes);
  }

  void Append(std::string_view s) {
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  }

  size_t size() const { return offsets_.size() - 1; }
  size_t payload_bytes() const { return bytes_.size(); }

  /// Wraps the accumulated arrays. `copied=true` marks the arena as produced
  /// by copying rows out of existing buffers (counted as bytes-copied on top
  /// of bytes-allocated). The builder is left empty and reusable.
  StringBuffer Finish(bool copied = false);

 private:
  std::vector<uint32_t> offsets_{0};
  std::vector<uint8_t> bytes_;
};

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_STRING_BUFFER_H_
