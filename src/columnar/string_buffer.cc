#include "columnar/string_buffer.h"

namespace biglake {

namespace {

StringBuffer WrapParts(std::vector<uint32_t> offsets, std::vector<uint8_t> bytes,
                       bool copied) {
  StringBuffer out;
  if (offsets.size() <= 1) return out;  // zero strings: no storage at all
  const uint64_t payload = bytes.size();
  BufferPool::Current().CountStringArena(payload);
  out = StringBuffer();
  // The arena may legitimately be empty (all-empty strings): the offsets
  // block alone then carries the layout.
  Buffer<uint32_t> off = copied
                             ? Buffer<uint32_t>::FromVectorCopied(std::move(offsets))
                             : Buffer<uint32_t>::FromVector(std::move(offsets));
  Buffer<uint8_t> arena;
  if (!bytes.empty()) {
    arena = copied ? Buffer<uint8_t>::FromVectorCopied(std::move(bytes))
                   : Buffer<uint8_t>::FromVector(std::move(bytes));
  }
  return StringBuffer::FromPartsInternal(std::move(off), std::move(arena));
}

}  // namespace

StringBuffer StringBuffer::FromPartsInternal(Buffer<uint32_t> offsets,
                                             Buffer<uint8_t> bytes) {
  StringBuffer out;
  out.offsets_ = std::move(offsets);
  out.bytes_ = std::move(bytes);
  return out;
}

StringBuffer StringBuffer::FromStrings(const std::vector<std::string>& values) {
  StringBufferBuilder b;
  size_t payload = 0;
  for (const auto& s : values) payload += s.size();
  b.Reserve(values.size(), payload);
  for (const auto& s : values) b.Append(s);
  return b.Finish(/*copied=*/false);
}

StringBuffer StringBuffer::FromStringsCopied(
    const std::vector<std::string>& values) {
  StringBufferBuilder b;
  size_t payload = 0;
  for (const auto& s : values) payload += s.size();
  b.Reserve(values.size(), payload);
  for (const auto& s : values) b.Append(s);
  return b.Finish(/*copied=*/true);
}

StringBuffer StringBuffer::FromPartsCopied(std::vector<uint32_t> offsets,
                                           std::vector<uint8_t> bytes) {
  return WrapParts(std::move(offsets), std::move(bytes), /*copied=*/true);
}

StringBuffer StringBuffer::Empties(size_t n) {
  if (n == 0) return StringBuffer();
  return WrapParts(std::vector<uint32_t>(n + 1, 0), {}, /*copied=*/false);
}

std::vector<std::string> StringBuffer::ToVector() const {
  const size_t n = size();
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back((*this)[i]);
  BufferPool::Current().CountCopy(PayloadBytes());
  return out;
}

StringBuffer StringBufferBuilder::Finish(bool copied) {
  StringBuffer out =
      WrapParts(std::move(offsets_), std::move(bytes_), copied);
  offsets_ = {0};
  bytes_.clear();
  return out;
}

}  // namespace biglake
