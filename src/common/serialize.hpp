// Byte-buffer serialization for inter-rank messages.
//
// Every message exchanged through keybin2::comm is a flat byte vector, the
// same way an MPI program sends typed buffers. ByteWriter/ByteReader provide
// bounds-checked packing of trivially-copyable scalars, vectors, and strings.
#pragma once

#include <bit>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace keybin2 {

// Serialized bytes are raw memcpy'd object representations: they cross rank
// boundaries (which, under the process backend, are real process boundaries
// and in an MPI deployment would be real machines) and land in checkpoint
// files that a restarted run reads back. That is only well-defined while
// every producer and consumer agrees on byte order and byte width — assert
// the assumption once, here, instead of corrupting data quietly on an
// exotic target.
static_assert(std::endian::native == std::endian::little,
              "keybin2 serialization assumes little-endian object "
              "representations (frames and checkpoints are raw memcpy)");
static_assert(CHAR_BIT == 8,
              "keybin2 serialization assumes 8-bit bytes");

class ByteWriter {
 public:
  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "write() requires a trivially copyable type");
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  template <typename T>
  void write_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  template <typename T>
  void write_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size_bytes());
  }

  template <typename T>
    requires(!std::is_const_v<T>)
  void write_span(std::span<T> v) {
    write_span(std::span<const T>(v));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

  /// Drop the contents but keep the capacity, so a long-lived writer can be
  /// reused across messages without reallocating (reduce hot loop).
  void clear() { buf_.clear(); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    // Overflow-safe bound: a corrupt length prefix must not wrap the
    // byte-count multiplication (or reach std::vector's length_error).
    KB2_CHECK_MSG(n <= remaining() / sizeof(T),
                  "ByteReader: vector length " << n << " exceeds remaining "
                                               << remaining() << " bytes");
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    KB2_CHECK_MSG(n <= remaining(), "ByteReader: string length "
                                        << n << " exceeds remaining "
                                        << remaining() << " bytes");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(std::size_t n) const {
    KB2_CHECK_MSG(pos_ + n <= data_.size(),
                  "ByteReader underflow: need " << n << " bytes at offset "
                                                << pos_ << " of "
                                                << data_.size());
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace keybin2
