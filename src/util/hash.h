// Byte-wise 64-bit FNV-1a, the one hasher behind every digest, signature
// and fingerprint in the tree. Multi-byte values are mixed as their
// little-endian bytes, so a digest depends on the values alone and never on
// the host's byte order. Persisted digests depend on these exact rounds and
// bases; util_test, store_test and stream_test pin known answers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace fs::util {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  /// The offset basis with its last decimal digit dropped, which the .fsst
  /// sort fingerprint and serve's state digest and snapshot config
  /// fingerprint were first written with; kept so stores and snapshots
  /// already on disk still verify.
  static constexpr std::uint64_t kLegacyOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  Fnv1a() = default;
  explicit Fnv1a(std::uint64_t basis) : h_(basis) {}

  Fnv1a& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }
  Fnv1a& bytes(std::string_view s) { return bytes(s.data(), s.size()); }

  Fnv1a& u64(std::uint64_t v) { return value(v); }
  /// The bit pattern, so -0.0 and 0.0 hash apart.
  Fnv1a& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  /// An integer, bool or enum as its sizeof(T) little-endian bytes.
  template <typename T>
  Fnv1a& value(T v) {
    if constexpr (std::is_enum_v<T>) {
      return value(static_cast<std::underlying_type_t<T>>(v));
    } else {
      static_assert(std::is_integral_v<T>, "Fnv1a::value: not an integer");
      unsigned char le[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i)
        le[i] = static_cast<unsigned char>(
            static_cast<std::uint64_t>(v) >> (8 * i));
      return bytes(le, sizeof(T));
    }
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace fs::util
