// Canonical content digest of an RBAC state.
//
// Audit reports carry the engine version() and this digest so a stored
// report can be matched to the exact store state that produced it (and two
// reports can be proven to describe the same data without diffing datasets).
// The digest is FNV-1a over a canonical serialization: entity counts, every
// name in id order, then every role's sorted user and permission sets. Two
// states with identical interned entities and identical edge sets digest
// identically whether materialized as an RbacDataset or live inside an
// IncrementalAuditor — pinned by a round-trip test.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/incremental.hpp"
#include "core/model.hpp"

namespace rolediet::core {

/// FNV-1a with length-prefixed fields, so ("ab", "c") and ("a", "bc") feed
/// different byte streams. Same constants as the io/binary checksum; the
/// sharded store's body files (store/body.hpp) checksum their bytes with it.
class ContentDigest {
 public:
  void bytes(const void* data, std::size_t size) noexcept {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= b[i];
      state_ *= kPrime;
    }
  }
  /// The eight little-endian bytes of `v`. A zero byte only multiplies the
  /// state by the prime, so after v's significant low bytes one multiply by
  /// prime^(zero bytes left) gives the byte loop's state exactly.
  void u64(std::uint64_t v) noexcept {
    const std::size_t significant = (static_cast<std::size_t>(std::bit_width(v)) + 7) / 8;
    for (std::size_t i = 0; i < significant; ++i) {
      state_ ^= (v >> (8 * i)) & 0xFF;
      state_ *= kPrime;
    }
    state_ *= kPrimePowers[8 - significant];
  }
  void str(const std::string& s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  /// kPrimePowers[n] = kPrime^n mod 2^64.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{1};
    for (std::size_t n = 1; n < powers.size(); ++n) powers[n] = powers[n - 1] * kPrime;
    return powers;
  }();

  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

[[nodiscard]] std::uint64_t dataset_content_digest(const RbacDataset& dataset);
[[nodiscard]] std::uint64_t dataset_content_digest(const IncrementalAuditor& state);

}  // namespace rolediet::core
