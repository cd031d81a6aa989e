//===-- support/Hash.h - Streaming FNV-1a hashing ---------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming 64-bit hasher (word-at-a-time FNV-1a variant with
/// a murmur-style finalizer) for fingerprinting generated text, such as
/// the fuzz generator's seed-stability check. Not cryptographic.
/// Length-prefixing every string keeps field boundaries unambiguous so
/// ("ab","c") and ("a","bc") hash differently.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_HASH_H
#define DMM_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace dmm {

class Hasher {
public:
  /// Mixes one 64-bit word — the FNV-1a step applied to the word as a
  /// unit. Every input funnels through here, so throughput is one
  /// multiply per 8 bytes instead of per byte.
  void word(uint64_t V) { H = (H ^ V) * 0x100000001b3ull; }

  void bytes(const void *Data, size_t Size) {
    const char *P = static_cast<const char *>(Data);
    size_t N = Size;
    while (N >= 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      word(W);
      P += 8;
      N -= 8;
    }
    if (N != 0) {
      uint64_t Tail = 0;
      std::memcpy(&Tail, P, N);
      word(Tail);
    }
  }

  void u8(uint8_t V) { word(V); }
  void u32(uint32_t V) { word(V); }
  void u64(uint64_t V) { word(V); }

  void str(std::string_view S) {
    word(S.size());
    bytes(S.data(), S.size());
  }

  uint64_t value() const {
    // FNV's multiply only diffuses upward, so fold the high bits back
    // down before the value is compared or truncated.
    uint64_t V = H;
    V ^= V >> 33;
    V *= 0xff51afd7ed558ccdull;
    V ^= V >> 33;
    return V;
  }

private:
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a 64-bit offset basis.
};

/// One-shot hash for bulk buffers. Word-at-a-time FNV-1a variant with
/// a murmur-style finalizer: one multiply per 8 bytes instead of per
/// byte. Produces different values than the streaming Hasher — the
/// two are never mixed on the same datum.
inline uint64_t hashBytes(std::string_view Data) {
  uint64_t H = 0xcbf29ce484222325ull ^ (Data.size() * 0x100000001b3ull);
  const char *P = Data.data();
  size_t N = Data.size();
  while (N >= 8) {
    uint64_t Word;
    std::memcpy(&Word, P, 8);
    H = (H ^ Word) * 0x100000001b3ull;
    P += 8;
    N -= 8;
  }
  uint64_t Tail = 0;
  if (N != 0) {
    std::memcpy(&Tail, P, N);
    H = (H ^ Tail) * 0x100000001b3ull;
  }
  // Finalizer: FNV's multiply only diffuses upward, so fold the high
  // bits back down before the value is truncated or compared.
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  return H;
}

} // namespace dmm

#endif // DMM_SUPPORT_HASH_H
