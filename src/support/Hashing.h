//===-- support/Hashing.h - Hash combinators --------------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hash-combination helpers used by the hash-consing tables in the
/// e-graph and by term structural hashing.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SUPPORT_HASHING_H
#define SHRINKRAY_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>

namespace shrinkray {

/// Mixes \p Value into \p Seed (boost::hash_combine-style, 64-bit constants).
inline void hashCombine(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Hashes each argument and folds it into a single seed.
template <typename... Ts> size_t hashAll(const Ts &...Values) {
  size_t Seed = 0;
  (hashCombine(Seed, std::hash<Ts>()(Values)), ...);
  return Seed;
}

/// Finalizing 64-bit avalanche (splitmix64's mixer): every input bit
/// affects every output bit. Pure arithmetic — stable across processes
/// and platforms, unlike std::hash — so it is safe in hashes that feed
/// on-disk cache keys. Used word-wise where the byte-wise Fnv1a below
/// would be too slow (per-node value hashing in the term interner).
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Bit-exact hash of a double. Canonicalizes -0.0 to +0.0 so that values that
/// compare equal hash equal; NaN payloads are hashed as-is (NaNs never enter
/// the e-graph, enforced by assertions at construction).
inline size_t hashDouble(double D) {
  if (D == 0.0)
    D = 0.0; // fold -0.0 into +0.0
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return std::hash<uint64_t>()(Bits);
}

/// Incremental byte-wise FNV-1a accumulator over heterogeneous input —
/// the one implementation behind the result cache's fingerprints. Stable
/// across processes and platforms of the same endianness. Not for hot
/// per-node hashing: the e-graph tables use the word-wise combinators
/// above.
class Fnv1a {
public:
  Fnv1a &bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
    return *this;
  }
  Fnv1a &u64(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
    return *this;
  }
  Fnv1a &f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    return u64(Bits);
  }
  /// Length-prefixed, so adjacent strings cannot alias ("ab","c" vs
  /// "a","bc").
  template <typename StringLike> Fnv1a &str(const StringLike &S) {
    u64(S.size());
    return bytes(S.data(), S.size());
  }
  uint64_t hash() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

} // namespace shrinkray

#endif // SHRINKRAY_SUPPORT_HASHING_H
