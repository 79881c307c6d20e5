//===-- egraph/SnapshotCodec.h - Snapshot payload codec ---------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian payload codec shared by every serialized warm-start
/// artifact: the e-graph snapshot (Snapshot.cpp), the Runner's resume
/// cursors (Runner.cpp), the extraction-engine state (Extract.cpp), and the
/// service snapshot-tier entry envelope (service/ResultCache.cpp). One codec
/// means one set of bounds-checking rules: every reader getter reports
/// failure through ok() instead of running past the buffer, and the Op /
/// ENode decoders validate kinds, arities, and id ranges so corrupt bytes
/// degrade to diagnostics rather than tripping constructor asserts.
///
/// Project-internal header — not part of any public API surface.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_SNAPSHOTCODEC_H
#define SHRINKRAY_EGRAPH_SNAPSHOTCODEC_H

#include "egraph/EGraph.h"
#include "support/Hashing.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace shrinkray {
namespace snapcodec {

inline uint64_t fnv1a(std::string_view Bytes) {
  return Fnv1a().bytes(Bytes.data(), Bytes.size()).hash();
}

/// Append-only little-endian payload writer.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  /// LEB128: seven bits per byte, low group first, high bit = more.
  void varint(uint64_t V) {
    for (; V >= 0x80; V >>= 7)
      u8(static_cast<uint8_t>(V | 0x80));
    u8(static_cast<uint8_t>(V));
  }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S.data(), S.size());
  }

  void op(const Op &O) {
    u8(static_cast<uint8_t>(O.kind()));
    switch (O.kind()) {
    case OpKind::Int:
      u64(static_cast<uint64_t>(O.intValue()));
      break;
    case OpKind::Float:
      f64(O.floatValue());
      break;
    case OpKind::OpRef:
      u8(static_cast<uint8_t>(O.referencedOp()));
      break;
    case OpKind::Var:
    case OpKind::External:
    case OpKind::PatVar:
      str(O.symbol().str());
      break;
    default:
      break; // payload-free
    }
  }

  void node(const ENode &N) {
    op(N.Operator);
    u32(static_cast<uint32_t>(N.arity()));
    for (EClassId Kid : N.children())
      u32(Kid);
  }

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  void raw(const void *P, size_t N) {
    Buf.append(static_cast<const char *>(P), N);
  }
  std::string Buf;
};

/// Bounds-checked payload reader. Every getter reports failure through
/// ok(); callers bail out once at convenient points (reads after a
/// failure return zeros and never run past the buffer).
class Reader {
public:
  explicit Reader(std::string Bytes) : Buf(std::move(Bytes)) {}

  bool ok() const { return Ok; }
  bool atEnd() const { return Pos == Buf.size(); }
  size_t remaining() const { return Buf.size() - Pos; }
  /// Byte offset of the next read. Lets structure-aware fuzzers (the
  /// snapshot suite's back-reference forger) locate a field they just
  /// read so they can corrupt it in a copy of the buffer.
  size_t pos() const { return Pos; }

  /// True when \p Count elements of at least \p MinBytes each could
  /// still fit in the unread payload. Every count field is checked this
  /// way *before* sizing a container from it, so a corrupt-but-
  /// checksummed count degrades to a diagnostic instead of a wild
  /// allocation (std::bad_alloc would escape the deserializer).
  bool fits(uint64_t Count, uint64_t MinBytes) const {
    return Count <= remaining() / MinBytes;
  }

  uint8_t u8() {
    uint8_t V = 0;
    raw(&V, sizeof V);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, sizeof V);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, sizeof V);
    return V;
  }
  /// Decodes a Writer::varint. Fails on more than ten bytes or a value
  /// past 64 bits.
  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      const uint8_t B = u8();
      if (!Ok)
        return 0;
      if (Shift == 63 && B > 1)
        break; // bits past the 64th
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
    Ok = false;
    return 0;
  }
  double f64() {
    uint64_t Bits = u64();
    double V = 0;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!Ok || Buf.size() - Pos < N) {
      Ok = false;
      return {};
    }
    std::string S = Buf.substr(Pos, N);
    Pos += N;
    return S;
  }

  /// Decodes an Op; sets \p Err (and fails the reader) on an invalid
  /// kind/payload instead of tripping Op's constructor asserts.
  std::optional<Op> op(std::string &Err) {
    uint8_t KindByte = u8();
    if (!Ok || KindByte >= NumOpKinds) {
      Err = "invalid operator kind";
      Ok = false;
      return std::nullopt;
    }
    OpKind K = static_cast<OpKind>(KindByte);
    switch (K) {
    case OpKind::Int:
      return Op::makeInt(static_cast<int64_t>(u64()));
    case OpKind::Float: {
      double V = f64();
      if (std::isnan(V)) {
        Err = "NaN float literal";
        Ok = false;
        return std::nullopt;
      }
      return Op::makeFloat(V);
    }
    case OpKind::OpRef: {
      uint8_t Ref = u8();
      if (!Ok || Ref >= NumOpKinds || !isBoolOp(static_cast<OpKind>(Ref))) {
        Err = "OpRef to a non-boolean operator";
        Ok = false;
        return std::nullopt;
      }
      return Op::makeOpRef(static_cast<OpKind>(Ref));
    }
    case OpKind::Var:
      return Op::makeVar(Symbol(str()));
    case OpKind::External:
      return Op::makeExternal(Symbol(str()));
    case OpKind::PatVar:
      return Op::makePatVar(Symbol(str()));
    default:
      return Op(K);
    }
  }

  /// Decodes an ENode; validates arity against the operator and child ids
  /// against \p NumIds.
  std::optional<ENode> node(uint32_t NumIds, std::string &Err) {
    std::optional<Op> O = op(Err);
    if (!O)
      return std::nullopt;
    uint32_t Arity = u32();
    int Fixed = opArity(O->kind());
    if (!Ok || (Fixed >= 0 && static_cast<uint32_t>(Fixed) != Arity) ||
        Arity > NumIds) {
      Err = "e-node arity out of range";
      Ok = false;
      return std::nullopt;
    }
    EClassId Inline[ENode::InlineArity];
    std::vector<EClassId> Spilled; // only for nodes wider than inline
    EClassId *Kids = Inline;
    if (Arity > ENode::InlineArity) {
      Spilled.resize(Arity);
      Kids = Spilled.data();
    }
    for (uint32_t I = 0; I < Arity; ++I) {
      uint32_t Kid = u32();
      if (!Ok || Kid >= NumIds) {
        Err = "e-node child id out of range";
        Ok = false;
        return std::nullopt;
      }
      Kids[I] = Kid;
    }
    return ENode(std::move(*O), Kids, Arity);
  }

  /// Fails the reader with \p Err unless already failed.
  void fail() { Ok = false; }

private:
  // GCC's -Wmaybe-uninitialized cannot see that the size() guard keeps the
  // memcpy inside the string's initialized bytes (it models the SSO union
  // as partially uninitialized), and flags some inlined call chains. The
  // guard is the bounds proof; suppress the false positive locally.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void raw(void *P, size_t N) {
    if (!Ok || Buf.size() - Pos < N) {
      Ok = false;
      return;
    }
    std::memcpy(P, Buf.data() + Pos, N);
    Pos += N;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  std::string Buf;
  size_t Pos = 0;
  bool Ok = true;
};

} // namespace snapcodec
} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_SNAPSHOTCODEC_H
