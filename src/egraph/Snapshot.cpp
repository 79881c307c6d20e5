//===-- egraph/Snapshot.cpp - E-graph snapshot serialization --------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EGraph::serialize / EGraph::deserialize: byte-exact snapshot and
/// warm-start restore of the whole logical e-graph state. The format is a
/// fixed header (magic, version, payload length, FNV-1a checksum) over one
/// flat payload:
///
///   u32 NumIds                     -- union-find size == class-table size
///   u32 RawParent[NumIds]          -- verbatim forest slots (compression
///                                     state included, so find() chains are
///                                     identical after restore)
///   u64 Gen, u64 DirtyFloor
///   u32 NumLiveClasses
///   per live class, ascending id:
///     u32 Id
///     analysis: u8 HasConst, f64 Const, u8 IsInt
///     u32 NumNodes,   each: Op, u32 Arity, u32 Child[Arity]
///     u32 NumStamps,  each: u64 NodeGen  -- == NumNodes, each <= Gen
///     u32 NumParents, each: parent ENode (same encoding), u32 ParentClass
///   u64 DirtyLogLen, each entry: u64 Gen, u32 ClassId
///
/// E-nodes and parent entries are stored with their *raw* (possibly stale,
/// non-canonical) child ids: queries canonicalize through find() on the
/// fly, so preserving the raw forms — rather than re-canonicalizing during
/// serialization — is what makes restore + continue bit-identical to an
/// uninterrupted run. The hash-consing memo and the operator-head index
/// are not stored: both are pure functions of the class tables and are
/// rebuilt during restore (their query results are order-insensitive —
/// classesWithOp() sorts, memo values are find()'d on use), as is each
/// class's head-kind mask. Node creation stamps are stored: restoring them
/// as "new" would let the first incremental search after restore re-find
/// standing matches the uninterrupted run skips, shifting match-limit
/// counts.
///
/// Ops serialize by kind tag plus payload; Symbol payloads serialize as
/// their spellings because intern ids are process-local.
///
/// deserialize() never asserts on malformed bytes: every length, id, kind,
/// and cross-reference is validated and a diagnostic returned instead, so
/// a truncated or bit-flipped snapshot file degrades to a clean error.
///
//===----------------------------------------------------------------------===//

#include "egraph/EGraph.h"
#include "egraph/SnapshotCodec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

using namespace shrinkray;

namespace {

using snapcodec::Reader;
using snapcodec::Writer;
using snapcodec::fnv1a;

/// Header: a 7-byte format prefix followed by one format-version byte.
/// Bumping the version is how incompatible payload changes are shipped:
/// deserialize() rejects any other version with a distinct diagnostic, so
/// stale snapshot-tier blobs written by an older build degrade to clean
/// cache misses instead of misparses. Version history:
///   '1'  PR 5 original payload
///   '2'  identical payload; bumped with the warm-start tier so resume
///        consumers can trust that cursor/extraction blobs paired with the
///        graph were produced by a resume-aware writer
///   '3'  per-node creation stamps after each class's e-nodes
constexpr char SnapshotMagicPrefix[7] = {'S', 'R', 'A', 'Y', 'E', 'G', 'R'};
constexpr char SnapshotVersion = '3';

} // namespace

void EGraph::serialize(std::ostream &Os) const {
  assert(!isDirty() && "serialize on an unrebuilt graph");

  Writer W;
  const uint32_t NumIds = static_cast<uint32_t>(Classes.size());
  W.u32(NumIds);
  for (uint32_t Id = 0; Id < NumIds; ++Id)
    W.u32(UF.rawParent(Id));
  W.u64(Gen);
  W.u64(DirtyFloor);

  W.u32(static_cast<uint32_t>(LiveClasses));
  for (uint32_t Id = 0; Id < NumIds; ++Id) {
    const EClass *C = Classes[Id].get();
    if (!C)
      continue;
    W.u32(Id);
    W.u8(C->Data.NumConst.has_value() ? 1 : 0);
    W.f64(C->Data.NumConst.value_or(0.0));
    W.u8(C->Data.NumIsInt ? 1 : 0);
    W.u32(static_cast<uint32_t>(C->Nodes.size()));
    for (const ENode &N : C->Nodes)
      W.node(N);
    W.u32(static_cast<uint32_t>(C->NodeGens.size()));
    for (size_t I = 0; I < C->NodeGens.size(); ++I)
      W.u64(C->NodeGens[I]);
    W.u32(static_cast<uint32_t>(C->Parents.size()));
    for (const auto &[PNode, PClass] : C->Parents) {
      W.node(PNode);
      W.u32(PClass);
    }
  }

  W.u64(DirtyLog.size());
  for (const auto &[G_, Id] : DirtyLog) {
    W.u64(G_);
    W.u32(Id);
  }

  const std::string &Payload = W.bytes();
  uint64_t Size = Payload.size();
  uint64_t Hash = fnv1a(Payload);
  Os.write(SnapshotMagicPrefix, sizeof SnapshotMagicPrefix);
  Os.write(&SnapshotVersion, 1);
  Os.write(reinterpret_cast<const char *>(&Size), sizeof Size);
  Os.write(reinterpret_cast<const char *>(&Hash), sizeof Hash);
  Os.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
}

std::string EGraph::deserialize(std::istream &Is) {
  if (!Classes.empty() || Gen != 0)
    return "deserialize target must be a fresh e-graph";

  // --- Header: magic, length, checksum --------------------------------
  char Magic[sizeof SnapshotMagicPrefix + 1];
  if (!Is.read(Magic, sizeof Magic) ||
      std::memcmp(Magic, SnapshotMagicPrefix, sizeof SnapshotMagicPrefix) != 0)
    return "not an e-graph snapshot (bad magic)";
  if (Magic[sizeof SnapshotMagicPrefix] != SnapshotVersion)
    return "unsupported e-graph snapshot format version";
  uint64_t Size = 0, Hash = 0;
  if (!Is.read(reinterpret_cast<char *>(&Size), sizeof Size) ||
      !Is.read(reinterpret_cast<char *>(&Hash), sizeof Hash))
    return "truncated snapshot header";
  if (Size > (uint64_t(1) << 36))
    return "snapshot payload length implausible";
  // Chunked read: memory grows only with bytes that actually arrive, so
  // a corrupted (but sub-cap) length field fails with a diagnostic at
  // the stream's real end instead of throwing bad_alloc up front.
  std::string Payload;
  for (uint64_t Left = Size; Left > 0;) {
    const size_t N =
        static_cast<size_t>(std::min<uint64_t>(Left, uint64_t(1) << 22));
    const size_t Old = Payload.size();
    Payload.resize(Old + N);
    if (!Is.read(Payload.data() + Old, static_cast<std::streamsize>(N)))
      return "truncated snapshot payload";
    Left -= N;
  }
  if (fnv1a(Payload) != Hash)
    return "snapshot checksum mismatch";

  // --- Payload --------------------------------------------------------
  Reader R(std::move(Payload));
  std::string Err;

  const uint32_t NumIds = R.u32();
  if (!R.fits(NumIds, sizeof(uint32_t)))
    return "id count exceeds payload";
  std::vector<EClassId> RawParents(NumIds);
  for (uint32_t Id = 0; Id < NumIds; ++Id) {
    RawParents[Id] = R.u32();
    if (RawParents[Id] >= NumIds && R.ok())
      return "union-find parent out of range";
  }
  // Every chain must reach a root (no cycles): resolve iteratively with a
  // visited-state array so validation is linear.
  {
    std::vector<uint8_t> State(NumIds, 0); // 0 new, 1 on stack, 2 done
    std::vector<uint32_t> Stack;
    for (uint32_t Id = 0; Id < NumIds && R.ok(); ++Id) {
      uint32_t Cur = Id;
      while (State[Cur] == 0 && RawParents[Cur] != Cur) {
        State[Cur] = 1;
        Stack.push_back(Cur);
        Cur = RawParents[Cur];
        if (State[Cur] == 1)
          return "union-find cycle";
      }
      State[Cur] = 2;
      for (uint32_t S : Stack)
        State[S] = 2;
      Stack.clear();
    }
  }

  const uint64_t SnapGen = R.u64();
  const uint64_t SnapFloor = R.u64();
  if (SnapFloor > SnapGen && R.ok())
    return "dirty floor beyond generation counter";

  const uint32_t NumLive = R.u32();
  if (!R.ok())
    return "truncated snapshot payload";
  if (NumLive > NumIds)
    return "live-class count exceeds id space";

  std::vector<std::unique_ptr<EClass>> NewClasses(NumIds);
  uint32_t PrevId = 0;
  bool FirstClass = true;
  size_t NewLiveNodes = 0;
  for (uint32_t I = 0; I < NumLive; ++I) {
    uint32_t Id = R.u32();
    if (!R.ok() || Id >= NumIds)
      return "class id out of range";
    if (!FirstClass && Id <= PrevId)
      return "class ids not strictly ascending";
    FirstClass = false;
    PrevId = Id;
    if (RawParents[Id] != Id)
      return "live class is not a union-find root";

    auto C = std::make_unique<EClass>();
    C->Id = Id;
    bool HasConst = R.u8() != 0;
    double Const = R.f64();
    bool IsInt = R.u8() != 0;
    if (HasConst) {
      if (std::isnan(Const))
        return "NaN class constant";
      C->Data.NumConst = Const;
    }
    C->Data.NumIsInt = IsInt;

    uint32_t NumNodes = R.u32();
    // Minimum e-node encoding: 1-byte op kind + 4-byte arity.
    if (!R.ok() || !R.fits(NumNodes, 5))
      return "truncated snapshot payload";
    C->Nodes.reserve(NumNodes);
    for (uint32_t N = 0; N < NumNodes; ++N) {
      std::optional<ENode> Node = R.node(NumIds, Err);
      if (!Node)
        return Err.empty() ? "truncated e-node" : Err;
      C->Kinds |= opKindBit(Node->kind());
      C->Nodes.push_back(std::move(*Node));
    }
    NewLiveNodes += C->Nodes.size();

    uint32_t NumStamps = R.u32();
    if (!R.ok() || NumStamps != NumNodes)
      return "node stamp count differs from node count";
    if (!R.fits(NumStamps, sizeof(uint64_t)))
      return "truncated snapshot payload";
    for (uint32_t N = 0; N < NumStamps; ++N) {
      const uint64_t Stamp = R.u64();
      if (Stamp > SnapGen && R.ok())
        return "node stamp beyond generation counter";
      C->NodeGens.push_back(Stamp);
    }

    uint32_t NumParents = R.u32();
    // Minimum parent encoding: an e-node (5) + a 4-byte class id.
    if (!R.ok() || !R.fits(NumParents, 9))
      return "truncated snapshot payload";
    C->Parents.reserve(NumParents);
    for (uint32_t P = 0; P < NumParents; ++P) {
      std::optional<ENode> Node = R.node(NumIds, Err);
      if (!Node)
        return Err.empty() ? "truncated parent e-node" : Err;
      uint32_t PClass = R.u32();
      if (!R.ok() || PClass >= NumIds)
        return "parent class id out of range";
      C->Parents.emplace_back(std::move(*Node), PClass);
    }
    NewClasses[Id] = std::move(C);
  }

  const uint64_t LogLen = R.u64();
  // Each entry is a u64 generation + u32 class id.
  if (!R.ok() || !R.fits(LogLen, 12))
    return "truncated snapshot payload";
  std::vector<std::pair<uint64_t, EClassId>> NewLog;
  NewLog.reserve(LogLen);
  uint64_t PrevGen = 0;
  for (uint64_t I = 0; I < LogLen; ++I) {
    uint64_t G_ = R.u64();
    uint32_t Id = R.u32();
    if (!R.ok())
      return "truncated dirty log";
    if (G_ <= PrevGen || G_ > SnapGen)
      return "dirty-log generations not strictly ascending";
    if (Id >= NumIds)
      return "dirty-log class id out of range";
    PrevGen = G_;
    NewLog.emplace_back(G_, Id);
  }
  if (!R.ok() || !R.atEnd())
    return "trailing bytes after snapshot payload";

  // --- Cross-validate and rebuild the derived indexes -----------------
  // Install the forest first so canonicalize()/find() work below; all
  // remaining failures still leave *this empty (reset before returning).
  UnionFind NewUF;
  NewUF.restoreRaw(std::move(RawParents));
  for (uint32_t Id = 0; Id < NumIds; ++Id)
    if (!NewClasses[NewUF.find(Id)])
      return "id resolves to a dead class";

  std::unordered_map<ENode, EClassId, ENodeHash> NewMemo;
  std::unordered_map<Op, std::vector<EClassId>> NewOpIndex;
  for (uint32_t Id = 0; Id < NumIds; ++Id) {
    const EClass *C = NewClasses[Id].get();
    if (!C)
      continue;
    for (const ENode &N : C->Nodes) {
      ENode Canon = N;
      for (EClassId &Kid : Canon.Children)
        Kid = NewUF.find(Kid);
      auto [It, Inserted] = NewMemo.emplace(std::move(Canon), Id);
      if (!Inserted && It->second != Id)
        return "congruent e-nodes in distinct classes";
      NewOpIndex[N.Operator].push_back(Id);
    }
  }

  UF = std::move(NewUF);
  Classes = std::move(NewClasses);
  Memo = std::move(NewMemo);
  OpIndex = std::move(NewOpIndex);
  Worklist.clear();
  DirtyLog = std::move(NewLog);
  Gen = SnapGen;
  DirtyFloor = SnapFloor;
  PreparedGen = 0;
  LiveClasses = NumLive;
  LiveNodes = NewLiveNodes;

  // Full structural cross-validation. The checksum is integrity, not
  // authenticity: a decodable payload can still describe an inconsistent
  // graph (a parent list missing a real edge, congruent nodes the memo
  // rebuild happened not to collide, a parent entry naming the wrong
  // class). Those must be rejected here as the contract promises, not
  // discovered as silently-wrong saturation later. Same asymptotic cost
  // as the memo rebuild above, O(nodes * arity). (Analysis *values* are
  // trusted as stored — recomputing joined constants across cycles is
  // not reconstructible from the final state.)
  std::string Inv = checkInvariants();
  if (!Inv.empty()) {
    UF = UnionFind();
    Classes.clear();
    Memo.clear();
    OpIndex.clear();
    DirtyLog.clear();
    Gen = 0;
    DirtyFloor = 0;
    LiveClasses = 0;
    LiveNodes = 0;
    return "inconsistent snapshot graph: " + Inv;
  }
  return "";
}
