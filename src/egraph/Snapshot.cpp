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
///   u32 NumNodes                   -- node-table size, dead nodes included
///   per node, ascending id:
///     Op, u32 Arity, u32 Child[Arity]
///     u32 Home                     -- class the node entered (< NumIds)
///     varint StampDelta            -- creation stamp minus the previous
///                                     node's (stamps never decrease along
///                                     the table; each <= Gen)
///   u32 NumLiveClasses
///   per live class, ascending id:
///     u32 Id
///     analysis: u8 HasConst, f64 Const, u8 IsInt
///     u32 NumNodes,   each: u32 NodeId
///     u32 NumParents, each: u32 NodeId
///   u64 DirtyLogLen, each entry: u64 Gen, u32 ClassId
///
/// E-nodes are stored with their *raw* (possibly stale, non-canonical)
/// child ids: queries canonicalize through find() on the fly, so
/// preserving the raw forms — rather than re-canonicalizing during
/// serialization — keeps restore + continue bit-identical to an
/// uninterrupted run. Parent entries are node ids, and dead nodes (dropped
/// from their class by repair's dedupe) are kept because parent entries
/// may still name them. The hash-consing memo and the operator-head index
/// are not stored: both are functions of the node and class tables and
/// are rebuilt during restore (their query results are order-insensitive
/// — classesWithOp() sorts, and which of several congruent nodes keys a
/// memo form does not matter: its class is the same), as is each class's
/// head-kind mask. Node creation stamps are stored: restoring them as
/// "new" would let the first incremental search after restore re-find
/// standing matches the uninterrupted run skips, shifting match-limit
/// counts. A stamp is a small delta from its predecessor, hence varint.
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
///   '4'  one node table (delta/varint stamps, home classes); classes
///        and parent entries list node ids
constexpr char SnapshotMagicPrefix[7] = {'S', 'R', 'A', 'Y', 'E', 'G', 'R'};
constexpr char SnapshotVersion = '4';

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

  W.u32(static_cast<uint32_t>(Nodes.size()));
  uint64_t PrevStamp = 0;
  for (ENodeId N = 0; N < Nodes.size(); ++N) {
    W.node(Nodes[N]);
    W.u32(NodeHome[N]);
    assert(NodeGens[N] >= PrevStamp && "node stamps decrease along the table");
    W.varint(NodeGens[N] - PrevStamp);
    PrevStamp = NodeGens[N];
  }

  W.u32(static_cast<uint32_t>(LiveClasses));
  for (EClassId Id : classIds()) {
    const EClass &C = Classes[Id];
    W.u32(Id);
    W.u8(C.Data.NumConst.has_value() ? 1 : 0);
    W.f64(C.Data.NumConst.value_or(0.0));
    W.u8(C.Data.NumIsInt ? 1 : 0);
    W.u32(static_cast<uint32_t>(C.Nodes.size()));
    for (ENodeId N : C.Nodes)
      W.u32(N);
    W.u32(static_cast<uint32_t>(C.Parents.size()));
    for (ENodeId P : C.Parents)
      W.u32(P);
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

  const uint32_t NumNodes = R.u32();
  // Minimum node: 1-byte op kind + 4-byte arity + 4-byte home + 1-byte
  // stamp delta.
  if (!R.ok() || !R.fits(NumNodes, 10))
    return "truncated snapshot payload";
  std::vector<ENode> NewNodes;
  std::vector<EClassId> NewHome;
  std::vector<uint64_t> NewGens;
  NewNodes.reserve(NumNodes);
  NewHome.reserve(NumNodes);
  NewGens.reserve(NumNodes);
  uint64_t Stamp = 0;
  for (uint32_t N = 0; N < NumNodes; ++N) {
    std::optional<ENode> Node = R.node(NumIds, Err);
    if (!Node)
      return Err.empty() ? "truncated e-node" : Err;
    const uint32_t Home = R.u32();
    if (!R.ok())
      return "truncated snapshot payload";
    if (Home >= NumIds)
      return "node home class out of range";
    const uint64_t Delta = R.varint();
    if (!R.ok())
      return "truncated or malformed node stamp";
    if (Delta > SnapGen - Stamp)
      return "node stamp beyond generation counter";
    Stamp += Delta;
    NewNodes.push_back(std::move(*Node));
    NewHome.push_back(Home);
    NewGens.push_back(Stamp);
  }

  const uint32_t NumLive = R.u32();
  if (!R.ok())
    return "truncated snapshot payload";
  if (NumLive > NumIds)
    return "live-class count exceeds id space";

  std::vector<EClass> NewClasses(NumIds);
  std::vector<uint8_t> IsLive(NumIds, 0);
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
    IsLive[Id] = 1;

    EClass &C = NewClasses[Id];
    C.Id = Id;
    bool HasConst = R.u8() != 0;
    double Const = R.f64();
    bool IsInt = R.u8() != 0;
    if (HasConst) {
      if (std::isnan(Const))
        return "NaN class constant";
      C.Data.NumConst = Const;
    }
    C.Data.NumIsInt = IsInt;

    uint32_t NumMembers = R.u32();
    if (!R.ok() || !R.fits(NumMembers, sizeof(uint32_t)))
      return "truncated snapshot payload";
    C.Nodes.reserve(NumMembers);
    for (uint32_t M = 0; M < NumMembers; ++M) {
      const uint32_t N = R.u32();
      if (!R.ok() || N >= NumNodes)
        return "class node id out of range";
      C.Kinds |= opKindBit(NewNodes[N].kind());
      C.Nodes.push_back(N);
    }
    NewLiveNodes += C.Nodes.size();

    uint32_t NumParents = R.u32();
    if (!R.ok() || !R.fits(NumParents, sizeof(uint32_t)))
      return "truncated snapshot payload";
    C.Parents.reserve(NumParents);
    for (uint32_t P = 0; P < NumParents; ++P) {
      const uint32_t N = R.u32();
      if (!R.ok() || N >= NumNodes)
        return "parent node id out of range";
      C.Parents.push_back(N);
    }
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
    if (!IsLive[NewUF.find(Id)])
      return "id resolves to a dead class";

  std::unordered_map<Op, std::vector<EClassId>> NewOpIndex;
  for (uint32_t Id = 0; Id < NumIds; ++Id)
    for (ENodeId N : NewClasses[Id].Nodes)
      NewOpIndex[NewNodes[N].Operator].push_back(Id);

  UF = std::move(NewUF);
  Classes = std::move(NewClasses);
  Nodes = std::move(NewNodes);
  NodeHome = std::move(NewHome);
  NodeGens = std::move(NewGens);
  OpIndex = std::move(NewOpIndex);
  Worklist.clear();
  DirtyLog = std::move(NewLog);
  Gen = SnapGen;
  DirtyFloor = SnapFloor;
  PreparedGen = 0;
  LiveClasses = NumLive;
  LiveNodes = NewLiveNodes;
  rebuildMemo();

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
    Nodes.clear();
    NodeHome.clear();
    NodeGens.clear();
    Memo.clear();
    MemoCount = 0;
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
