//===-- tests/snapshot_test.cpp - E-graph snapshot/restore ----------------===//
//
// Coverage for EGraph::serialize / EGraph::deserialize:
//
//  * byte-level round trip: restore reproduces the dump, the invariants,
//    the counters, and the dirty-cursor state (generation, log, floor);
//  * the warm-start contract on all 16 bench models: saturate partway,
//    snapshot, restore, continue — the continued run is bit-identical
//    (dump and report fingerprint) to the same two-phase run without the
//    snapshot in between;
//  * restored graphs serve incremental extraction and further queries
//    exactly like the original;
//  * corrupt input: bad magic, truncation at every structural boundary,
//    bit flips (checksum), and non-fresh targets are rejected with a
//    diagnostic, never an assert or a partially-restored graph.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "egraph/SnapshotCodec.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "service/ResultCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace shrinkray;

namespace {

TermPtr parse(const std::string &Sexp) {
  ParseResult R = parseSexp(Sexp);
  EXPECT_TRUE(R) << R.Error << " in " << Sexp;
  return R.Value;
}

std::string snapshotOf(const EGraph &G) {
  std::ostringstream Os;
  G.serialize(Os);
  return Os.str();
}

/// Restores \p Bytes into \p Out; returns the diagnostic ("" = success).
std::string restore(const std::string &Bytes, EGraph &Out) {
  std::istringstream Is(Bytes);
  return Out.deserialize(Is);
}

/// Non-timing fingerprint of a saturation report (same spirit as the
/// ruleset suite's): stop reason, per-iteration match/apply/node counts,
/// and per-rule counters.
std::string reportFingerprint(const RunnerReport &Rep) {
  std::ostringstream Os;
  Os << static_cast<int>(Rep.Stop) << ";";
  for (const IterationStats &It : Rep.Iterations)
    Os << It.Matches << "," << It.Applied << "," << It.Nodes << ","
       << It.Classes << ";";
  for (const RuleStats &RS : Rep.Rules)
    Os << RS.Name << "=" << RS.Matches << "," << RS.Applied << ","
       << RS.FullSearches << "," << RS.IncrementalSearches << "," << RS.Bans
       << ";";
  return Os.str();
}

} // namespace

TEST(Snapshot, RoundTripSmallGraph) {
  EGraph G;
  EClassId Root = G.addTerm(parse(
      "(Union (Translate (Vec3 1 2 3) Unit) (Scale (Vec3 2 2 2) Sphere))"));
  G.addTerm(parse("(Add 2 3)")); // exercises analysis constants
  G.rebuild();

  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  EXPECT_EQ(R.dump(), G.dump());
  EXPECT_EQ(R.checkInvariants(), "");
  EXPECT_EQ(R.numClasses(), G.numClasses());
  EXPECT_EQ(R.numNodes(), G.numNodes());
  EXPECT_EQ(R.generation(), G.generation());
  EXPECT_EQ(R.dirtyLogSize(), G.dirtyLogSize());
  EXPECT_EQ(R.find(Root), G.find(Root));
  // The analysis data came through: the folded constant is queryable.
  EClassId Five = *R.lookup(ENode(Op::makeInt(5), {}));
  ASSERT_TRUE(R.data(Five).NumConst.has_value());
  EXPECT_EQ(*R.data(Five).NumConst, 5.0);
}

TEST(Snapshot, NodeStampsSurviveRoundTrip) {
  // Stamps from add(), merges, repair's dedupe and constant-folded
  // literal leaves all come back verbatim, with the head-kind masks.
  EGraph G;
  G.addTerm(models::modelByName("3148599:box-tray").FlatCsg);
  G.addTerm(parse("(Add 2 3)"));
  G.rebuild();
  RunnerLimits L;
  L.IterLimit = 3;
  Runner(L).run(G, pipelineRules());

  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  ASSERT_EQ(R.classIds(), G.classIds());
  ASSERT_EQ(R.numNodeIds(), G.numNodeIds());
  bool Distinct = false;
  for (EClassId Id : G.classIds()) {
    EXPECT_EQ(R.eclass(Id).Nodes, G.eclass(Id).Nodes) << Id;
    EXPECT_EQ(R.eclass(Id).Kinds, G.eclass(Id).Kinds) << Id;
    for (ENodeId N : G.eclass(Id).Nodes)
      EXPECT_EQ(R.nodeGen(N), G.nodeGen(N)) << Id;
    Distinct = Distinct || G.nodeGen(G.eclass(Id).Nodes[0]) != 1;
  }
  EXPECT_TRUE(Distinct);
}

TEST(Snapshot, RoundTripEmptyGraph) {
  EGraph G;
  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  EXPECT_EQ(R.numClasses(), 0u);
  EXPECT_EQ(R.dump(), G.dump());
}

TEST(Snapshot, RoundTripPayloadOps) {
  // Every payload-carrying operator kind round-trips by value (symbols
  // re-intern by spelling; intern ids are process-local).
  EGraph G;
  G.addTerm(parse("(Fold Union Empty (Cons (External part7) Nil))"));
  G.addTerm(parse("(Mul (Var i) 2.5)"));
  G.rebuild();
  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  EXPECT_EQ(R.dump(), G.dump());
  EXPECT_EQ(R.checkInvariants(), "");
}

TEST(Snapshot, RestoreThenContinueIsBitIdenticalOnAllBenchModels) {
  // The warm-start contract: partial saturation, snapshot, restore,
  // continue == the identical two-phase run without the snapshot. Both
  // sides run the same Runner sequence, so the only difference is the
  // serialize/deserialize round trip in the middle.
  const std::vector<Rewrite> Rules = pipelineRules();
  const RuleSet DB(Rules);
  RunnerLimits Phase1;
  Phase1.IterLimit = 2;
  const RunnerLimits Phase2; // defaults: run to saturation

  for (const models::BenchmarkModel &M : models::allModels()) {
    SCOPED_TRACE(M.Name);

    // Uninterrupted reference: phase 1 then phase 2 on one graph.
    EGraph A;
    A.addTerm(M.FlatCsg);
    A.rebuild();
    Runner(Phase1).run(A, DB);
    RunnerReport RepA = Runner(Phase2).run(A, DB);

    // Snapshotted: phase 1, round trip, phase 2 on the restored graph.
    EGraph B;
    B.addTerm(M.FlatCsg);
    B.rebuild();
    Runner(Phase1).run(B, DB);
    EGraph C;
    ASSERT_EQ(restore(snapshotOf(B), C), "");
    ASSERT_EQ(C.dump(), B.dump());
    ASSERT_EQ(C.checkInvariants(), "");
    RunnerReport RepC = Runner(Phase2).run(C, DB);

    EXPECT_EQ(C.dump(), A.dump());
    EXPECT_EQ(reportFingerprint(RepC), reportFingerprint(RepA));
    EXPECT_EQ(C.numNodes(), A.numNodes());
    EXPECT_EQ(C.numClasses(), A.numClasses());
  }
}

TEST(Snapshot, RestoredGraphServesIncrementalExtraction) {
  // The serialized dirty-cursor state (generation counter + log) lets a
  // restored graph drive the incremental engines exactly like the
  // original: derive, mutate, refresh.
  models::BenchmarkModel M = models::modelByName("3362402:gear");
  EGraph G;
  EClassId Root = G.addTerm(M.FlatCsg);
  G.rebuild();
  RunnerLimits L;
  L.IterLimit = 3;
  Runner(L).run(G, pipelineRules());

  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  EClassId RootR = R.find(Root); // ids are preserved verbatim

  AstSizeCost Cost;
  Extractor EngG(G, Cost), EngR(R, Cost);
  ASSERT_TRUE(EngG.bestCost(G.find(Root)).has_value());
  EXPECT_EQ(*EngG.bestCost(G.find(Root)), *EngR.bestCost(RootR));
  EXPECT_TRUE(termEquals(EngG.extract(G.find(Root)), EngR.extract(RootR)));

  // Mutate both the same way; incremental refresh must agree too.
  G.addTerm(parse("(Union Unit (Translate (Vec3 7 7 7) Sphere))"));
  R.addTerm(parse("(Union Unit (Translate (Vec3 7 7 7) Sphere))"));
  G.rebuild();
  R.rebuild();
  EngG.refresh();
  EngR.refresh();
  EXPECT_EQ(*EngG.bestCost(G.find(Root)), *EngR.bestCost(RootR));
  EXPECT_EQ(G.dump(), R.dump());
}

TEST(Snapshot, TakeDirtySinceAgreesAfterRestore) {
  EGraph G;
  G.addTerm(parse("(Union (Translate (Vec3 1 0 0) Unit) Sphere)"));
  G.rebuild();
  uint64_t Mid = G.generation();
  G.addTerm(parse("(Scale (Vec3 2 2 2) Hexagon)"));
  G.rebuild();

  EGraph R;
  ASSERT_EQ(restore(snapshotOf(G), R), "");
  EXPECT_EQ(R.generation(), G.generation());
  EXPECT_EQ(R.takeDirtySince(Mid), G.takeDirtySince(Mid));
  EXPECT_EQ(R.takeDirtySince(0), G.takeDirtySince(0));
}

TEST(Snapshot, RejectsCorruptAndTruncatedInput) {
  EGraph G;
  G.addTerm(parse("(Union (Translate (Vec3 1 2 3) Unit) Sphere)"));
  G.rebuild();
  const std::string Bytes = snapshotOf(G);

  {
    // Bad magic.
    std::string Bad = Bytes;
    Bad[0] ^= 0x40;
    EGraph R;
    EXPECT_NE(restore(Bad, R), "");
    EXPECT_EQ(R.numClasses(), 0u); // target left untouched
  }
  {
    // Truncations at every prefix length: header, payload, or mid-field —
    // all must fail cleanly (and never assert or crash).
    EGraph R0;
    EXPECT_NE(restore(std::string(), R0), "");
    for (size_t Len : {size_t(4), size_t(12), size_t(23), Bytes.size() / 2,
                       Bytes.size() - 1}) {
      std::string Bad = Bytes.substr(0, Len);
      EGraph R;
      EXPECT_NE(restore(Bad, R), "") << "accepted truncation at " << Len;
      EXPECT_EQ(R.numClasses(), 0u);
    }
  }
  {
    // Payload bit flips: caught by the checksum regardless of position.
    for (size_t Pos = 24; Pos < Bytes.size(); Pos += 37) {
      std::string Bad = Bytes;
      Bad[Pos] ^= 0x01;
      EGraph R;
      EXPECT_NE(restore(Bad, R), "") << "accepted bit flip at " << Pos;
    }
  }
  {
    // A non-fresh target graph is refused outright.
    EGraph R;
    R.addTerm(parse("Unit"));
    R.rebuild();
    EXPECT_NE(restore(Bytes, R), "");
  }
}

TEST(Snapshot, RejectsHugeCountsWithValidChecksum) {
  // A corrupt count field whose payload still checksums (here: forged,
  // with the header hash recomputed) must fail with a diagnostic, not
  // attempt a multi-gigabyte allocation (std::bad_alloc would escape
  // deserialize() and kill a batch process loading a warm-start file).
  EGraph G;
  G.addTerm(parse("(Union Unit Sphere)"));
  G.rebuild();
  std::string Bytes = snapshotOf(G);

  // Payload starts at byte 24; its first u32 is the id count.
  for (size_t B = 0; B < 4; ++B)
    Bytes[24 + B] = static_cast<char>(0xff);
  // Recompute the FNV-1a header checksum over the tampered payload.
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 24; I < Bytes.size(); ++I) {
    H ^= static_cast<unsigned char>(Bytes[I]);
    H *= 1099511628211ull;
  }
  std::memcpy(&Bytes[16], &H, sizeof H);

  EGraph R;
  EXPECT_EQ(restore(Bytes, R), "id count exceeds payload");
  EXPECT_EQ(R.numClasses(), 0u);
}

TEST(Snapshot, ChecksummedHeaderDetectsLengthTampering) {
  EGraph G;
  G.addTerm(parse("(Union Unit Sphere)"));
  G.rebuild();
  std::string Bytes = snapshotOf(G);
  // Grow the declared payload length: the read runs past the real bytes.
  Bytes[8] = static_cast<char>(Bytes[8] + 1);
  EGraph R;
  EXPECT_NE(restore(Bytes, R), "");
}

TEST(Snapshot, FileRoundTrip) {
  EGraph G;
  G.addTerm(models::modelByName("3148599:box-tray").FlatCsg);
  G.rebuild();
  Runner().run(G, pipelineRules());

  const std::string Path =
      testing::TempDir() + "/shrinkray_snapshot_test.egraph";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out.good());
    G.serialize(Out);
    ASSERT_TRUE(Out.good());
  }
  EGraph R;
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  EXPECT_EQ(R.deserialize(In), "");
  EXPECT_EQ(R.dump(), G.dump());
  EXPECT_EQ(R.checkInvariants(), "");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshot-entry corruption fuzzing (the service warm-start envelope)
//===----------------------------------------------------------------------===//

namespace {

/// A realistic encoded snapshot entry: real graph bytes, real cursors,
/// real extraction-engine state, sealed behind the entry envelope — the
/// exact artifact a `.srsnap` file holds.
std::string realEntryBlob(service::SnapshotEntry *Plain = nullptr) {
  EGraph G;
  G.addTerm(models::modelByName("3148599:box-tray").FlatCsg);
  G.rebuild();
  RunnerCursors Cursors;
  RunnerLimits Lim;
  Lim.IterLimit = 3;
  Runner(Lim).run(G, RuleSet(pipelineRules()), Cursors);
  static const AstSizeCost Cost;
  KBestExtractor Engine(G, Cost, 3);

  service::SnapshotEntry E;
  E.InputHash = 0x1234;
  E.InputSexp = "(Union Unit Sphere)";
  E.Cost = CostKind::AstSize;
  E.TopK = 3;
  E.Stop = Cursors.Stop;
  E.IterationsDone = Cursors.IterationsDone;
  E.Cursors = serializeRunnerCursors(Cursors);
  E.Extract = Engine.saveState();
  {
    std::ostringstream Os;
    G.serialize(Os);
    E.Graph = std::move(Os).str();
  }
  if (Plain)
    *Plain = E;
  return service::encodeSnapshotEntry(E);
}

/// Seals graph payload \p Body behind \p Graph's magic with a fresh length
/// and checksum, decodes it, and returns the diagnostic. A failed decode
/// must leave the graph empty.
std::string decodeResealedGraph(const std::string &Graph,
                                const std::string &Body) {
  std::string Bad = Graph.substr(0, 8);
  const uint64_t Size = Body.size();
  const uint64_t H = snapcodec::fnv1a(Body);
  Bad.append(reinterpret_cast<const char *>(&Size), sizeof Size);
  Bad.append(reinterpret_cast<const char *>(&H), sizeof H);
  Bad += Body;
  EGraph Out;
  std::istringstream Is(Bad);
  std::string Diag = Out.deserialize(Is);
  if (!Diag.empty()) {
    EXPECT_EQ(Out.numClasses(), 0u);
  }
  return Diag;
}

std::string u32Bytes(uint32_t V) {
  return std::string(reinterpret_cast<const char *>(&V), sizeof V);
}

/// Deterministic 64-bit LCG (Knuth MMIX constants): the sweep must be
/// reproducible run to run, so no std::random_device / seeds from time.
struct Lcg {
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return X >> 16; // low bits of an LCG are weak
  }
};

} // namespace

// Every single-bit flip anywhere in an encoded snapshot entry must
// degrade to a diagnostic decode failure — the service treats that as a
// cache miss and runs cold — and must never crash, assert, or hand back
// a successfully-decoded entry. One envelope checksum covers the whole
// payload, so this holds no matter which inner blob the flip lands in.
TEST(SnapshotEntryFuzz, BitFlipSweepAlwaysDegradesToDecodeFailure) {
  const std::string Blob = realEntryBlob();
  Lcg Rng;
  // The header (magic, version, length, checksum) is swept exhaustively;
  // the payload is sampled — every byte is under the same checksum, so
  // position cannot matter, but the sweep proves it.
  for (size_t Pos = 0; Pos < 24; ++Pos)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Bad = Blob;
      Bad[Pos] ^= char(1u << Bit);
      service::SnapshotEntry Out;
      EXPECT_NE(service::decodeSnapshotEntry(Bad, Out), "")
          << "accepted header flip at byte " << Pos << " bit " << Bit;
    }
  for (int I = 0; I < 512; ++I) {
    const size_t Pos = 24 + Rng.next() % (Blob.size() - 24);
    const int Bit = int(Rng.next() % 8);
    std::string Bad = Blob;
    Bad[Pos] ^= char(1u << Bit);
    service::SnapshotEntry Out;
    EXPECT_NE(service::decodeSnapshotEntry(Bad, Out), "")
        << "accepted payload flip at byte " << Pos << " bit " << Bit;
  }
}

// Same contract for truncation at any length: header boundaries
// exhaustively, payload lengths sampled.
TEST(SnapshotEntryFuzz, TruncationSweepAlwaysDegradesToDecodeFailure) {
  const std::string Blob = realEntryBlob();
  Lcg Rng;
  std::vector<size_t> Lengths;
  for (size_t L = 0; L <= 32; ++L)
    Lengths.push_back(L);
  for (int I = 0; I < 256; ++I)
    Lengths.push_back(Rng.next() % (Blob.size() - 1));
  Lengths.push_back(Blob.size() - 1);
  for (size_t L : Lengths) {
    service::SnapshotEntry Out;
    EXPECT_NE(service::decodeSnapshotEntry(Blob.substr(0, L), Out), "")
        << "accepted truncation at " << L;
  }
  // Trailing garbage is also malformed (the length field pins the size).
  service::SnapshotEntry Out;
  EXPECT_NE(service::decodeSnapshotEntry(Blob + "x", Out), "");
}

// Mutations that survive the envelope (because the attacker — or a
// damaged disk sector plus a colliding checksum — re-seals it) land in
// the inner blobs, each of which carries its own checksum: a re-sealed
// flip inside the graph bytes must be rejected by EGraph::deserialize
// with a diagnostic, never a crash or a half-restored graph.
TEST(SnapshotEntryFuzz, ResealedGraphMutationsRejectedByInnerDecoder) {
  service::SnapshotEntry Plain;
  realEntryBlob(&Plain);
  Lcg Rng;
  for (int I = 0; I < 64; ++I) {
    service::SnapshotEntry Mut = Plain;
    // Flip past the graph header so the graph's own checksum (not its
    // magic check) does the rejecting on most iterations.
    const size_t Pos = Rng.next() % Mut.Graph.size();
    Mut.Graph[Pos] ^= char(1u << (Rng.next() % 8));
    const std::string Resealed = service::encodeSnapshotEntry(Mut);

    service::SnapshotEntry Out;
    ASSERT_EQ(service::decodeSnapshotEntry(Resealed, Out), "");
    EGraph R;
    std::istringstream Is(Out.Graph);
    EXPECT_NE(R.deserialize(Is), "") << "graph flip at " << Pos;
    EXPECT_EQ(R.numClasses(), 0u);
  }
}

// The k-best extract state encodes candidate structures as a pool of
// back-referencing nodes: children strictly before parents, so one
// forward pass re-interns every row and acyclicity is a decode-time
// invariant rather than a runtime check. This forger walks the real
// blob's pool, then rewrites every back-reference field to each boundary
// it must not cross — the node itself (a cycle), one past the pool, and
// the maximum encodable index — and every arity field to a huge count.
// Each forgery must be rejected with its structural diagnostic, never a
// crash, hang, or wild allocation. (Bit-flip sweeps cannot pin this
// down: a flipped reference that still points backwards decodes into a
// *different valid* pool, which is exactly why the field-aware sweep
// exists.)
TEST(SnapshotEntryFuzz, ForgedPoolBackReferencesRejected) {
  service::SnapshotEntry Plain;
  realEntryBlob(&Plain);
  EGraph G;
  {
    std::istringstream Is(Plain.Graph);
    ASSERT_EQ(G.deserialize(Is), "");
  }
  static const AstSizeCost Cost;
  std::string Err;
  ASSERT_NE(KBestExtractor::restore(G, Cost, 3, Plain.Extract, Err),
            nullptr)
      << Err;

  // Walk the blob to the structure pool, recording the byte offset
  // (within the whole blob) of every arity and child-reference field.
  snapcodec::Reader R{Plain.Extract};
  R.u32();                            // format version
  R.u64();                            // k
  R.str();                            // one-best sub-blob
  R.u64();                            // generation
  const uint32_t NumPool = R.u32();
  const size_t PoolStart = R.pos() + 4; // str(): u32 length, then bytes
  const std::string PoolBytes = R.str();
  ASSERT_TRUE(R.ok());
  ASSERT_GT(NumPool, 1u); // candidates are nested, so back-refs exist

  snapcodec::Reader PR{PoolBytes};
  std::vector<size_t> ArityOffsets;
  std::vector<std::pair<size_t, uint32_t>> RefFields; // offset, entry idx
  std::string OpErr;
  for (uint32_t I = 0; I < NumPool; ++I) {
    ASSERT_TRUE(PR.op(OpErr).has_value()) << OpErr;
    ArityOffsets.push_back(PoolStart + PR.pos());
    const uint32_t Arity = PR.u32();
    for (uint32_t A = 0; A < Arity; ++A) {
      RefFields.emplace_back(PoolStart + PR.pos(), I);
      PR.u32();
    }
    ASSERT_TRUE(PR.ok());
  }
  ASSERT_FALSE(RefFields.empty());

  auto Patched = [&](size_t Offset, uint32_t V) {
    std::string Bad = Plain.Extract;
    std::memcpy(&Bad[Offset], &V, sizeof V);
    return Bad;
  };
  for (const auto &[Offset, Entry] : RefFields)
    for (const uint32_t Forged : {Entry, NumPool, 0xffffffffu}) {
      std::string E2;
      EXPECT_EQ(KBestExtractor::restore(G, Cost, 3,
                                        Patched(Offset, Forged), E2),
                nullptr)
          << "accepted forged ref " << Forged << " at byte " << Offset;
      EXPECT_EQ(E2, "k-best pool child reference out of range");
    }
  for (const size_t Offset : ArityOffsets) {
    std::string E2;
    EXPECT_EQ(KBestExtractor::restore(G, Cost, 3,
                                      Patched(Offset, 0xffffffffu), E2),
              nullptr)
        << "accepted forged arity at byte " << Offset;
    EXPECT_EQ(E2, "k-best pool arity out of range");
  }
}

// Mutated `.srsnap` files on disk are misses, not errors: the cache
// counts them and the caller falls back to a cold run.
TEST(SnapshotEntryFuzz, CorruptDiskEntriesDegradeToMisses) {
  const std::string Blob = realEntryBlob();
  const std::string Dir = testing::TempDir() + "/srsnap_fuzz";
  std::filesystem::remove_all(Dir);

  service::CacheKey Key = service::makeSnapshotKey(
      parse("(Union Unit Sphere)"), 7, SynthesisOptions());
  service::ResultCache C(Dir);
  Lcg Rng;
  for (int I = 0; I < 16; ++I) {
    std::string Bad = Blob;
    Bad[Rng.next() % Bad.size()] ^= char(1u << (Rng.next() % 8));
    {
      std::ofstream Out(Dir + "/" + Key.hex() + ".srsnap",
                        std::ios::binary | std::ios::trunc);
      Out << Bad;
    }
    EXPECT_FALSE(C.lookupSnapshot(Key).has_value()) << "round " << I;
  }
  EXPECT_EQ(C.stats().SnapshotMisses, 16u);
  EXPECT_EQ(C.stats().SnapshotHits, 0u);
}

// Node stamps and parent ids are checked field by field, like the pool
// back-references above (a bit flip under a recomputed checksum would only
// sample them). This forger walks a real graph blob to every node's
// delta/varint stamp and every class's parent node ids, splices in a
// forgery, re-seals the blob (length and checksum), and requires the
// matching diagnostic — which the service turns into a snapshot miss.
TEST(SnapshotEntryFuzz, ForgedNodeStampsRejected) {
  service::SnapshotEntry Plain;
  realEntryBlob(&Plain);
  const std::string &Graph = Plain.Graph;
  constexpr size_t Header = 24; // magic + version, u64 length, u64 hash
  const std::string Payload = Graph.substr(Header);

  snapcodec::Reader R{Payload};
  const uint32_t NumIds = R.u32();
  for (uint32_t I = 0; I < NumIds; ++I)
    R.u32();
  const uint64_t Gen = R.u64();
  R.u64(); // dirty floor
  const uint32_t NumNodes = R.u32();
  struct Field {
    size_t Begin, End; // payload byte range
    uint64_t Before;   // stamp of the previous node (varint fields)
  };
  std::vector<Field> Stamps, ParentIds;
  std::vector<uint32_t> Leaves; // nodes without children
  std::string Err;
  uint64_t Stamp = 0;
  for (uint32_t N = 0; N < NumNodes; ++N) {
    std::optional<ENode> Node = R.node(NumIds, Err);
    ASSERT_TRUE(Node.has_value()) << Err;
    if (Node->arity() == 0)
      Leaves.push_back(N);
    R.u32(); // home class
    const size_t Begin = R.pos();
    const uint64_t Delta = R.varint();
    Stamps.push_back({Begin, R.pos(), Stamp});
    Stamp += Delta;
    ASSERT_LE(Stamp, Gen);
  }
  const uint32_t NumLive = R.u32();
  for (uint32_t C = 0; C < NumLive; ++C) {
    R.u32();
    R.u8();
    R.f64();
    R.u8();
    const uint32_t NumMembers = R.u32();
    for (uint32_t M = 0; M < NumMembers; ++M)
      ASSERT_LT(R.u32(), NumNodes);
    const uint32_t NumParents = R.u32();
    for (uint32_t P = 0; P < NumParents; ++P) {
      ParentIds.push_back({R.pos(), R.pos() + 4, 0});
      ASSERT_LT(R.u32(), NumNodes);
    }
    ASSERT_TRUE(R.ok());
  }
  ASSERT_FALSE(Stamps.empty());
  ASSERT_FALSE(ParentIds.empty());
  ASSERT_FALSE(Leaves.empty());

  // Replaces payload bytes [F.Begin, F.End) with \p Bytes and decodes.
  auto forged = [&](const Field &F, const std::string &Bytes) {
    return decodeResealedGraph(Graph, Payload.substr(0, F.Begin) + Bytes +
                                          Payload.substr(F.End));
  };
  auto varint = [](uint64_t V) {
    snapcodec::Writer W;
    W.varint(V);
    return W.take();
  };
  auto u32 = u32Bytes;

  for (const Field &F : Stamps) {
    // One past the generation counter, and the widest delta there is.
    for (const uint64_t Delta : {Gen - F.Before + 1, ~uint64_t(0)})
      EXPECT_EQ(forged(F, varint(Delta)),
                "node stamp beyond generation counter")
          << "stamp at payload byte " << F.Begin;
    // Eleven continuation bytes: longer than any 64-bit varint.
    EXPECT_EQ(forged(F, std::string(11, '\xff')),
              "truncated or malformed node stamp")
        << "stamp at payload byte " << F.Begin;
  }
  for (const Field &F : ParentIds) {
    EXPECT_EQ(forged(F, u32(NumNodes)), "parent node id out of range")
        << "parent at payload byte " << F.Begin;
    // A leaf references no class, so it is nobody's parent.
    EXPECT_EQ(forged(F, u32(Leaves[F.Begin % Leaves.size()])).rfind(
                  "inconsistent snapshot graph: ", 0),
              0u)
        << "parent at payload byte " << F.Begin;
  }
}

// The node table may hold nodes no class lists (repair's dedupe drops
// them while parent entries still name them), and the restored memo
// indexes the whole table. A forged unlisted node must not hash-cons a
// form into a class that holds no such node: appending one with a fresh
// form, or with a live node's form under another home class, is an
// inconsistent graph. A dead twin under its own class is legitimate.
TEST(SnapshotEntryFuzz, ForgedUnlistedNodesRejected) {
  service::SnapshotEntry Plain;
  realEntryBlob(&Plain);
  const std::string &Graph = Plain.Graph;
  constexpr size_t Header = 24; // magic + version, u64 length, u64 hash
  const std::string Payload = Graph.substr(Header);
  EGraph Real;
  {
    std::istringstream Is(Graph);
    ASSERT_EQ(Real.deserialize(Is), "");
  }

  snapcodec::Reader R{Payload};
  const uint32_t NumIds = R.u32();
  for (uint32_t I = 0; I < NumIds; ++I)
    R.u32();
  R.u64(); // generation
  R.u64(); // dirty floor
  const size_t CountAt = R.pos();
  const uint32_t NumNodes = R.u32();
  std::string Err;
  for (uint32_t N = 0; N < NumNodes; ++N) {
    ASSERT_TRUE(R.node(NumIds, Err).has_value()) << Err;
    R.u32(); // home class
    R.varint();
  }
  ASSERT_TRUE(R.ok());
  const size_t NodesEnd = R.pos();

  // Appends \p Node homed in \p Home (stamp delta 0) and decodes.
  auto withNode = [&](const ENode &Node, EClassId Home) {
    snapcodec::Writer W;
    W.node(Node);
    W.u32(Home);
    W.varint(0);
    return decodeResealedGraph(
        Graph, Payload.substr(0, CountAt) + u32Bytes(NumNodes + 1) +
                   Payload.substr(CountAt + 4, NodesEnd - CountAt - 4) +
                   W.take() + Payload.substr(NodesEnd));
  };
  auto rejected = [](const std::string &Diag) {
    return Diag.rfind("inconsistent snapshot graph: ", 0) == 0;
  };

  const std::vector<EClassId> Ids = Real.classIds();
  ASSERT_GE(Ids.size(), 2u);
  const EClassId A = Ids[0], B = Ids[1];
  // A fresh leaf and a fresh g(A).
  const ENode FreshLeaf(Op::makeInt(987654321), {});
  const ENode FreshApp(Op(OpKind::Union), {A, B});
  ASSERT_FALSE(Real.lookup(FreshLeaf).has_value());
  ASSERT_FALSE(Real.lookup(FreshApp).has_value());
  for (EClassId Home : {A, B}) {
    EXPECT_TRUE(rejected(withNode(FreshLeaf, Home))) << "home " << Home;
    EXPECT_TRUE(rejected(withNode(FreshApp, Home))) << "home " << Home;
  }

  // A live node's form: a twin in its own class decodes, one homed in
  // another class does not.
  size_t Twins = 0;
  for (EClassId Id : Ids) {
    const ENode Form = Real.canonicalize(Real.node(Real.eclass(Id).Nodes[0]));
    const EClassId Other = Id == A ? B : A;
    EXPECT_EQ(withNode(Form, Id), "") << "class " << Id;
    EXPECT_TRUE(rejected(withNode(Form, Other))) << "class " << Id;
    if (++Twins == 8)
      break;
  }
}

// Format-version bumps are refused up front with the "unsupported"
// family of diagnostics (distinct from corruption): a newer writer's
// files must not be half-read by an older reader.
TEST(SnapshotEntryFuzz, FormatVersionBumpsAreUnsupportedNotCorrupt) {
  // The entry envelope's version byte ("SRAYSNE1" -> "SRAYSNE2").
  std::string Blob = realEntryBlob();
  ASSERT_EQ(Blob.substr(0, 8), "SRAYSNE1");
  Blob[7] = '2';
  service::SnapshotEntry Out;
  EXPECT_EQ(service::decodeSnapshotEntry(Blob, Out),
            "unsupported snapshot entry format version");

  // The graph blob's version byte ("SRAYEGR4" -> "SRAYEGR3", the format
  // before the node table): an entry that re-seals over a downgraded graph
  // decodes, but the graph decoder refuses it before reading any further.
  service::SnapshotEntry Plain;
  realEntryBlob(&Plain);
  ASSERT_EQ(Plain.Graph.substr(0, 8), "SRAYEGR4");
  Plain.Graph[7] = '3';
  const std::string Resealed = service::encodeSnapshotEntry(Plain);
  ASSERT_EQ(service::decodeSnapshotEntry(Resealed, Out), "");
  EGraph R;
  std::istringstream Is(Out.Graph);
  EXPECT_EQ(R.deserialize(Is), "unsupported e-graph snapshot format version");
  EXPECT_EQ(R.numClasses(), 0u);
}
