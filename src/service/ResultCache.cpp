//===-- service/ResultCache.cpp - Content-addressed result cache ----------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprinting and the disk format behind ResultCache. One entry is a
/// small text file:
///
///   shrinkray-result-cache v1
///   key <48 hex>
///   programs <N>
///   <cost as 16 raw IEEE hex digits> <canonical s-expression>   (N lines)
///
/// Writes go to `<path>.tmp.<pid>` and are renamed into place, so
/// concurrent processes sharing a cache directory see either the old file
/// or the complete new one. Any parse failure on read — wrong header,
/// key mismatch (a hash collision or a renamed file), bad cost bits, an
/// s-expression that no longer parses — degrades to a cache miss.
///
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

#include "cad/Sexp.h"
#include "support/Hashing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#ifndef _WIN32
#include <unistd.h>
#endif

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

} // namespace

std::string CacheKey::hex() const {
  return hex16(InputHash) + hex16(RulesFp) + hex16(OptionsFp);
}

uint64_t service::ruleDatabaseFingerprint(const std::vector<Rewrite> &Rules) {
  Fnv1a F;
  F.u64(Rules.size());
  for (const Rewrite &R : Rules) {
    F.str(R.name());
    F.str(printSexp(R.lhs().term()));
  }
  return F.hash();
}

uint64_t service::optionsFingerprint(const SynthesisOptions &Opts) {
  Fnv1a F;
  // Options-fingerprint schema version. Bump it whenever the same options
  // can give different programs, so that entries from older builds miss.
  // 3: suffix sites of a list that fits are no longer solved, which can
  // change ranks 2-5.
  // 4: fold-intro adds a Union spine's whole list in one step, so spines
  // longer than the iteration fuel used to reach now give whole loops.
  F.u64(4);
  F.u64(Opts.Limits.IterLimit)
      .u64(Opts.Limits.NodeLimit)
      .f64(Opts.Limits.TimeLimitSec)
      .u64(Opts.Limits.MatchLimit)
      .u64(Opts.Limits.BanLengthIters);
  F.f64(Opts.Solver.Epsilon)
      .f64(Opts.Solver.TrigR2Floor)
      .u64(static_cast<uint64_t>(Opts.Solver.MaxNiceDenominator));
  F.u64(Opts.TopK)
      .u64(static_cast<uint64_t>(Opts.Cost))
      .u64(Opts.EnableLoopInference)
      .u64(Opts.EnableIrregular)
      .u64(Opts.EnableListSorting)
      .u64(Opts.MaxFoldSites);
  return F.hash();
}

CacheKey service::makeCacheKey(const TermPtr &FlatInput, uint64_t RulesFp,
                               const SynthesisOptions &Opts) {
  CacheKey Key;
  Key.InputHash = FlatInput->valueHash();
  Key.RulesFp = RulesFp;
  Key.OptionsFp = optionsFingerprint(Opts);
  return Key;
}

ResultCache::ResultCache(std::string Dir)
    : ResultCache(std::move(Dir), Limits()) {}

ResultCache::ResultCache(std::string Dir, Limits Lim)
    : Dir(std::move(Dir)), Lim(Lim) {}

void ResultCache::insertMemLocked(const std::string &Hex,
                                  const std::vector<RankedTerm> &Programs) {
  auto It = Mem.find(Hex);
  if (It != Mem.end()) {
    It->second->second = Programs;
    MemList.splice(MemList.begin(), MemList, It->second);
    return;
  }
  MemList.emplace_front(Hex, Programs);
  Mem[Hex] = MemList.begin();
  while (Lim.MaxMemEntries != 0 && Mem.size() > Lim.MaxMemEntries) {
    Mem.erase(MemList.back().first);
    MemList.pop_back();
    ++St.MemEvictions;
  }
}

std::string ResultCache::pathFor(const CacheKey &Key) const {
  return Dir + "/" + Key.hex() + ".srres";
}

namespace {

/// Parses one disk entry into \p Programs; any malformed line is a
/// refusal (the caller treats it as a miss). Pure: no cache state.
bool readEntryFile(const std::string &Path, const std::string &Hex,
                   std::vector<RankedTerm> &Programs) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  if (!std::getline(In, Line) || Line != "shrinkray-result-cache v1" ||
      !std::getline(In, Line) || Line != "key " + Hex ||
      !std::getline(In, Line) || Line.rfind("programs ", 0) != 0)
    return false;
  size_t N = 0;
  {
    std::istringstream Count(Line.substr(strlen("programs ")));
    if (!(Count >> N) || N > 10000)
      return false;
  }
  Programs.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line) || Line.size() < 18 || Line[16] != ' ')
      return false;
    const std::string CostHex = Line.substr(0, 16);
    char *End = nullptr;
    uint64_t CostBits = std::strtoull(CostHex.c_str(), &End, 16);
    if (End != CostHex.c_str() + 16)
      return false; // bad cost bits: the whole field must be hex
    RankedTerm P;
    std::memcpy(&P.Cost, &CostBits, sizeof P.Cost);
    if (std::isnan(P.Cost))
      return false;
    ParseResult R = parseSexp(std::string_view(Line).substr(17));
    if (!R)
      return false;
    P.T = R.Value;
    Programs.push_back(std::move(P));
  }
  return true;
}

} // namespace

std::optional<std::vector<RankedTerm>>
ResultCache::lookup(const CacheKey &Key) {
  const std::string Hex = Key.hex();
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Mem.find(Hex);
    if (It != Mem.end()) {
      ++St.Hits;
      MemList.splice(MemList.begin(), MemList, It->second);
      return It->second->second;
    }
    if (Dir.empty()) {
      ++St.Misses;
      return std::nullopt;
    }
  }

  // Disk probe outside the lock: a slow filesystem must not serialize
  // other workers' in-memory hits. Two threads racing the same cold key
  // both read the file — benign, last insert wins with equal content.
  std::vector<RankedTerm> Programs;
  const bool Read = readEntryFile(pathFor(Key), Hex, Programs);
  std::lock_guard<std::mutex> Lock(M);
  if (!Read) {
    ++St.Misses;
    return std::nullopt;
  }
  ++St.Hits;
  ++St.DiskHits;
  insertMemLocked(Hex, Programs);
  return Programs;
}

void ResultCache::store(const CacheKey &Key,
                        const std::vector<RankedTerm> &Programs) {
  const std::string Hex = Key.hex();
  bool Sweep = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++St.Stores;
    insertMemLocked(Hex, Programs);
    // Budget enforcement is amortized: every 16th store sweeps, so a
    // steady stream of stores keeps the directory near its budget
    // without paying a directory scan per store.
    if (!Dir.empty() && (Lim.MaxDiskBytes != 0 || Lim.MaxAgeSec != 0.0))
      Sweep = ++StoresSinceSweep >= 16;
    if (Sweep)
      StoresSinceSweep = 0;
  }
  if (Dir.empty())
    return;

  std::ostringstream Os;
  Os << "shrinkray-result-cache v1\n"
     << "key " << Hex << "\n"
     << "programs " << Programs.size() << "\n";
  for (const RankedTerm &P : Programs) {
    uint64_t CostBits;
    std::memcpy(&CostBits, &P.Cost, sizeof CostBits);
    Os << hex16(CostBits) << " " << printSexp(P.T) << "\n";
  }
  const std::string Bytes = Os.str();

  // File write outside the lock (see lookup): the tmp-name + rename
  // protocol already tolerates concurrent writers of the same key.
  const std::string Path = pathFor(Key);
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return; // cache degrades to memory-only; synthesis already succeeded

  // Unique per process *and* thread: with the lock no longer covering
  // the write, two workers storing the same key must not share a tmp.
  const std::string Tmp =
      Path + ".tmp." +
      std::to_string(static_cast<unsigned long>(
#ifdef _WIN32
          0
#else
          ::getpid()
#endif
          )) +
      "." +
      std::to_string(std::hash<std::thread::id>()(std::this_thread::get_id()));
  bool Written = false;
  {
    std::ofstream Out(Tmp, std::ios::trunc | std::ios::binary);
    if (Out) {
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      Written = Out.good();
    }
  }
  if (Written)
    std::filesystem::rename(Tmp, Path, Ec);
  // Failed writes and failed renames both clean up the tmp: a long-lived
  // service on a flaky disk must not accumulate orphans.
  if (!Written || Ec)
    std::filesystem::remove(Tmp, Ec);
  if (Sweep)
    sweepDisk();
}

void ResultCache::sweepDisk() {
  if (Dir.empty() || (Lim.MaxDiskBytes == 0 && Lim.MaxAgeSec == 0.0))
    return;
  namespace fs = std::filesystem;

  struct DiskEntry {
    fs::path Path;
    fs::file_time_type Written;
    uintmax_t Bytes = 0;
    bool IsTmp = false;
  };
  std::vector<DiskEntry> Entries;
  uintmax_t TotalBytes = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path P = It->path();
    const std::string Name = P.filename().string();
    DiskEntry E;
    E.Path = P;
    E.IsTmp = Name.find(".srres.tmp.") != std::string::npos;
    if (!E.IsTmp && P.extension() != ".srres")
      continue; // never touch files the cache did not write
    std::error_code St1, St2;
    E.Written = fs::last_write_time(P, St1);
    E.Bytes = fs::file_size(P, St2);
    if (St1 || St2)
      continue; // raced a concurrent delete/rename; skip this file
    if (!E.IsTmp)
      TotalBytes += E.Bytes;
    Entries.push_back(std::move(E));
  }

  const auto Now = fs::file_time_type::clock::now();
  auto ageSec = [&](const DiskEntry &E) {
    return std::chrono::duration<double>(Now - E.Written).count();
  };
  // Oldest first, so the byte budget trims in LRU-by-mtime order.
  std::sort(Entries.begin(), Entries.end(),
            [](const DiskEntry &A, const DiskEntry &B) {
              return A.Written < B.Written;
            });

  size_t Removed = 0;
  for (const DiskEntry &E : Entries) {
    const bool Expired = Lim.MaxAgeSec != 0.0 && ageSec(E) > Lim.MaxAgeSec;
    const bool OverBudget =
        !E.IsTmp && Lim.MaxDiskBytes != 0 && TotalBytes > Lim.MaxDiskBytes;
    // Tmp files are only ever age-swept: a fresh one may belong to a
    // writer that is about to rename it into place.
    if (!(Expired || OverBudget))
      continue;
    std::error_code Rm;
    if (!fs::remove(E.Path, Rm) || Rm)
      continue; // concurrent writer won the race; its entry is current
    if (!E.IsTmp) {
      TotalBytes -= E.Bytes;
      ++Removed;
    }
  }
  if (Removed != 0) {
    std::lock_guard<std::mutex> Lock(M);
    St.DiskEvictions += Removed;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}
