//===-- service/ResultCache.h - Content-addressed result cache --*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of synthesis results, so the service layer
/// never repeats work it has already done. A cached entry is addressed by
/// three fingerprints:
///
///  * the *value fingerprint* of the input term — Int/Float respellings
///    of the same model hit the same entry, and symbols contribute their
///    spellings rather than process-local interning ids, so the key is
///    stable across the processes a disk cache is shared between,
///  * the *rule-database fingerprint* (rule names + left-hand-side
///    patterns + order), so a rule change invalidates every entry rather
///    than serving programs a different database produced (rules with
///    programmatic right-hand sides must be renamed when their appliers
///    change semantics — the applier itself is not hashable), and
///  * the *options fingerprint* over every result-relevant knob of
///    SynthesisOptions (fuel, solver band, cost, top-k, ...). Knobs that
///    cannot change results are deliberately excluded: NumThreads
///    (saturation is bit-identical at any thread count) and the
///    cancellation token (cancelled runs are never stored).
///
/// The cached value is the ranked program list; terms round-trip through
/// the canonical s-expression syntax (bit-exact) and costs through raw
/// IEEE bits, so a hit reproduces the miss's output byte for byte.
/// Entries live in memory and, when a directory is configured, as one
/// file per key — so the cache persists across processes and can be
/// shared by concurrent ones (files are written to a temporary name and
/// atomically renamed into place). All methods are thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SERVICE_RESULTCACHE_H
#define SHRINKRAY_SERVICE_RESULTCACHE_H

#include "egraph/Rewrite.h"
#include "synth/Synthesizer.h"

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace shrinkray {
namespace service {

/// Address of one cached synthesis result.
struct CacheKey {
  uint64_t InputHash = 0;   ///< stable value fingerprint of the flat input
  uint64_t RulesFp = 0;     ///< ruleDatabaseFingerprint
  uint64_t OptionsFp = 0;   ///< optionsFingerprint

  /// 48-hex-character spelling; doubles as the on-disk file stem.
  std::string hex() const;

  friend bool operator==(const CacheKey &A, const CacheKey &B) {
    return A.InputHash == B.InputHash && A.RulesFp == B.RulesFp &&
           A.OptionsFp == B.OptionsFp;
  }
};

/// Fingerprint of a rewrite-rule database: rule count, names, and
/// left-hand-side patterns, order-sensitive.
uint64_t ruleDatabaseFingerprint(const std::vector<Rewrite> &Rules);

/// Fingerprint of every SynthesisOptions field that can influence the
/// synthesized programs (see the file comment for what is excluded).
uint64_t optionsFingerprint(const SynthesisOptions &Opts);

/// Assembles the cache key for synthesizing \p FlatInput under \p Opts
/// with a rule database whose fingerprint is \p RulesFp.
CacheKey makeCacheKey(const TermPtr &FlatInput, uint64_t RulesFp,
                      const SynthesisOptions &Opts);

/// Thread-safe memory + optional-disk result cache.
class ResultCache {
public:
  struct Stats {
    size_t Hits = 0;     ///< lookups answered (memory or disk)
    size_t DiskHits = 0; ///< subset of Hits answered by reading a file
    size_t Misses = 0;
    size_t Stores = 0;
    size_t MemEvictions = 0;  ///< memory entries dropped by the LRU cap
    size_t DiskEvictions = 0; ///< entry files deleted by the disk sweep
  };

  /// Retention budgets. Zero means unbounded — the cache then behaves
  /// exactly as it did before budgets existed.
  struct Limits {
    /// Memory tier: max resident entries; least-recently-used beyond the
    /// cap are dropped (their disk twin, if any, stays readable).
    size_t MaxMemEntries = 0;
    /// Disk tier: total `.srres` bytes the sweep trims towards,
    /// oldest-first by modification time.
    uintmax_t MaxDiskBytes = 0;
    /// Disk tier: entries (and orphaned `.tmp.` files from crashed
    /// writers) older than this many seconds are swept regardless of the
    /// byte budget. Files the cache did not write are never counted or
    /// removed.
    double MaxAgeSec = 0.0;
  };

  /// \p Dir empty = memory-only; otherwise entries also persist as
  /// `<Dir>/<key>.srres` files (the directory is created on first store).
  /// (Two overloads, not one defaulted parameter: GCC rejects a `= {}`
  /// default argument of a nested aggregate with member initializers.)
  explicit ResultCache(std::string Dir = std::string());
  ResultCache(std::string Dir, Limits Lim);

  /// Enforces the disk budgets now (store() calls this on an amortized
  /// schedule; exposed so maintenance and tests can run it on demand).
  /// Deletion races benignly with concurrent writers: rename-into-place
  /// either lands before the sweep's directory scan (and is subject to
  /// it) or recreates the entry after it — never a torn file either way.
  void sweepDisk();

  /// The cached ranked programs for \p Key, or nullopt. A disk hit is
  /// promoted into memory; an unreadable or corrupt file is a miss.
  std::optional<std::vector<RankedTerm>> lookup(const CacheKey &Key);

  /// Caches \p Programs under \p Key (memory, and disk when configured).
  void store(const CacheKey &Key, const std::vector<RankedTerm> &Programs);

  Stats stats() const;

  const std::string &dir() const { return Dir; }

private:
  using MemEntry = std::pair<std::string, std::vector<RankedTerm>>;

  std::string Dir;
  Limits Lim;
  mutable std::mutex M;
  /// Memory tier: recency list (front = most recent) + key index into it.
  std::list<MemEntry> MemList;
  std::unordered_map<std::string, std::list<MemEntry>::iterator> Mem;
  Stats St;
  size_t StoresSinceSweep = 0;

  std::string pathFor(const CacheKey &Key) const;

  /// Inserts/refreshes \p Hex at the front of the recency list and
  /// applies the memory cap. Caller holds M.
  void insertMemLocked(const std::string &Hex,
                       const std::vector<RankedTerm> &Programs);
};

} // namespace service
} // namespace shrinkray

#endif // SHRINKRAY_SERVICE_RESULTCACHE_H
