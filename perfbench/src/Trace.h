//===-- perfbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
///
/// \file
/// Spans the benchmark records around each public call it makes into a
/// layer of the program: name, start, end, parent span and job id. Spans
/// stay in memory and are written out once, when the run ends. A disabled
/// tracer records nothing, so untimed and timed code paths are the same.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  double Start = 0.0; ///< seconds since the tracer was made
  double End = 0.0;
  int64_t Parent = -1; ///< index of the enclosing span; -1 at the root
  uint64_t Job = 0;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span and returns its id; -1 when disabled. \p Name must
  /// outlive the tracer (a string literal).
  int64_t open(const char *Name, uint64_t Job, int64_t Parent) {
    if (!Enabled)
      return -1;
    double Now = now();
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({Name, Now, Now, Parent, Job});
    return static_cast<int64_t>(Spans.size() - 1);
  }

  void close(int64_t Id) {
    if (Id < 0)
      return;
    double Now = now();
    std::lock_guard<std::mutex> Lock(M);
    Spans[static_cast<size_t>(Id)].End = Now;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Spans.size();
  }

  /// Writes every span as one JSON line; returns false on an I/O error.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%lld,\"job\":%llu}\n",
                   I, S.Name, S.Start, S.End, static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Job));
    }
    return std::fclose(F) == 0;
  }

private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Epoch)
        .count();
  }

  const bool Enabled;
  const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  mutable std::mutex M; ///< guards Spans
  std::vector<Span> Spans;
};

/// Records one span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Job, int64_t Parent = -1)
      : T(T), Id(T.open(Name, Job, Parent)) {}
  ~ScopedSpan() { T.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t id() const { return Id; }

private:
  Tracer &T;
  const int64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
