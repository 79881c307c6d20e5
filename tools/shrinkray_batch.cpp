//===-- tools/shrinkray_batch.cpp - Concurrent batch synthesis ------------===//
//
// Batch front end of the synthesis service: synthesize a whole directory
// of models (and/or the built-in 16-model bench corpus) on a fixed worker
// pool, with the content-addressed result cache short-circuiting repeats.
//
//   shrinkray_batch [options] [path...]
//
//   Each path is a file or a directory; directories are scanned
//   (non-recursively) for *.scad (OpenSCAD subset, flattened by the
//   frontend) and *.sexp (LambdaCAD s-expression, flattened when it
//   contains loops), in sorted order so job numbering is deterministic.
//
//   Options:
//     -models        also enqueue the 16 built-in Table 1 bench models
//     -j N           worker threads (default 4; 1 = sequential)
//     -cache DIR     persist the result cache in DIR (survives reruns)
//     -no-cache      disable the result cache entirely
//     -deadline S    per-job wall-clock budget in seconds (cooperative;
//                    an expired job returns its partial result)
//     -k N           top-k programs per job (default 5)
//     -cost size|loops   extraction cost (default size)
//     -out DIR       write each job's best program to DIR/<name>.sexp
//     -quiet         suppress the per-job table (summary only)
//     -connect HOST:PORT   submit every job to a running shrinkray_serve
//                    instead (the network client; same -out tree)
//
//   Exit status: 0 when every job succeeded (cache hits and deadline
//   cancellations count as success — they returned a result), 1 when any
//   job failed, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "models/Models.h"
#include "server/Client.h"
#include "service/SynthesisService.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

struct BatchOptions {
  std::vector<std::string> Paths;
  bool Models = false;
  size_t Workers = 4;
  std::string CacheDir;
  bool NoCache = false;
  ResultCache::Limits CacheLimits;
  double DeadlineSec = 0.0;
  std::string OutDir;
  SynthesisOptions Synth;
  bool Quiet = false;
  /// -connect HOST:PORT: submit to a running shrinkray_serve instead of
  /// an in-process service. Worker/cache flags are server-side then.
  std::string ConnectHost;
  uint16_t ConnectPort = 0;
  std::string ClientName = "shrinkray_batch";
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [path...]\n"
      "  paths: *.scad / *.sexp files, or directories of them\n"
      "  -models            also run the 16 built-in bench models\n"
      "  -j N               worker threads (default 4)\n"
      "  -cache DIR         persistent result-cache directory\n"
      "  -no-cache          disable the result cache\n"
      "  -cache-mem N       keep at most N results in memory (LRU)\n"
      "  -cache-disk-mb N   sweep the cache dir towards N MiB\n"
      "  -cache-age S       sweep cache entries older than S seconds\n"
      "  -deadline S        per-job budget in seconds\n"
      "  -k N               top-k programs (default 5)\n"
      "  -cost size|loops   extraction cost (default size)\n"
      "  -out DIR           write each best program to DIR/<name>.sexp\n"
      "  -quiet             summary only\n"
      "  -connect HOST:PORT submit to a running shrinkray_serve instead\n"
      "                     of synthesizing in-process (worker and cache\n"
      "                     flags then belong to the server)\n"
      "  -client NAME       quota identity for -connect (default\n"
      "                     shrinkray_batch)\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, BatchOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "-models") {
      Opts.Models = true;
    } else if (Arg == "-j") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Workers = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "-cache") {
      const char *V = next();
      if (!V)
        return false;
      Opts.CacheDir = V;
    } else if (Arg == "-no-cache") {
      Opts.NoCache = true;
    } else if (Arg == "-cache-mem") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.CacheLimits.MaxMemEntries = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "-cache-disk-mb") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.CacheLimits.MaxDiskBytes =
          static_cast<uintmax_t>(std::atoi(V)) * 1024 * 1024;
    } else if (Arg == "-cache-age") {
      const char *V = next();
      if (!V || std::atof(V) <= 0)
        return false;
      Opts.CacheLimits.MaxAgeSec = std::atof(V);
    } else if (Arg == "-deadline") {
      const char *V = next();
      if (!V || std::atof(V) <= 0)
        return false;
      Opts.DeadlineSec = std::atof(V);
    } else if (Arg == "-k") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Synth.TopK = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "-cost") {
      const char *V = next();
      if (!V)
        return false;
      if (std::strcmp(V, "size") == 0)
        Opts.Synth.Cost = CostKind::AstSize;
      else if (std::strcmp(V, "loops") == 0)
        Opts.Synth.Cost = CostKind::RewardLoops;
      else
        return false;
    } else if (Arg == "-out") {
      const char *V = next();
      if (!V)
        return false;
      Opts.OutDir = V;
    } else if (Arg == "-quiet") {
      Opts.Quiet = true;
    } else if (Arg == "-connect") {
      const char *V = next();
      if (!V)
        return false;
      std::string Spec = V;
      size_t Colon = Spec.rfind(':');
      if (Colon == std::string::npos || Colon == 0 || Colon + 1 >= Spec.size())
        return false;
      int Port = std::atoi(Spec.c_str() + Colon + 1);
      if (Port < 1 || Port > 65535)
        return false;
      Opts.ConnectHost = Spec.substr(0, Colon);
      Opts.ConnectPort = static_cast<uint16_t>(Port);
    } else if (Arg == "-client") {
      const char *V = next();
      if (!V)
        return false;
      Opts.ClientName = V;
    } else if (Arg == "-h" || Arg == "--help") {
      return false;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Opts.Paths.push_back(Arg);
    }
  }
  return true;
}

bool hasExt(const std::filesystem::path &P, const char *Ext) {
  return P.extension() == Ext;
}

/// Collects job specs from the command-line paths: files directly,
/// directories by sorted non-recursive scan. Never throws: filesystem
/// races (a file vanishing mid-scan) surface through \p Error, not
/// std::terminate.
bool collectJobs(const BatchOptions &Opts, std::vector<JobSpec> &Jobs,
                 std::string &Error) try {
  std::vector<std::filesystem::path> Files;
  for (const std::string &P : Opts.Paths) {
    std::error_code Ec;
    if (std::filesystem::is_directory(P, Ec)) {
      for (const auto &Entry : std::filesystem::directory_iterator(P, Ec)) {
        std::error_code EntryEc;
        if (Entry.is_regular_file(EntryEc) &&
            (hasExt(Entry.path(), ".scad") || hasExt(Entry.path(), ".sexp")))
          Files.push_back(Entry.path());
      }
      if (Ec) {
        Error = "cannot scan directory " + P + ": " + Ec.message();
        return false;
      }
    } else if (std::filesystem::is_regular_file(P, Ec)) {
      Files.push_back(P);
    } else {
      Error = "no such file or directory: " + P;
      return false;
    }
  }
  std::sort(Files.begin(), Files.end());

  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    if (!In) {
      Error = "cannot open " + F.string();
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    JobSpec Spec;
    Spec.Name = F.stem().string();
    Spec.Source = Buf.str();
    Spec.SourceIsScad = hasExt(F, ".scad");
    Jobs.push_back(std::move(Spec));
  }

  if (Opts.Models)
    for (const models::BenchmarkModel &M : models::allModels()) {
      JobSpec Spec;
      Spec.Name = M.Name;
      Spec.Input = M.FlatCsg;
      Jobs.push_back(std::move(Spec));
    }
  return true;
} catch (const std::filesystem::filesystem_error &E) {
  Error = E.what();
  return false;
}

const char *statusStr(JobOutcome::Status St) {
  switch (St) {
  case JobOutcome::Status::CacheHit:
    return "cache-hit";
  case JobOutcome::Status::Succeeded:
    return "ok";
  case JobOutcome::Status::Cancelled:
    return "deadline";
  case JobOutcome::Status::Failed:
    return "FAILED";
  }
  return "?";
}

/// A file-system-safe spelling of a job name (model names contain ':').
std::string safeName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '/' || C == ':' || C == '\\')
      C = '_';
  return Out;
}

/// -connect mode: the same job list, pushed through a JSONL RPC
/// connection to a running shrinkray_serve. The -out tree it writes is
/// byte-identical to the in-process path's (same names, same best
/// program per job) — the CI differential depends on that.
int runRemote(const BatchOptions &Opts, std::vector<JobSpec> &Specs) {
  server::ClientConnection Conn;
  std::string Error;
  if (!Conn.connect(Opts.ConnectHost, Opts.ConnectPort, Error) ||
      !Conn.hello(Opts.ClientName, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  const auto Start = std::chrono::steady_clock::now();
  size_t Failed = 0, Cancelled = 0, Hits = 0;
  std::set<std::string> UsedOutNames;
  if (!Opts.Quiet)
    std::printf("%-28s | %-9s | %8s %8s | %8s\n", "job", "status", "queue(s)",
                "run(s)", "programs");
  for (size_t I = 0; I < Specs.size(); ++I) {
    const JobSpec &Spec = Specs[I];
    server::Request R;
    R.K = server::Request::Kind::Submit;
    R.Name = Spec.Name;
    // The wire carries program text only; built-in models ship as their
    // flat-CSG s-expression, which parses back to the same term.
    R.Source = Spec.Input ? printSexp(Spec.Input) : Spec.Source;
    R.SourceIsScad = Spec.Input ? false : Spec.SourceIsScad;
    R.TopK = Opts.Synth.TopK;
    R.Cost = Opts.Synth.Cost;
    R.DeadlineSec = Opts.DeadlineSec;
    std::optional<server::RemoteOutcome> Out = Conn.submitAndWait(R, Error);
    if (!Out) {
      std::fprintf(stderr, "error: %s: %s\n", Spec.Name.c_str(),
                   Error.c_str());
      return 1;
    }
    if (Out->Status == "failed")
      ++Failed;
    else if (Out->Status == "cancelled")
      ++Cancelled;
    else if (Out->Status == "cache-hit")
      ++Hits;
    if (!Opts.Quiet) {
      std::printf("%-28s | %-9s | %8.3f %8.3f | %8zu\n", Spec.Name.c_str(),
                  Out->Status.c_str(), Out->QueueSec, Out->RunSec,
                  Out->Programs.size());
      if (!Out->Error.empty())
        std::printf("  error: %s\n", Out->Error.c_str());
    }
    if (!Opts.OutDir.empty() && !Out->Programs.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Opts.OutDir, Ec);
      std::string Stem = safeName(Spec.Name);
      if (!UsedOutNames.insert(Stem).second) {
        Stem += "-" + std::to_string(I);
        UsedOutNames.insert(Stem);
      }
      std::ofstream F(Opts.OutDir + "/" + Stem + ".sexp");
      if (F)
        F << Out->Programs.front().Sexp << "\n";
    }
  }
  double WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  std::printf("\n%zu jobs via %s:%u in %.2fs (%.2f jobs/s): %zu ok, "
              "%zu cache hits, %zu deadline-cancelled, %zu failed\n",
              Specs.size(), Opts.ConnectHost.c_str(), Opts.ConnectPort,
              WallSec,
              WallSec > 0 ? static_cast<double>(Specs.size()) / WallSec : 0.0,
              Specs.size() - Failed - Cancelled - Hits, Hits, Cancelled,
              Failed);
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  BatchOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(Argv[0]);
    return 2;
  }
  if (Opts.Paths.empty() && !Opts.Models) {
    std::fprintf(stderr, "error: no inputs (give paths and/or -models)\n");
    usage(Argv[0]);
    return 2;
  }

  std::vector<JobSpec> Specs;
  std::string Error;
  if (!collectJobs(Opts, Specs, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "error: no *.scad / *.sexp inputs found\n");
    return 1;
  }

  if (!Opts.ConnectHost.empty())
    return runRemote(Opts, Specs);

  ServiceConfig Cfg;
  Cfg.NumWorkers = Opts.Workers;
  Cfg.CacheDir = Opts.CacheDir;
  Cfg.EnableCache = !Opts.NoCache;
  Cfg.CacheLimits = Opts.CacheLimits;
  SynthesisService Service(Cfg);

  const auto Start = std::chrono::steady_clock::now();
  std::vector<std::string> Names;
  std::vector<SynthesisService::JobId> Ids;
  Names.reserve(Specs.size());
  Ids.reserve(Specs.size());
  for (JobSpec &Spec : Specs) {
    Spec.Options = Opts.Synth;
    Spec.DeadlineSec = Opts.DeadlineSec;
    Names.push_back(Spec.Name);
    Ids.push_back(Service.submit(std::move(Spec)));
  }

  size_t Failed = 0, Cancelled = 0, Hits = 0;
  std::set<std::string> UsedOutNames;
  if (!Opts.Quiet)
    std::printf("%-28s | %-9s | %8s %8s | %8s | %5s\n", "job", "status",
                "queue(s)", "run(s)", "programs", "best");
  for (size_t I = 0; I < Ids.size(); ++I) {
    const JobOutcome &Out = Service.wait(Ids[I]);
    const std::string &Name = Names[I];
    switch (Out.St) {
    case JobOutcome::Status::Failed:
      ++Failed;
      break;
    case JobOutcome::Status::Cancelled:
      ++Cancelled;
      break;
    case JobOutcome::Status::CacheHit:
      ++Hits;
      break;
    case JobOutcome::Status::Succeeded:
      break;
    }
    if (!Opts.Quiet) {
      std::string Best = "-";
      if (!Out.Result.Programs.empty())
        Best = std::to_string(termSize(Out.Result.Programs.front().T));
      std::printf("%-28s | %-9s | %8.3f %8.3f | %8zu | %5s\n", Name.c_str(),
                  statusStr(Out.St), Out.QueueSec, Out.RunSec,
                  Out.Result.Programs.size(), Best.c_str());
      if (Out.St == JobOutcome::Status::Failed)
        std::printf("  error: %s\n", Out.Error.c_str());
    }
    if (!Opts.OutDir.empty() && !Out.Result.Programs.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Opts.OutDir, Ec);
      // Sanitized names can collide (a.scad + a.sexp, "x:y" vs "x_y"):
      // suffix repeats with the job index so no result silently
      // overwrites another.
      std::string Stem = safeName(Name);
      if (!UsedOutNames.insert(Stem).second) {
        Stem += "-" + std::to_string(I);
        UsedOutNames.insert(Stem);
      }
      std::ofstream F(Opts.OutDir + "/" + Stem + ".sexp");
      if (F)
        F << printSexp(Out.Result.Programs.front().T) << "\n";
    }
  }
  double WallSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  ResultCache::Stats CS = Service.cache().stats();
  std::printf("\n%zu jobs on %zu workers in %.2fs (%.2f jobs/s): %zu ok, "
              "%zu cache hits, %zu deadline-cancelled, %zu failed\n",
              Ids.size(), Service.numWorkers(), WallSec,
              WallSec > 0 ? static_cast<double>(Ids.size()) / WallSec : 0.0,
              Ids.size() - Failed - Cancelled - Hits, Hits, Cancelled,
              Failed);
  std::printf("cache: %zu hits (%zu from disk), %zu misses, %zu stores, "
              "%zu evicted (%zu mem, %zu disk)\n",
              CS.Hits, CS.DiskHits, CS.Misses, CS.Stores,
              CS.MemEvictions + CS.DiskEvictions, CS.MemEvictions,
              CS.DiskEvictions);
  return Failed == 0 ? 0 : 1;
}
