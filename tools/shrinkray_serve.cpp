//===-- tools/shrinkray_serve.cpp - JSONL RPC synthesis server ------------===//
//
// The network front end of the synthesis service: a framed JSONL RPC
// server (see src/server/Protocol.h for the grammar) over stdio or TCP,
// with admission control, per-client token-bucket quotas, and graceful
// drain on SIGTERM/SIGINT.
//
//   shrinkray_serve [options]
//
//   Transport:
//     --stdio            serve one session on stdin/stdout (default)
//     --tcp PORT         serve TCP connections on 127.0.0.1:PORT
//                        (0 = ephemeral; the bound port is announced on
//                        stderr as "listening on 127.0.0.1:<port>")
//     --shard N          with --tcp: fork N server processes listening
//                        on PORT..PORT+N-1, all sharing the cache dir —
//                        the disk result cache is the shared result
//                        cache across processes. Requires PORT != 0.
//
//   Traffic management:
//     --max-queue N      admission bound on the job queue (default 64;
//                        a full queue answers `rejected: queue_full`)
//     --quota-burst B    per-client token-bucket capacity (default 0 =
//                        quotas off)
//     --quota-rate R     per-client sustained requests/sec (with
//                        --quota-burst; over-quota answers
//                        `rejected: quota` with retry_after_sec)
//     --drain-grace S    seconds a SIGTERM drain waits for in-flight
//                        jobs before cancelling them (default 20)
//
//   Service:
//     --workers N        worker threads (default 4)
//     --cache DIR        persistent result cache directory
//     --no-cache         disable the result cache
//     --verbose          log connections and drain progress
//
//   Exit: 0 after a clean drain; 1 on transport setup failure; 2 on
//   usage errors.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace shrinkray;
using namespace shrinkray::server;

namespace {

struct ServeOptions {
  bool Tcp = false;
  uint16_t Port = 0;
  size_t Shards = 1;
  ServerConfig Server;
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --stdio            serve stdin/stdout (default)\n"
      "  --tcp PORT         serve TCP on 127.0.0.1:PORT (0 = ephemeral)\n"
      "  --shard N          fork N servers on PORT..PORT+N-1 (TCP only)\n"
      "  --max-queue N      reject submits past N queued jobs (default 64)\n"
      "  --quota-burst B    per-client token-bucket capacity (0 = off)\n"
      "  --quota-rate R     per-client refill rate, requests/sec\n"
      "  --drain-grace S    drain wait for in-flight jobs (default 20)\n"
      "  --workers N        worker threads (default 4)\n"
      "  --cache DIR        persistent cache directory\n"
      "  --no-cache         disable the result cache\n"
      "  --verbose          log connections\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, ServeOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--stdio") {
      Opts.Tcp = false;
    } else if (Arg == "--tcp") {
      const char *V = next();
      if (!V || std::atoi(V) < 0 || std::atoi(V) > 65535)
        return false;
      Opts.Tcp = true;
      Opts.Port = static_cast<uint16_t>(std::atoi(V));
    } else if (Arg == "--shard") {
      const char *V = next();
      if (!V || std::atoi(V) < 1 || std::atoi(V) > 64)
        return false;
      Opts.Shards = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "--max-queue") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Server.Service.MaxQueueDepth = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "--quota-burst") {
      const char *V = next();
      if (!V || std::atof(V) < 0)
        return false;
      Opts.Server.Quota.Capacity = std::atof(V);
    } else if (Arg == "--quota-rate") {
      const char *V = next();
      if (!V || std::atof(V) < 0)
        return false;
      Opts.Server.Quota.RefillPerSec = std::atof(V);
    } else if (Arg == "--drain-grace") {
      const char *V = next();
      if (!V || std::atof(V) < 0)
        return false;
      Opts.Server.DrainGraceSec = std::atof(V);
    } else if (Arg == "--workers") {
      const char *V = next();
      if (!V || std::atoi(V) < 1)
        return false;
      Opts.Server.Service.NumWorkers = static_cast<size_t>(std::atoi(V));
    } else if (Arg == "--cache") {
      const char *V = next();
      if (!V)
        return false;
      Opts.Server.Service.CacheDir = V;
    } else if (Arg == "--no-cache") {
      Opts.Server.Service.EnableCache = false;
    } else if (Arg == "--verbose") {
      Opts.Server.Verbose = true;
    } else if (Arg == "-h" || Arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

/// The server the signal handlers forward into. Signal context only
/// stores a flag (requestStop sets an atomic), which is async-safe.
Server *ActiveServer = nullptr;

void onTermSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop();
}

int serveOne(const ServeOptions &Opts, uint16_t Port) {
  Server S(Opts.Server);
  ActiveServer = &S;
  std::signal(SIGTERM, onTermSignal);
  std::signal(SIGINT, onTermSignal);
  int Rc = Opts.Tcp ? S.runTcp(Port) : S.runStdio();
  ActiveServer = nullptr;
  return Rc;
}

/// --shard N: fork one server per shard on consecutive ports, forward
/// SIGTERM/SIGINT to the children, exit with the worst child status.
std::vector<pid_t> ShardPids;

void onLauncherSignal(int Sig) {
  for (pid_t P : ShardPids)
    if (P > 0)
      ::kill(P, Sig);
}

int runShards(const ServeOptions &Opts) {
  for (size_t I = 0; I < Opts.Shards; ++I) {
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::fprintf(stderr, "error: fork: %s\n", std::strerror(errno));
      onLauncherSignal(SIGTERM);
      return 1;
    }
    if (Pid == 0) {
      // Child: one shard, its own worker pool, the shared cache dir.
      ShardPids.clear();
      return serveOne(Opts, static_cast<uint16_t>(Opts.Port + I));
    }
    ShardPids.push_back(Pid);
  }
  std::signal(SIGTERM, onLauncherSignal);
  std::signal(SIGINT, onLauncherSignal);
  int Worst = 0;
  for (pid_t P : ShardPids) {
    int St = 0;
    if (::waitpid(P, &St, 0) < 0)
      continue;
    int Code = WIFEXITED(St) ? WEXITSTATUS(St) : 1;
    if (Code > Worst)
      Worst = Code;
  }
  return Worst;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(Argv[0]);
    return 2;
  }
  if (Opts.Shards > 1) {
    if (!Opts.Tcp || Opts.Port == 0) {
      std::fprintf(stderr,
                   "error: --shard requires --tcp with a fixed port "
                   "(children listen on PORT..PORT+N-1)\n");
      return 2;
    }
    return runShards(Opts);
  }
  return serveOne(Opts, Opts.Port);
}
