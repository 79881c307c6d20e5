//===-- perfbench/src/Served.h - Requests over a TCP server -----*- C++ -*-===//
///
/// \file
/// Runs a ShrinkRay server (server::Server over a TCP listener on
/// 127.0.0.1) in a child process and sends it requests from a fixed pool of
/// client connections: request lists open-loop (each request sent when it
/// is due, and timed from then), or single requests closed-loop.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVED_H
#define PERFBENCH_SERVED_H

#include "Generator.h"
#include "Trace.h"

#include "server/Client.h"

#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// What one request came back with, as the client saw it.
struct ServedOutcome {
  /// Protocol status ("ok", "cache-hit", "cancelled", "failed"), or
  /// "rejected" / "error" when the request never ran.
  std::string Status = "error";
  std::string Error;
  double LatencySec = 0.0; ///< from when it was due to the answer
  double ClientSec = 0.0;  ///< from when it was sent to the answer
  double LateSec = 0.0;    ///< from when it was due to when it was sent
  double QueueSec = 0.0;   ///< server-side wait for a worker
  double RunSec = 0.0;     ///< server-side run time
  std::vector<std::string> Programs; ///< returned s-expressions, best first
};

/// Server-side counters from the `stats` op.
struct ServerCounters {
  double Frames = 0, BadFrames = 0, RejectedQuota = 0, Rejected = 0;
  double CacheHits = 0, CacheMisses = 0, SnapshotHits = 0;

  /// What was counted since \p Before.
  ServerCounters operator-(const ServerCounters &Before) const {
    return {Frames - Before.Frames,           BadFrames - Before.BadFrames,
            RejectedQuota - Before.RejectedQuota, Rejected - Before.Rejected,
            CacheHits - Before.CacheHits,     CacheMisses - Before.CacheMisses,
            SnapshotHits - Before.SnapshotHits};
  }
};

/// Runs a server on \p Port until the process is killed: the body of the
/// `perfbench --serve PORT` child process.
int serveForever(uint16_t Port);

/// A server in a child process (`perfbench --serve PORT`, so its memory is
/// not the harness's) on an ephemeral local port, plus \p Connections
/// connected, greeted clients. Destruction stops the child and waits for it.
class ServedHarness {
public:
  explicit ServedHarness(size_t Connections);
  ~ServedHarness();
  ServedHarness(const ServedHarness &) = delete;
  ServedHarness &operator=(const ServedHarness &) = delete;

  /// Empty when the server is up and every client connected.
  const std::string &error() const { return Error; }

  /// Sends every request and returns the outcomes in request order.
  /// \p WallSec is the time from the first due time to the last answer.
  std::vector<ServedOutcome> run(const std::vector<ServedRequest> &Requests,
                                 bool OpenLoop, Tracer &T, double &WallSec);

  /// Sends one request on the first connection and waits for its answer.
  ServedOutcome send(const ServedRequest &Q, uint64_t Job, Tracer &T);

  /// The server's counters, read over the first connection.
  std::optional<ServerCounters> counters();

  /// Stops the server; returns its peak resident set in MB.
  double stop();

private:
  pid_t Child = -1;
  std::vector<shrinkray::server::ClientConnection> Clients;
  std::string Error;
};

} // namespace perfbench

#endif // PERFBENCH_SERVED_H
