//===-- server/Client.h - JSONL RPC client connection -----------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Client half of the JSONL RPC protocol: a blocking TCP connection that
/// sends one request line and reads one response line per call(). Shared
/// by shrinkray_batch's -connect mode and bench_service's load-generator
/// threads.
///
/// submitAndWait() is the convenience most callers want: it submits with
/// retry-on-backpressure (sleeping out `rejected: quota` retry hints,
/// backing off on `rejected: queue_full`) and then re-issues bounded
/// waits until the job lands — exactly the client behavior the server's
/// admission control is designed against.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SERVER_CLIENT_H
#define SHRINKRAY_SERVER_CLIENT_H

#include "server/Protocol.h"

#include <cstdint>
#include <optional>
#include <string>

namespace shrinkray {
namespace server {

/// One job's result as seen over the wire.
struct RemoteOutcome {
  std::string Status; ///< "ok", "cache-hit", "cancelled", "failed"
  struct Program {
    std::string Sexp;
    double Cost = 0.0;
  };
  std::vector<Program> Programs;
  double QueueSec = 0.0;
  double RunSec = 0.0;
  std::string Error; ///< diagnostic when Status == "failed"

  bool ok() const { return Status != "failed"; }
};

/// A blocking JSONL RPC connection. Not thread-safe — one connection per
/// client thread (connections are cheap; the server is one thread per
/// connection anyway).
class ClientConnection {
public:
  ClientConnection() = default;
  ~ClientConnection();
  ClientConnection(ClientConnection &&O) noexcept;
  ClientConnection &operator=(ClientConnection &&O) noexcept;
  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Connects to 127.0.0.1-ish \p Host : \p Port . Returns false (with
  /// diagnostic) on failure.
  bool connect(const std::string &Host, uint16_t Port, std::string &Error);
  bool connected() const { return Fd >= 0; }
  void close();

  /// Sends the hello handshake establishing \p Client as the quota
  /// identity.
  bool hello(const std::string &Client, std::string &Error);

  /// One round trip: encodes \p R, sends it, reads one response line,
  /// parses it. nullopt (with diagnostic) on transport or parse failure.
  std::optional<JsonValue> call(const Request &R, std::string &Error);

  /// Submits with backpressure retries, then waits (re-issuing bounded
  /// waits on server-side timeouts). \p Deadline fields ride on \p R.
  /// nullopt on transport failure or when \p MaxAttempts backpressure
  /// refusals pass without an admit.
  std::optional<RemoteOutcome> submitAndWait(const Request &Submit,
                                             std::string &Error,
                                             size_t MaxAttempts = 100);

  /// Parses a wait/poll done-response into a RemoteOutcome.
  static std::optional<RemoteOutcome> outcomeFrom(const JsonValue &Resp);

private:
  bool sendLine(const std::string &Line, std::string &Error);
  bool recvLine(std::string &Line, std::string &Error);

  int Fd = -1;
  std::string Buf;
};

} // namespace server
} // namespace shrinkray

#endif // SHRINKRAY_SERVER_CLIENT_H
