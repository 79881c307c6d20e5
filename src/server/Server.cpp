//===-- server/Server.cpp - JSONL RPC front end over the service ----------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request semantics (handleFrame and the per-op handlers) plus the two
/// byte-moving transports. The transports share FdLineReader: a buffered,
/// poll-driven line reader that enforces the frame cap and wakes every
/// 200 ms to observe the stop flag, so neither EOF-less stdin nor an
/// idle socket can pin a thread through a drain.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace shrinkray;
using namespace shrinkray::server;

namespace {

/// Slice length for stop-aware blocking (reads and waits).
constexpr double kTickSec = 0.2;

/// Fully writes \p Data to \p Fd (MSG_NOSIGNAL on sockets so a peer
/// hanging up surfaces as EPIPE, not a process-killing SIGPIPE).
bool writeAll(int Fd, std::string_view Data, bool IsSocket) {
  while (!Data.empty()) {
    ssize_t N = IsSocket ? ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL)
                         : ::write(Fd, Data.data(), Data.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Buffered line reader over a file descriptor. readLine blocks in
/// kTickSec poll slices, re-checking \p StopNow between slices.
class FdLineReader {
public:
  FdLineReader(int Fd, size_t MaxFrame) : Fd(Fd), MaxFrame(MaxFrame) {}

  enum class Status { Line, Eof, Oversize, Stopped, Error };

  template <typename StopFn> Status readLine(std::string &Line, StopFn StopNow) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Line.assign(Buf, 0, Nl);
        Buf.erase(0, Nl + 1);
        if (Line.size() > MaxFrame)
          return Status::Oversize;
        return Status::Line;
      }
      if (Buf.size() > MaxFrame)
        return Status::Oversize;
      if (StopNow())
        return Status::Stopped;
      struct pollfd P;
      P.fd = Fd;
      P.events = POLLIN;
      int R = ::poll(&P, 1, static_cast<int>(kTickSec * 1000));
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return Status::Error;
      }
      if (R == 0)
        continue; // tick: loop re-checks StopNow
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return Status::Error;
      }
      if (N == 0) {
        // EOF. A final unterminated frame still gets served — stdio
        // clients that forget the last newline should not lose their
        // last request.
        if (!Buf.empty()) {
          Line = std::move(Buf);
          Buf.clear();
          if (Line.size() > MaxFrame)
            return Status::Oversize;
          return Status::Line;
        }
        return Status::Eof;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd;
  size_t MaxFrame;
  std::string Buf;
};

} // namespace

Server::Server(ServerConfig C)
    : Cfg(C), Epoch(std::chrono::steady_clock::now()), Svc(C.Service),
      Admission(C.Quota, C.MaxClients) {}

std::string Server::handleFrame(Session &S, std::string_view Line) {
  Frames.fetch_add(1, std::memory_order_relaxed);
  // Exception-proof boundary: nothing below is expected to throw (the
  // parsers are value-based), but a bad_alloc on a hostile frame must
  // still come back as a response, not a terminate.
  try {
    if (Line.size() > Cfg.MaxFrameBytes) {
      BadFrames.fetch_add(1, std::memory_order_relaxed);
      return errorResponse("", "frame exceeds " +
                                   std::to_string(Cfg.MaxFrameBytes) +
                                   " bytes");
    }
    ParsedRequest P = parseRequest(Line);
    if (!P.Ok) {
      BadFrames.fetch_add(1, std::memory_order_relaxed);
      return errorResponse(P.Op, P.Error);
    }
    return handleParsed(S, P);
  } catch (const std::exception &E) {
    BadFrames.fetch_add(1, std::memory_order_relaxed);
    return errorResponse("", std::string("internal error: ") + E.what());
  } catch (...) {
    BadFrames.fetch_add(1, std::memory_order_relaxed);
    return errorResponse("", "internal error");
  }
}

std::string Server::handleParsed(Session &S, const ParsedRequest &P) {
  const Request &R = P.Req;
  switch (R.K) {
  case Request::Kind::Hello: {
    if (R.Proto != kProtocolVersion)
      return errorResponse("hello",
                           "unsupported proto " + std::to_string(R.Proto) +
                               " (server speaks " +
                               std::to_string(kProtocolVersion) + ")");
    S.Client = R.Client.empty() ? "anon" : R.Client;
    S.SaidHello = true;
    return helloResponse(S.Client, kProtocolVersion);
  }
  case Request::Kind::Submit:
    return handleSubmit(S, R);
  case Request::Kind::Wait:
    return handleWait(R);
  case Request::Kind::Poll: {
    service::JobPhase Phase = Svc.poll(R.Job);
    if (Phase == service::JobPhase::Unknown)
      return errorResponse("poll", "unknown job id");
    if (Phase == service::JobPhase::Done) {
      // Done: the outcome is available immediately (waitFor(0) cannot
      // time out on a Done job).
      service::WaitResult W = Svc.waitFor(R.Job, 0.0);
      if (W.St == service::WaitResult::Status::Done)
        return outcomeResponse("poll", R.Job, *W.Outcome);
    }
    return pollResponse(R.Job, Phase);
  }
  case Request::Kind::Cancel:
    return cancelResponse(R.Job, Svc.cancel(R.Job));
  case Request::Kind::Stats:
    return statsResponse(statsJson());
  }
  return errorResponse("", "unhandled request kind");
}

std::string Server::handleSubmit(Session &S, const Request &R) {
  if (stopping())
    return rejectedResponse("submit", "draining", 0.0);
  AdmissionController::Decision D = Admission.admitSubmit(S.Client, nowSec());
  if (!D.Admitted)
    return rejectedResponse("submit", "quota", D.RetryAfterSec);
  service::JobSpec Spec;
  Spec.Name = R.Name.empty() ? ("client:" + S.Client) : R.Name;
  Spec.Source = R.Source;
  Spec.SourceIsScad = R.SourceIsScad;
  Spec.Options.TopK = R.TopK;
  Spec.Options.Cost = R.Cost;
  Spec.DeadlineSec = R.DeadlineSec;
  std::optional<service::SynthesisService::JobId> Id =
      Svc.trySubmit(std::move(Spec));
  if (!Id) {
    Admission.noteQueueFull(S.Client, nowSec());
    // Retry hint: a slot opens when the next running job finishes; the
    // median corpus job is sub-second, so 0.5 s is a sane poll cadence.
    return rejectedResponse("submit", stopping() ? "draining" : "queue_full",
                            0.5);
  }
  return submittedResponse(*Id);
}

std::string Server::handleWait(const Request &R) {
  double Timeout =
      R.TimeoutSec < 0.0 ? Cfg.DefaultWaitTimeoutSec : R.TimeoutSec;
  Timeout = std::min(Timeout, Cfg.MaxWaitTimeoutSec);
  // Served in stop-aware slices: a drain must not leave this thread
  // parked for the full client timeout when the job pool is already
  // being torn down.
  double Remaining = Timeout;
  for (;;) {
    double Slice = std::min(Remaining, kTickSec);
    service::WaitResult W = Svc.waitFor(R.Job, Slice);
    switch (W.St) {
    case service::WaitResult::Status::Unknown:
      return errorResponse("wait", "unknown job id");
    case service::WaitResult::Status::Done:
      return outcomeResponse("wait", R.Job, *W.Outcome);
    case service::WaitResult::Status::Timeout:
      break;
    }
    Remaining -= Slice;
    if (Remaining <= 0.0 || HardStop.load(std::memory_order_acquire))
      return waitTimeoutResponse(R.Job);
  }
}

JsonValue Server::statsJson() {
  JsonValue O = JsonValue::object();
  O.set("uptime_sec", JsonValue::number(nowSec()));
  O.set("frames", JsonValue::number(static_cast<double>(
                      Frames.load(std::memory_order_relaxed))));
  O.set("bad_frames", JsonValue::number(static_cast<double>(
                          BadFrames.load(std::memory_order_relaxed))));
  O.set("connections", JsonValue::number(static_cast<double>(
                           Connections.load(std::memory_order_relaxed))));

  service::ServiceStats S = Svc.stats();
  JsonValue Service = JsonValue::object();
  Service.set("submitted", JsonValue::number(static_cast<double>(S.Submitted)));
  Service.set("rejected", JsonValue::number(static_cast<double>(S.Rejected)));
  Service.set("completed", JsonValue::number(static_cast<double>(S.Completed)));
  Service.set("cache_hits",
              JsonValue::number(static_cast<double>(S.CacheHits)));
  Service.set("succeeded", JsonValue::number(static_cast<double>(S.Succeeded)));
  Service.set("cancelled", JsonValue::number(static_cast<double>(S.Cancelled)));
  Service.set("failed", JsonValue::number(static_cast<double>(S.Failed)));
  Service.set("queue_depth",
              JsonValue::number(static_cast<double>(S.QueueDepth)));
  Service.set("running", JsonValue::number(static_cast<double>(S.Running)));
  Service.set("draining", JsonValue::boolean(S.Draining));
  O.set("service", std::move(Service));

  service::ResultCache::Stats CS = Svc.cache().stats();
  JsonValue Cache = JsonValue::object();
  Cache.set("hits", JsonValue::number(static_cast<double>(CS.Hits)));
  Cache.set("disk_hits", JsonValue::number(static_cast<double>(CS.DiskHits)));
  Cache.set("misses", JsonValue::number(static_cast<double>(CS.Misses)));
  Cache.set("stores", JsonValue::number(static_cast<double>(CS.Stores)));
  O.set("cache", std::move(Cache));

  JsonValue Clients = JsonValue::array();
  for (const ClientStats &C : Admission.clientStats()) {
    JsonValue E = JsonValue::object();
    E.set("client", JsonValue::string(C.Client));
    E.set("submitted", JsonValue::number(static_cast<double>(C.Submitted)));
    E.set("rejected_quota",
          JsonValue::number(static_cast<double>(C.RejectedQuota)));
    E.set("rejected_queue_full",
          JsonValue::number(static_cast<double>(C.RejectedQueueFull)));
    Clients.push(std::move(E));
  }
  O.set("clients", std::move(Clients));
  return O;
}

void Server::flushStats() {
  service::ServiceStats S = Svc.stats();
  service::ResultCache::Stats CS = Svc.cache().stats();
  std::fprintf(stderr,
               "[shrinkray_serve] served %llu frames (%llu bad) on %llu "
               "connections; jobs: %zu submitted, %zu completed (%zu ok, %zu "
               "cache-hit, %zu cancelled, %zu failed), %zu rejected; cache: "
               "%zu hits (%zu disk), %zu misses\n",
               static_cast<unsigned long long>(
                   Frames.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   BadFrames.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   Connections.load(std::memory_order_relaxed)),
               S.Submitted, S.Completed, S.Succeeded, S.CacheHits, S.Cancelled,
               S.Failed, S.Rejected, CS.Hits, CS.DiskHits, CS.Misses);
}

void Server::drain() {
  Svc.beginDrain();
  if (Cfg.Verbose)
    std::fprintf(stderr, "[shrinkray_serve] draining (grace %.1fs)...\n",
                 Cfg.DrainGraceSec);
  // Let in-flight and queued jobs finish; whatever outlives the grace is
  // cancelled by the service destructor (cooperative, partial results).
  Svc.awaitIdle(Cfg.DrainGraceSec);
  HardStop.store(true, std::memory_order_release);
  flushStats();
}

int Server::runStdio() {
  // A peer closing its read end must surface as a failed write, not a
  // fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  Connections.fetch_add(1, std::memory_order_relaxed);
  Session S;
  FdLineReader Reader(STDIN_FILENO, Cfg.MaxFrameBytes);
  std::string Line;
  for (;;) {
    FdLineReader::Status St =
        Reader.readLine(Line, [this] { return stopping(); });
    if (St == FdLineReader::Status::Oversize) {
      std::string Resp = errorResponse("", "frame exceeds " +
                                               std::to_string(
                                                   Cfg.MaxFrameBytes) +
                                               " bytes");
      writeAll(STDOUT_FILENO, Resp + "\n", /*IsSocket=*/false);
      break; // framing lost: the session cannot continue
    }
    if (St != FdLineReader::Status::Line)
      break; // EOF, stop, or read error
    std::string Resp = handleFrame(S, Line);
    if (!writeAll(STDOUT_FILENO, Resp + "\n", /*IsSocket=*/false))
      break;
  }
  drain();
  return 0;
}

int Server::runTcp(uint16_t Port, uint16_t *BoundPort) {
  std::signal(SIGPIPE, SIG_IGN);
  int ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "[shrinkray_serve] socket: %s\n",
                 std::strerror(errno));
    return 1;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    std::fprintf(stderr, "[shrinkray_serve] bind/listen 127.0.0.1:%u: %s\n",
                 Port, std::strerror(errno));
    ::close(ListenFd);
    return 1;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
                    &Len) == 0)
    Port = ntohs(Addr.sin_port);
  if (BoundPort)
    *BoundPort = Port;
  // Announced on stderr (and flushed) so launchers can scrape the port.
  std::fprintf(stderr, "[shrinkray_serve] listening on 127.0.0.1:%u\n", Port);
  std::fflush(stderr);

  std::vector<std::thread> Threads;
  for (;;) {
    if (stopping())
      break;
    struct pollfd P;
    P.fd = ListenFd;
    P.events = POLLIN;
    int R = ::poll(&P, 1, static_cast<int>(kTickSec * 1000));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "[shrinkray_serve] poll: %s\n",
                   std::strerror(errno));
      break;
    }
    if (R == 0)
      continue;
    int ConnFd = ::accept(ListenFd, nullptr, nullptr);
    if (ConnFd < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Connections.fetch_add(1, std::memory_order_relaxed);
    if (Cfg.Verbose)
      std::fprintf(stderr, "[shrinkray_serve] connection %llu\n",
                   static_cast<unsigned long long>(
                       Connections.load(std::memory_order_relaxed)));
    Threads.emplace_back([this, ConnFd] {
      Session S;
      FdLineReader Reader(ConnFd, Cfg.MaxFrameBytes);
      std::string Line;
      for (;;) {
        FdLineReader::Status St = Reader.readLine(Line, [this] {
          return HardStop.load(std::memory_order_acquire);
        });
        if (St == FdLineReader::Status::Oversize) {
          std::string Resp =
              errorResponse("", "frame exceeds " +
                                    std::to_string(Cfg.MaxFrameBytes) +
                                    " bytes");
          writeAll(ConnFd, Resp + "\n", /*IsSocket=*/true);
          break;
        }
        if (St != FdLineReader::Status::Line)
          break;
        std::string Resp = handleFrame(S, Line);
        if (!writeAll(ConnFd, Resp + "\n", /*IsSocket=*/true))
          break;
      }
      ::close(ConnFd);
    });
  }
  ::close(ListenFd);
  // Drain before joining: connection threads keep serving waits on
  // in-flight jobs until the grace expires (HardStop), then exit at
  // their next read tick.
  drain();
  for (std::thread &T : Threads)
    T.join();
  return 0;
}
