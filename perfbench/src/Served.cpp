//===-- perfbench/src/Served.cpp - Requests over a real TCP server --------===//

#include "Served.h"

#include "server/Server.h"

#include <arpa/inet.h>
#include <atomic>
#include <csignal>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace shrinkray;
using namespace shrinkray::server;
using Clock = std::chrono::steady_clock;

namespace {

/// A loopback port nothing listens on right now (0 when none was found).
uint16_t freePort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  uint16_t Port = 0;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0 &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    Port = ntohs(Addr.sin_port);
  ::close(Fd);
  return Port;
}

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

double number(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->get(Key) : nullptr;
  return V ? V->asNumber() : 0.0;
}

/// Sends one request on \p Conn and waits for its answer.
void sendOne(ClientConnection &Conn, const ServedRequest &Q, uint64_t Job,
             Tracer &T, int64_t Parent, ServedOutcome &O) {
  Request Submit;
  Submit.K = Request::Kind::Submit;
  Submit.Name = Q.Name;
  Submit.Source = Q.Source;
  Submit.Cost = Q.Cost;
  std::optional<JsonValue> Resp;
  {
    ScopedSpan S(T, "rpc.submit", Job, Parent);
    Resp = Conn.call(Submit, O.Error);
  }
  if (!Resp)
    return;
  if (const JsonValue *Rejected = Resp->get("rejected")) {
    O.Status = "rejected";
    O.Error = Rejected->asString();
    return;
  }
  const JsonValue *Id = Resp->get("job");
  if (!Id || !Id->isNumber()) {
    O.Error = "submit answered without a job id";
    return;
  }
  Request Wait;
  Wait.K = Request::Kind::Wait;
  Wait.Job = static_cast<uint64_t>(Id->asNumber());
  ScopedSpan S(T, "rpc.wait", Job, Parent);
  for (;;) {
    std::optional<JsonValue> Answer = Conn.call(Wait, O.Error);
    if (!Answer)
      return;
    std::optional<RemoteOutcome> R = ClientConnection::outcomeFrom(*Answer);
    if (R) {
      O.Status = R->Status;
      O.Error = R->Error;
      O.QueueSec = R->QueueSec;
      O.RunSec = R->RunSec;
      for (RemoteOutcome::Program &P : R->Programs)
        O.Programs.push_back(std::move(P.Sexp));
      return;
    }
  }
}

} // namespace

int perfbench::serveForever(uint16_t Port) {
  // Never outlive the harness, even one that was killed.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1)
    return 1;
  ServerConfig Cfg;
  Cfg.Service.NumWorkers = 4;
  Server S(Cfg);
  return S.runTcp(Port);
}

ServedHarness::ServedHarness(size_t Connections) {
  // A port picked here can be taken before the server binds it; the child
  // then exits at once and the next attempt picks another.
  for (int Attempt = 0; Attempt < 5 && Clients.empty(); ++Attempt) {
    uint16_t Port = freePort();
    if (Port == 0)
      continue;
    std::string PortText = std::to_string(Port);
    char Name[] = "perfbench", Flag[] = "--serve";
    char *Argv[] = {Name, Flag, PortText.data(), nullptr};
    if (posix_spawn(&Child, "/proc/self/exe", nullptr, nullptr, Argv,
                    environ) != 0) {
      Child = -1;
      Error = "could not start the server process";
      return;
    }
    for (int Try = 0; Try < 5000; ++Try) {
      ClientConnection C;
      std::string Ignored;
      if (C.connect("127.0.0.1", Port, Ignored)) {
        Clients.push_back(std::move(C));
        break;
      }
      if (waitpid(Child, nullptr, WNOHANG) == Child) {
        Child = -1; // it could not bind the port
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (Clients.empty()) {
      stop();
      continue;
    }
    while (Clients.size() < Connections) {
      ClientConnection C;
      if (!C.connect("127.0.0.1", Port, Error))
        return;
      Clients.push_back(std::move(C));
    }
    for (size_t I = 0; I < Clients.size(); ++I)
      if (!Clients[I].hello("perfbench/c" + std::to_string(I), Error))
        return;
  }
  if (Clients.empty() && Error.empty())
    Error = "the server never accepted a connection";
}

ServedHarness::~ServedHarness() { stop(); }

double ServedHarness::stop() {
  for (ClientConnection &C : Clients)
    C.close();
  Clients.clear();
  if (Child <= 0)
    return 0.0;
  ::kill(Child, SIGTERM);
  struct rusage RU {};
  int Status = 0;
  ::wait4(Child, &Status, 0, &RU);
  Child = -1;
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

ServedOutcome ServedHarness::send(const ServedRequest &Q, uint64_t Job,
                                  Tracer &T) {
  ServedOutcome O;
  if (Clients.empty())
    return O;
  const Clock::time_point Sent = Clock::now();
  {
    ScopedSpan Root(T, "request", Job);
    sendOne(Clients.front(), Q, Job, T, Root.id(), O);
  }
  O.LatencySec = O.ClientSec = seconds(Clock::now() - Sent);
  return O;
}

std::vector<ServedOutcome>
ServedHarness::run(const std::vector<ServedRequest> &Requests, bool OpenLoop,
                   Tracer &T, double &WallSec) {
  std::vector<ServedOutcome> Out(Requests.size());
  std::vector<Clock::time_point> Done(Requests.size());
  std::atomic<size_t> Next{0};
  const Clock::time_point Start = Clock::now();
  auto Client = [&](ClientConnection &Conn) {
    for (size_t I = Next++; I < Requests.size(); I = Next++) {
      const ServedRequest &Q = Requests[I];
      Clock::time_point Due = Clock::now();
      if (OpenLoop) {
        Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(Q.DueSec));
        std::this_thread::sleep_until(Due);
      }
      ServedOutcome &O = Out[I];
      const Clock::time_point Sent = Clock::now();
      {
        ScopedSpan Root(T, "request", I);
        sendOne(Conn, Q, I, T, Root.id(), O);
      }
      Done[I] = Clock::now();
      O.LatencySec = seconds(Done[I] - Due);
      O.ClientSec = seconds(Done[I] - Sent);
      O.LateSec = seconds(Sent - Due);
    }
  };
  std::vector<std::thread> Threads;
  for (ClientConnection &Conn : Clients)
    Threads.emplace_back(Client, std::ref(Conn));
  for (std::thread &Th : Threads)
    Th.join();
  Clock::time_point Last = Start;
  for (const Clock::time_point &D : Done)
    Last = std::max(Last, D);
  WallSec = seconds(Last - Start);
  return Out;
}

std::optional<ServerCounters> ServedHarness::counters() {
  if (Clients.empty())
    return std::nullopt;
  Request R;
  R.K = Request::Kind::Stats;
  std::string Ignored;
  std::optional<JsonValue> Resp = Clients.front().call(R, Ignored);
  const JsonValue *S = Resp ? Resp->get("stats") : nullptr;
  if (!S)
    return std::nullopt;
  ServerCounters C;
  C.Frames = number(S, "frames");
  C.BadFrames = number(S, "bad_frames");
  C.Rejected = number(S->get("service"), "rejected");
  const JsonValue *Cache = S->get("cache");
  C.CacheHits = number(Cache, "hits");
  C.CacheMisses = number(Cache, "misses");
  C.SnapshotHits = number(Cache, "snapshot_hits");
  if (const JsonValue *Clients = S->get("clients"))
    for (size_t I = 0; I < Clients->size(); ++I)
      C.RejectedQuota += number(&Clients->at(I), "rejected_quota");
  return C;
}
