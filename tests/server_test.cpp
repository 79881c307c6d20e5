//===-- tests/server_test.cpp - RPC server semantics ----------------------===//
//
// Coverage for the server layer above the codec and below the sockets:
//
//  * TokenBucket math on a synthetic clock: burst drain, refill,
//    retry-after hints, the capacity-0 "quotas off" mode;
//  * AdmissionController: per-client isolation, queue-full
//    reclassification, and the LRU bound on the client table;
//  * Server::handleFrame — the full request semantics driven without a
//    socket: handshake, submit/wait/poll/cancel round trips, quota and
//    queue-full rejections, unknown-id safety, oversized and malformed
//    frames, drain behavior, and a mutation fuzz sweep asserting no
//    network bytes can take the process down;
//  * TCP end to end: a real client against a real listener, including
//    graceful drain with a job in flight.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "models/Models.h"
#include "server/Client.h"
#include "server/Server.h"

#include "SlowInput.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

using namespace shrinkray;
using namespace shrinkray::server;

namespace {

/// A tiny model every submit in this suite uses: fast to synthesize, so
/// tests measure server behavior, not pipeline time.
const char *kQuickModel = "(Union Unit (Translate (Vec3 2 0 0) Unit))";

ServerConfig quickConfig() {
  ServerConfig Cfg;
  Cfg.Service.NumWorkers = 2;
  Cfg.Service.EnableCache = false;
  Cfg.Service.MaxQueueDepth = 64;
  return Cfg;
}

JsonValue parsed(const std::string &Line) {
  JsonParseResult R = parseJson(Line);
  EXPECT_TRUE(R) << Line << " => " << R.Error;
  EXPECT_TRUE(R.Value.isObject()) << Line;
  return std::move(R.Value);
}

bool okOf(const JsonValue &V) {
  const JsonValue *Ok = V.get("ok");
  return Ok && Ok->asBool();
}

std::string submitFrame(const std::string &Name,
                        const std::string &Source = kQuickModel) {
  Request R;
  R.K = Request::Kind::Submit;
  R.Name = Name;
  R.Source = Source;
  R.TopK = 3;
  return encodeRequest(R);
}

std::string waitFrame(uint64_t Job, double TimeoutSec = -1.0) {
  Request R;
  R.K = Request::Kind::Wait;
  R.Job = Job;
  R.TimeoutSec = TimeoutSec;
  return encodeRequest(R);
}

/// Submits kQuickModel and waits it to completion through handleFrame,
/// returning the wait response.
JsonValue submitAndWaitFrame(Server &S, Server::Session &Sess,
                             const std::string &Name) {
  JsonValue Submitted = parsed(S.handleFrame(Sess, submitFrame(Name)));
  EXPECT_TRUE(okOf(Submitted)) << writeJson(Submitted);
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done)) << writeJson(Done);
  return Done;
}

} // namespace

//===----------------------------------------------------------------------===//
// TokenBucket (synthetic clock)
//===----------------------------------------------------------------------===//

TEST(TokenBucketTest, BurstDrainsThenRefills) {
  QuotaConfig Q;
  Q.Capacity = 3;
  Q.RefillPerSec = 2; // one token each 0.5 s
  TokenBucket B(Q, /*NowSec=*/0.0);

  EXPECT_TRUE(B.tryTake(0.0));
  EXPECT_TRUE(B.tryTake(0.0));
  EXPECT_TRUE(B.tryTake(0.0));
  EXPECT_FALSE(B.tryTake(0.0)); // burst spent
  EXPECT_DOUBLE_EQ(B.retryAfterSec(0.0), 0.5);

  EXPECT_FALSE(B.tryTake(0.4)); // 0.8 tokens back, still under 1
  EXPECT_TRUE(B.tryTake(0.5));  // exactly one token refilled
  EXPECT_FALSE(B.tryTake(0.5));
}

TEST(TokenBucketTest, RefillClampsAtCapacity) {
  QuotaConfig Q;
  Q.Capacity = 2;
  Q.RefillPerSec = 100;
  TokenBucket B(Q, 0.0);
  EXPECT_DOUBLE_EQ(B.tokens(1000.0), 2.0); // hours idle != unbounded burst
  EXPECT_TRUE(B.tryTake(1000.0));
  EXPECT_TRUE(B.tryTake(1000.0));
  EXPECT_FALSE(B.tryTake(1000.0));
}

TEST(TokenBucketTest, TimeGoingBackwardsIsHarmless) {
  QuotaConfig Q;
  Q.Capacity = 1;
  Q.RefillPerSec = 1;
  TokenBucket B(Q, 10.0);
  EXPECT_TRUE(B.tryTake(10.0));
  // A clock regression must not mint tokens (or crash the math).
  EXPECT_FALSE(B.tryTake(5.0));
  EXPECT_TRUE(B.tryTake(11.0));
}

TEST(TokenBucketTest, ZeroCapacityMeansUnlimited) {
  QuotaConfig Q; // Capacity 0
  TokenBucket B(Q, 0.0);
  for (int I = 0; I < 1000; ++I)
    EXPECT_TRUE(B.tryTake(0.0));
  EXPECT_DOUBLE_EQ(B.retryAfterSec(0.0), 0.0);
}

TEST(TokenBucketTest, NoRefillRateMeansNoRetryHint) {
  QuotaConfig Q;
  Q.Capacity = 1;
  Q.RefillPerSec = 0; // burst-only quota
  TokenBucket B(Q, 0.0);
  EXPECT_TRUE(B.tryTake(0.0));
  EXPECT_FALSE(B.tryTake(100.0));
  EXPECT_DOUBLE_EQ(B.retryAfterSec(100.0), 0.0);
}

//===----------------------------------------------------------------------===//
// AdmissionController
//===----------------------------------------------------------------------===//

TEST(AdmissionControllerTest, ClientsHaveIndependentBuckets) {
  QuotaConfig Q;
  Q.Capacity = 1;
  Q.RefillPerSec = 1;
  AdmissionController A(Q);

  EXPECT_TRUE(A.admitSubmit("alice", 0.0).Admitted);
  AdmissionController::Decision D = A.admitSubmit("alice", 0.0);
  EXPECT_FALSE(D.Admitted);
  EXPECT_GT(D.RetryAfterSec, 0.0);
  EXPECT_TRUE(A.admitSubmit("bob", 0.0).Admitted); // alice's spend != bob's

  std::vector<ClientStats> Stats = A.clientStats();
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_EQ(Stats[0].Client, "bob"); // most recently seen first
  EXPECT_EQ(Stats[1].Client, "alice");
  EXPECT_EQ(Stats[1].Submitted, 1u);
  EXPECT_EQ(Stats[1].RejectedQuota, 1u);
}

TEST(AdmissionControllerTest, QueueFullReclassifiesTheAttempt) {
  AdmissionController A(QuotaConfig{}); // quotas off
  EXPECT_TRUE(A.admitSubmit("c", 0.0).Admitted);
  A.noteQueueFull("c", 0.0);
  std::vector<ClientStats> Stats = A.clientStats();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Submitted, 0u); // the admit was taken back...
  EXPECT_EQ(Stats[0].RejectedQueueFull, 1u); // ...and recorded as refusal
}

TEST(AdmissionControllerTest, ClientTableIsLruBounded) {
  AdmissionController A(QuotaConfig{}, /*MaxClients=*/4);
  for (int I = 0; I < 100; ++I)
    A.admitSubmit("client-" + std::to_string(I), 0.0);
  EXPECT_EQ(A.numClients(), 4u);
  std::vector<ClientStats> Stats = A.clientStats();
  ASSERT_EQ(Stats.size(), 4u);
  EXPECT_EQ(Stats[0].Client, "client-99"); // survivors are the newest
  EXPECT_EQ(Stats[3].Client, "client-96");
}

TEST(AdmissionControllerTest, EvictionForgetsTheBucketState) {
  QuotaConfig Q;
  Q.Capacity = 1;
  Q.RefillPerSec = 0;
  AdmissionController A(Q, /*MaxClients=*/1);
  EXPECT_TRUE(A.admitSubmit("a", 0.0).Admitted);
  EXPECT_FALSE(A.admitSubmit("a", 0.0).Admitted); // bucket empty
  A.admitSubmit("b", 0.0);                        // evicts a
  // Re-arriving after eviction, "a" gets a fresh (full) bucket — the
  // documented cost of bounding the table.
  EXPECT_TRUE(A.admitSubmit("a", 0.0).Admitted);
}

//===----------------------------------------------------------------------===//
// handleFrame: handshake and round trips (no sockets)
//===----------------------------------------------------------------------===//

TEST(ServerFrameTest, HelloNegotiatesAndSetsIdentity) {
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue V = parsed(S.handleFrame(
      Sess, "{\"op\":\"hello\",\"client\":\"t1\",\"proto\":1}"));
  EXPECT_TRUE(okOf(V));
  EXPECT_EQ(V.get("client")->asString(), "t1");
  EXPECT_EQ(Sess.Client, "t1");
  EXPECT_TRUE(Sess.SaidHello);
}

TEST(ServerFrameTest, ProtoMismatchNamesTheServerVersion) {
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue V = parsed(
      S.handleFrame(Sess, "{\"op\":\"hello\",\"client\":\"t\",\"proto\":99}"));
  EXPECT_FALSE(okOf(V));
  EXPECT_NE(V.get("error")->asString().find("1"), std::string::npos);
  EXPECT_FALSE(Sess.SaidHello);
}

TEST(ServerFrameTest, SubmitWaitPollCancelRoundTrip) {
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Done = submitAndWaitFrame(S, Sess, "roundtrip");
  EXPECT_TRUE(Done.get("done")->asBool());
  EXPECT_EQ(Done.get("status")->asString(), "ok");
  const JsonValue *Programs = Done.get("programs");
  ASSERT_NE(Programs, nullptr);
  EXPECT_GT(Programs->size(), 0u);
  EXPECT_FALSE(Programs->at(0).get("sexp")->asString().empty());

  uint64_t Job = static_cast<uint64_t>(Done.get("job")->asNumber());
  JsonValue Poll = parsed(S.handleFrame(
      Sess, "{\"op\":\"poll\",\"job\":" + std::to_string(Job) + "}"));
  EXPECT_TRUE(okOf(Poll));
  EXPECT_TRUE(Poll.get("done")->asBool());

  // Cancelling a finished job reports false, not an error.
  JsonValue Cancel = parsed(S.handleFrame(
      Sess, "{\"op\":\"cancel\",\"job\":" + std::to_string(Job) + "}"));
  EXPECT_TRUE(okOf(Cancel));
  EXPECT_FALSE(Cancel.get("cancelled")->asBool());
}

TEST(ServerFrameTest, UnknownJobIdsAreErrorsNotAborts) {
  Server S(quickConfig());
  Server::Session Sess;
  for (const char *Frame :
       {"{\"op\":\"wait\",\"job\":424242}", "{\"op\":\"poll\",\"job\":424242}",
        "{\"op\":\"cancel\",\"job\":424242}"}) {
    JsonValue V = parsed(S.handleFrame(Sess, Frame));
    if (std::string(Frame).find("cancel") != std::string::npos) {
      // cancel answers ok with cancelled:false (idempotent cancel).
      EXPECT_TRUE(okOf(V)) << Frame;
      EXPECT_FALSE(V.get("cancelled")->asBool());
    } else {
      EXPECT_FALSE(okOf(V)) << Frame;
      EXPECT_FALSE(V.get("error")->asString().empty());
    }
  }
  // The server still serves afterwards.
  submitAndWaitFrame(S, Sess, "after-unknown");
}

TEST(ServerFrameTest, MalformedFramesGetErrorResponses) {
  Server S(quickConfig());
  Server::Session Sess;
  for (const char *Frame :
       {"", "garbage", "[]", "{\"op\":\"warp\"}", "{\"op\":\"submit\"}",
        "{\"op\":\"wait\"}", "{\"op\":\"submit\",\"source\":\"\"}"}) {
    JsonValue V = parsed(S.handleFrame(Sess, Frame));
    EXPECT_FALSE(okOf(V)) << Frame;
    EXPECT_FALSE(V.get("error")->asString().empty()) << Frame;
  }
  submitAndWaitFrame(S, Sess, "after-malformed");
}

TEST(ServerFrameTest, OversizedFrameIsRefused) {
  ServerConfig Cfg = quickConfig();
  Cfg.MaxFrameBytes = 256;
  Server S(Cfg);
  Server::Session Sess;
  JsonValue V =
      parsed(S.handleFrame(Sess, submitFrame("big", std::string(1024, 'x'))));
  EXPECT_FALSE(okOf(V));
  EXPECT_NE(V.get("error")->asString().find("frame"), std::string::npos);
}

TEST(ServerFrameTest, SubmitWithBadSourceFailsTheJobNotTheServer) {
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Submitted =
      parsed(S.handleFrame(Sess, submitFrame("bad", "(Union Unit")));
  ASSERT_TRUE(okOf(Submitted)); // admission accepts; the pipeline fails it
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done));
  EXPECT_EQ(Done.get("status")->asString(), "failed");
  EXPECT_FALSE(Done.get("error")->asString().empty());
  submitAndWaitFrame(S, Sess, "after-bad-source");
}

TEST(ServerFrameTest, SubmitWithTooDeepSourceFailsTheJobNotTheServer) {
  // 20000 nested Unions: the parser refuses it with a diagnostic instead
  // of recursing once per level and overflowing a worker's stack.
  std::string Deep;
  for (int I = 0; I < 20000; ++I)
    Deep += "(Union ";
  Deep += "Unit";
  for (int I = 0; I < 20000; ++I)
    Deep += " Unit)";
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Submitted = parsed(S.handleFrame(Sess, submitFrame("deep", Deep)));
  ASSERT_TRUE(okOf(Submitted));
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done));
  EXPECT_EQ(Done.get("status")->asString(), "failed");
  EXPECT_NE(Done.get("error")->asString().find("nesting deeper than"),
            std::string::npos)
      << writeJson(Done);
  submitAndWaitFrame(S, Sess, "after-deep-source");
}

TEST(ServerFrameTest, SubmitWithLongUnrolledLoopFailsTheJobNotTheServer) {
  // A 48-byte scad loop whose unrolled Union spine is 300001 deep: it
  // used to take the server down when the spine was destroyed.
  Request R;
  R.K = Request::Kind::Submit;
  R.Name = "long-loop";
  R.Source = "for (i = [0:300000]) translate([i,0,0]) cube(1);";
  R.SourceIsScad = true;
  R.TopK = 3;
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Submitted = parsed(S.handleFrame(Sess, encodeRequest(R)));
  ASSERT_TRUE(okOf(Submitted));
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done));
  EXPECT_EQ(Done.get("status")->asString(), "failed");
  EXPECT_NE(Done.get("error")->asString().find("nesting deeper than"),
            std::string::npos)
      << writeJson(Done);
  submitAndWaitFrame(S, Sess, "after-long-loop");
}

TEST(ServerFrameTest, SubmitWithDeepFlatteningFailsTheJobNotTheServer) {
  // A 40-byte sexp program whose flattened Union spine is 300000 deep: it
  // used to overflow the stack in the solver's preprocessing walkers.
  Request R;
  R.K = Request::Kind::Submit;
  R.Name = "deep-fold";
  R.Source = "(Fold Union Empty (Repeat Unit 300000))";
  R.TopK = 3;
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Submitted = parsed(S.handleFrame(Sess, encodeRequest(R)));
  ASSERT_TRUE(okOf(Submitted));
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done));
  EXPECT_EQ(Done.get("status")->asString(), "failed");
  EXPECT_NE(Done.get("error")->asString().find("nesting deeper than"),
            std::string::npos)
      << writeJson(Done);
  submitAndWaitFrame(S, Sess, "after-deep-fold");
}

//===----------------------------------------------------------------------===//
// handleFrame: admission control
//===----------------------------------------------------------------------===//

TEST(ServerFrameTest, QuotaRejectionCarriesRetryAfter) {
  ServerConfig Cfg = quickConfig();
  Cfg.Quota.Capacity = 2;
  Cfg.Quota.RefillPerSec = 0.001; // glacial refill: rejections stay put
  Server S(Cfg);
  Server::Session Sess;
  Sess.Client = "greedy";

  EXPECT_TRUE(okOf(parsed(S.handleFrame(Sess, submitFrame("q1")))));
  EXPECT_TRUE(okOf(parsed(S.handleFrame(Sess, submitFrame("q2")))));
  JsonValue Rej = parsed(S.handleFrame(Sess, submitFrame("q3")));
  EXPECT_FALSE(okOf(Rej));
  EXPECT_EQ(Rej.get("rejected")->asString(), "quota");
  EXPECT_GT(Rej.get("retry_after_sec")->asNumber(), 0.0);

  // Another identity is unaffected.
  Server::Session Other;
  Other.Client = "modest";
  EXPECT_TRUE(okOf(parsed(S.handleFrame(Other, submitFrame("q4")))));
}

TEST(ServerFrameTest, FullQueueRejectsWhileInFlightJobsComplete) {
  ServerConfig Cfg = quickConfig();
  Cfg.Service.NumWorkers = 1;
  Cfg.Service.MaxQueueDepth = 1;
  Server S(Cfg);
  Server::Session Sess;

  // Park the single worker on a job that runs for over a second (a
  // 900-element chain with no closed form, SlowInput.h; cancelled below
  // once the rejection landed), then fill the 1-deep queue behind it.
  Request Slow;
  Slow.K = Request::Kind::Submit;
  Slow.Name = "slow";
  Slow.Source = printSexp(slowIrregularChain());
  JsonValue First = parsed(S.handleFrame(Sess, encodeRequest(Slow)));
  ASSERT_TRUE(okOf(First));
  uint64_t SlowJob = static_cast<uint64_t>(First.get("job")->asNumber());

  // Saturate: keep submitting until one fill job is pending and the next
  // bounces. The loop tolerates the races (worker pickup timing) by
  // re-filling; with the worker parked it converges in two iterations.
  bool SawQueueFull = false;
  std::vector<uint64_t> Accepted{SlowJob};
  for (int I = 0; I < 200 && !SawQueueFull; ++I) {
    JsonValue V = parsed(S.handleFrame(Sess, submitFrame("fill")));
    if (okOf(V)) {
      Accepted.push_back(
          static_cast<uint64_t>(V.get("job")->asNumber()));
      continue;
    }
    EXPECT_EQ(V.get("rejected")->asString(), "queue_full");
    EXPECT_GT(V.get("retry_after_sec")->asNumber(), 0.0);
    SawQueueFull = true;
  }
  EXPECT_TRUE(SawQueueFull);

  // Unpark the worker; cancellation is cooperative, so the slow job
  // still completes (with a partial result), as does everything queued.
  JsonValue Cancel = parsed(S.handleFrame(
      Sess, "{\"op\":\"cancel\",\"job\":" + std::to_string(SlowJob) + "}"));
  EXPECT_TRUE(okOf(Cancel));

  // Backpressure, not load shedding: every accepted job still completes.
  for (uint64_t Job : Accepted) {
    JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
    EXPECT_TRUE(okOf(Done)) << writeJson(Done);
    EXPECT_TRUE(Done.get("done")->asBool());
  }
}

TEST(ServerFrameTest, DrainingServerRejectsSubmitsServesWaits) {
  Server S(quickConfig());
  Server::Session Sess;
  JsonValue Submitted = parsed(S.handleFrame(Sess, submitFrame("pre-drain")));
  ASSERT_TRUE(okOf(Submitted));
  uint64_t Job = static_cast<uint64_t>(Submitted.get("job")->asNumber());

  S.requestStop();
  JsonValue Rej = parsed(S.handleFrame(Sess, submitFrame("post-drain")));
  EXPECT_FALSE(okOf(Rej));
  EXPECT_EQ(Rej.get("rejected")->asString(), "draining");

  // The in-flight job is still served to completion.
  JsonValue Done = parsed(S.handleFrame(Sess, waitFrame(Job)));
  EXPECT_TRUE(okOf(Done));
  EXPECT_TRUE(Done.get("done")->asBool());

  // Stats still answers during drain.
  EXPECT_TRUE(okOf(parsed(S.handleFrame(Sess, "{\"op\":\"stats\"}"))));
}

TEST(ServerFrameTest, StatsReportsCountersAndClients) {
  Server S(quickConfig());
  Server::Session Sess;
  Sess.Client = "counter";
  submitAndWaitFrame(S, Sess, "counted");
  JsonValue V = parsed(S.handleFrame(Sess, "{\"op\":\"stats\"}"));
  ASSERT_TRUE(okOf(V));
  const JsonValue *Stats = V.get("stats");
  ASSERT_NE(Stats, nullptr);
  const JsonValue *Svc = Stats->get("service");
  ASSERT_NE(Svc, nullptr);
  EXPECT_EQ(Svc->get("submitted")->asNumber(), 1.0);
  EXPECT_EQ(Svc->get("completed")->asNumber(), 1.0);
  const JsonValue *Clients = Stats->get("clients");
  ASSERT_NE(Clients, nullptr);
  ASSERT_EQ(Clients->size(), 1u);
  EXPECT_EQ(Clients->at(0).get("client")->asString(), "counter");
}

//===----------------------------------------------------------------------===//
// handleFrame: fuzz (no byte sequence crashes the server)
//===----------------------------------------------------------------------===//

namespace {

struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

} // namespace

TEST(ServerFuzzTest, MutatedAndRandomFramesNeverKillTheServer) {
  Server S(quickConfig());
  Server::Session Sess;
  std::vector<std::string> Seeds = {
      "{\"op\":\"hello\",\"client\":\"fuzz\",\"proto\":1}",
      submitFrame("fuzz"),
      waitFrame(1, 0.0),
      "{\"op\":\"poll\",\"job\":1}",
      "{\"op\":\"cancel\",\"job\":1}",
      "{\"op\":\"stats\"}",
  };
  Lcg Rng(0xf00dULL);
  for (size_t Round = 0; Round < 2000; ++Round) {
    std::string Frame = Seeds[Rng.below(Seeds.size())];
    for (size_t M = 1 + Rng.below(4); M > 0 && !Frame.empty(); --M) {
      switch (Rng.below(3)) {
      case 0:
        Frame[Rng.below(Frame.size())] =
            static_cast<char>(static_cast<unsigned char>(Rng.next() & 0xff));
        break;
      case 1:
        Frame.insert(Frame.begin() + static_cast<long>(Rng.below(Frame.size())),
                     static_cast<char>(
                         static_cast<unsigned char>(Rng.next() & 0xff)));
        break;
      default:
        Frame.resize(Rng.below(Frame.size()));
        break;
      }
    }
    std::string Response = S.handleFrame(Sess, Frame);
    // Whatever went in, exactly one parseable response object comes out.
    JsonParseResult R = parseJson(Response);
    ASSERT_TRUE(R) << "unparseable response '" << Response << "' for frame '"
                   << Frame << "'";
    ASSERT_TRUE(R.Value.isObject());
    ASSERT_NE(R.Value.get("ok"), nullptr);
  }
  // And the server still works.
  submitAndWaitFrame(S, Sess, "after-fuzz");
}

//===----------------------------------------------------------------------===//
// TCP end to end
//===----------------------------------------------------------------------===//

TEST(ServerTcpTest, ClientRoundTripAndGracefulDrain) {
  ServerConfig Cfg = quickConfig();
  Cfg.DrainGraceSec = 10.0;
  Server S(Cfg);
  uint16_t Port = 0;
  std::thread ServerThread([&] { S.runTcp(0, &Port); });
  // runTcp publishes the bound port before accepting; spin briefly.
  for (int I = 0; I < 200 && Port == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_NE(Port, 0) << "server never bound";

  ClientConnection Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect("127.0.0.1", Port, Error)) << Error;
  ASSERT_TRUE(Conn.hello("tcp-test", Error)) << Error;

  Request Submit;
  Submit.K = Request::Kind::Submit;
  Submit.Name = "tcp-job";
  Submit.Source = kQuickModel;
  std::optional<RemoteOutcome> Out = Conn.submitAndWait(Submit, Error);
  ASSERT_TRUE(Out) << Error;
  EXPECT_EQ(Out->Status, "ok");
  ASSERT_FALSE(Out->Programs.empty());
  EXPECT_FALSE(Out->Programs.front().Sexp.empty());

  // Drain with the connection open: the server must exit its accept
  // loop, finish the drain, and join — not hang on the live client.
  S.requestStop();
  ServerThread.join();
  SUCCEED();
}
