//===-- tests/server_protocol_test.cpp - JSONL RPC codec ------------------===//
//
// Coverage for the wire layer of the synthesis server, below any socket:
//
//  * the JSON codec: parse/write round-trips for every value kind,
//    canonical number spelling, escape handling (including surrogate
//    pairs), and the hard "never throws" contract on malformed input —
//    truncations, garbage, nest bombs, trailing bytes;
//  * the request codec: parseRequest(encodeRequest(R)) reproduces R
//    field-for-field for every op; every validation rule (missing
//    source, out-of-range top_k, fractional job ids, oversized frames,
//    unknown ops) degrades to an error value;
//  * response builders emit parseable frames with the documented fields;
//  * a deterministic-LCG mutation fuzz sweep: thousands of corrupted
//    frames through parseJson and parseRequest, asserting error-or-value,
//    never a throw, and writer/parser agreement whenever a mutant still
//    parses.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace shrinkray;
using namespace shrinkray::server;

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_TRUE(R) << Text << " => " << R.Error;
  return std::move(R.Value);
}

std::string parseErr(const std::string &Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_FALSE(R) << Text << " unexpectedly parsed";
  return R.Error;
}

/// The PR 8 fuzzer's deterministic LCG (MMIX constants): reproducible
/// across platforms, no <random> seeding variance.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 11;
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

/// One mutation: flip/insert/delete/truncate, chosen by the LCG.
std::string mutate(std::string Frame, Lcg &Rng) {
  if (Frame.empty())
    return Frame;
  switch (Rng.below(4)) {
  case 0: // flip a byte
    Frame[Rng.below(Frame.size())] =
        static_cast<char>(static_cast<unsigned char>(Rng.next() & 0xff));
    break;
  case 1: // insert a byte
    Frame.insert(Frame.begin() + static_cast<long>(Rng.below(Frame.size())),
                 static_cast<char>(static_cast<unsigned char>(Rng.next() &
                                                              0xff)));
    break;
  case 2: // delete a byte
    Frame.erase(Frame.begin() + static_cast<long>(Rng.below(Frame.size())));
    break;
  default: // truncate
    Frame.resize(Rng.below(Frame.size()));
    break;
  }
  return Frame;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON value round-trips
//===----------------------------------------------------------------------===//

TEST(JsonCodec, ScalarsRoundTrip) {
  EXPECT_EQ(writeJson(parseOk("null")), "null");
  EXPECT_EQ(writeJson(parseOk("true")), "true");
  EXPECT_EQ(writeJson(parseOk("false")), "false");
  EXPECT_EQ(writeJson(parseOk("0")), "0");
  EXPECT_EQ(writeJson(parseOk("-7")), "-7");
  EXPECT_EQ(writeJson(parseOk("42.5")), "42.5");
  EXPECT_EQ(writeJson(parseOk("1e3")), "1000");
  EXPECT_EQ(writeJson(parseOk("\"hi\"")), "\"hi\"");
  EXPECT_EQ(writeJson(parseOk("[]")), "[]");
  EXPECT_EQ(writeJson(parseOk("{}")), "{}");
}

TEST(JsonCodec, NumbersRoundTripBitForBit) {
  for (double D : {0.0, -0.0, 1.0, -1.5, 3.141592653589793,
                   6.3169999999999998e-06, 1e308, 5e-324,
                   9007199254740991.0, 9007199254740993.0}) {
    JsonValue V = JsonValue::number(D);
    JsonParseResult R = parseJson(writeJson(V));
    ASSERT_TRUE(R) << writeJson(V);
    EXPECT_EQ(R.Value.asNumber(), D) << writeJson(V);
  }
}

TEST(JsonCodec, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(writeJson(JsonValue::number(std::nan(""))), "null");
  EXPECT_EQ(writeJson(JsonValue::number(HUGE_VAL)), "null");
  EXPECT_EQ(writeJson(JsonValue::number(-HUGE_VAL)), "null");
}

TEST(JsonCodec, StringsEscapeAndUnescape) {
  JsonValue V = parseOk("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(V.asString(), "a\"b\\c\n\tA\xc3\xa9");
  // Control characters come back escaped; the escape spelling is stable.
  std::string Out = writeJson(JsonValue::string(std::string("x\x01y\n", 4)));
  EXPECT_EQ(Out, "\"x\\u0001y\\n\"");
  EXPECT_EQ(parseOk(Out).asString(), std::string("x\x01y\n", 4));
}

TEST(JsonCodec, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as \ud83d\ude00 => F0 9F 98 80.
  JsonValue V = parseOk("\"\\ud83d\\ude00\"");
  EXPECT_EQ(V.asString(), "\xf0\x9f\x98\x80");
  // A lone high surrogate is malformed.
  parseErr("\"\\ud83d\"");
}

TEST(JsonCodec, NestedStructuresRoundTrip) {
  const std::string Text =
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]},\"e\":\"\"}";
  EXPECT_EQ(writeJson(parseOk(Text)), Text);
}

TEST(JsonCodec, ObjectsPreserveInsertionOrder) {
  JsonValue V = JsonValue::object();
  V.set("z", JsonValue::number(1));
  V.set("a", JsonValue::number(2));
  EXPECT_EQ(writeJson(V), "{\"z\":1,\"a\":2}");
}

TEST(JsonCodec, AccessorsOnWrongKindReturnZeroValues) {
  JsonValue V = JsonValue::string("not a number");
  EXPECT_EQ(V.asNumber(), 0.0);
  EXPECT_FALSE(V.asBool());
  EXPECT_EQ(JsonValue::number(3).asString(), "");
  EXPECT_EQ(JsonValue::null().size(), 0u);
  EXPECT_EQ(JsonValue::number(3).get("x"), nullptr);
}

//===----------------------------------------------------------------------===//
// JSON malformed input
//===----------------------------------------------------------------------===//

TEST(JsonCodec, MalformedInputsDegradeToErrors) {
  parseErr("");
  parseErr("   ");
  parseErr("nul");
  parseErr("truex");
  parseErr("\"unterminated");
  parseErr("\"bad \\q escape\"");
  parseErr("\"bad \\u00 escape\"");
  parseErr("[1,2");
  parseErr("[1,,2]");
  parseErr("{\"a\":}");
  parseErr("{\"a\" 1}");
  parseErr("{a:1}");
  parseErr("{\"a\":1} trailing");
  parseErr("01");     // leading zero
  parseErr("1.");     // digits required after the point
  parseErr("+1");     // no leading plus
  parseErr("1e");     // exponent needs digits
  parseErr("-");      // sign alone
  parseErr("NaN");    // not JSON
  parseErr("Infinity");
}

TEST(JsonCodec, NestBombIsBoundedNotFatal) {
  std::string Deep(kMaxJsonDepth + 8, '[');
  std::string Error = parseErr(Deep);
  EXPECT_NE(Error.find("nesting"), std::string::npos) << Error;
  // Exactly at the limit still parses.
  std::string AtLimit;
  for (size_t I = 0; I < kMaxJsonDepth; ++I)
    AtLimit += "[";
  for (size_t I = 0; I < kMaxJsonDepth; ++I)
    AtLimit += "]";
  EXPECT_TRUE(parseJson(AtLimit)) << AtLimit;
}

TEST(JsonCodec, EmbeddedNulBytesAreData) {
  // A NUL inside the input must not truncate parsing (string_view carries
  // the length; the parser must not fall back to C strings).
  std::string Text = "\"a\\u0000b\"";
  JsonValue V = parseOk(Text);
  EXPECT_EQ(V.asString(), std::string("a\0b", 3));
  std::string Raw("[1,2]\0garbage", 13);
  parseErr(Raw); // trailing bytes, even after a NUL, are an error
}

//===----------------------------------------------------------------------===//
// Request codec round-trips
//===----------------------------------------------------------------------===//

namespace {

ParsedRequest reparse(const Request &R) {
  ParsedRequest P = parseRequest(encodeRequest(R));
  EXPECT_TRUE(P.Ok) << encodeRequest(R) << " => " << P.Error;
  return P;
}

} // namespace

TEST(RequestCodec, HelloRoundTrips) {
  Request R;
  R.K = Request::Kind::Hello;
  R.Client = "bench:worker/3";
  R.Proto = kProtocolVersion;
  ParsedRequest P = reparse(R);
  EXPECT_EQ(P.Req.K, Request::Kind::Hello);
  EXPECT_EQ(P.Req.Client, "bench:worker/3");
  EXPECT_EQ(P.Req.Proto, kProtocolVersion);
  EXPECT_EQ(P.Op, "hello");
}

TEST(RequestCodec, SubmitRoundTripsEveryField) {
  Request R;
  R.K = Request::Kind::Submit;
  R.Name = "gear";
  R.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
  R.SourceIsScad = true;
  R.TopK = 17;
  R.Cost = CostKind::RewardLoops;
  R.DeadlineSec = 2.5;
  ParsedRequest P = reparse(R);
  EXPECT_EQ(P.Req.K, Request::Kind::Submit);
  EXPECT_EQ(P.Req.Name, "gear");
  EXPECT_EQ(P.Req.Source, R.Source);
  EXPECT_TRUE(P.Req.SourceIsScad);
  EXPECT_EQ(P.Req.TopK, 17u);
  EXPECT_EQ(P.Req.Cost, CostKind::RewardLoops);
  EXPECT_EQ(P.Req.DeadlineSec, 2.5);
}

TEST(RequestCodec, SubmitDefaultsSurvive) {
  Request R;
  R.K = Request::Kind::Submit;
  R.Source = "(Union Unit Unit)";
  ParsedRequest P = reparse(R);
  EXPECT_EQ(P.Req.TopK, 5u);
  EXPECT_EQ(P.Req.Cost, CostKind::AstSize);
  EXPECT_FALSE(P.Req.SourceIsScad);
  EXPECT_EQ(P.Req.DeadlineSec, 0.0);
}

TEST(RequestCodec, WaitPollCancelStatsRoundTrip) {
  for (Request::Kind K : {Request::Kind::Wait, Request::Kind::Poll,
                          Request::Kind::Cancel}) {
    Request R;
    R.K = K;
    R.Job = 123456789ULL;
    if (K == Request::Kind::Wait)
      R.TimeoutSec = 1.25;
    ParsedRequest P = reparse(R);
    EXPECT_EQ(P.Req.K, K);
    EXPECT_EQ(P.Req.Job, 123456789ULL);
    if (K == Request::Kind::Wait) {
      EXPECT_EQ(P.Req.TimeoutSec, 1.25);
    }
  }
  Request R;
  R.K = Request::Kind::Stats;
  EXPECT_EQ(reparse(R).Req.K, Request::Kind::Stats);
}

TEST(RequestCodec, SourceWithEveryEscapeClassRoundTrips) {
  Request R;
  R.K = Request::Kind::Submit;
  R.Source = "line1\nline2\t\"quoted\" back\\slash \xc3\xa9 \x01";
  ParsedRequest P = reparse(R);
  EXPECT_EQ(P.Req.Source, R.Source);
}

//===----------------------------------------------------------------------===//
// Request validation
//===----------------------------------------------------------------------===//

namespace {

std::string rejects(const std::string &Frame) {
  ParsedRequest P = parseRequest(Frame);
  EXPECT_FALSE(P.Ok) << Frame << " unexpectedly accepted";
  EXPECT_FALSE(P.Error.empty()) << Frame;
  return P.Error;
}

} // namespace

TEST(RequestCodec, StructurallyInvalidFramesAreErrors) {
  rejects("");
  rejects("not json");
  rejects("[]");                    // not an object
  rejects("42");
  rejects("{}");                    // no op
  rejects("{\"op\":7}");            // op not a string
  rejects("{\"op\":\"teleport\"}"); // unknown op
  // The op echo survives for error responses when recoverable.
  EXPECT_EQ(parseRequest("{\"op\":\"teleport\"}").Op, "teleport");
}

TEST(RequestCodec, SubmitValidationRules) {
  rejects("{\"op\":\"submit\"}");                       // source required
  rejects("{\"op\":\"submit\",\"source\":\"\"}");       // source non-empty
  rejects("{\"op\":\"submit\",\"source\":42}");         // wrong type
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"top_k\":0}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"top_k\":" +
          std::to_string(kMaxTopK + 1) + "}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"top_k\":2.5}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"top_k\":-1}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"cost\":\"karma\"}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"deadline_sec\":-1}");
  rejects("{\"op\":\"submit\",\"source\":\"(U)\",\"scad\":\"yes\"}");
  EXPECT_TRUE(
      parseRequest("{\"op\":\"submit\",\"source\":\"(U)\",\"top_k\":" +
                   std::to_string(kMaxTopK) + "}")
          .Ok);
}

TEST(RequestCodec, JobIdValidationRules) {
  rejects("{\"op\":\"wait\"}");                   // job required
  rejects("{\"op\":\"wait\",\"job\":-1}");
  rejects("{\"op\":\"wait\",\"job\":1.5}");
  rejects("{\"op\":\"wait\",\"job\":\"1\"}");
  rejects("{\"op\":\"wait\",\"job\":1e300}");     // past 2^53, not exact
  rejects("{\"op\":\"cancel\",\"job\":null}");
  rejects("{\"op\":\"wait\",\"job\":1,\"timeout_sec\":\"soon\"}");
  EXPECT_TRUE(parseRequest("{\"op\":\"poll\",\"job\":0}").Ok);
}

TEST(RequestCodec, OversizedFramesAreRejectedBeforeParsing) {
  std::string Big = "{\"op\":\"submit\",\"source\":\"";
  Big += std::string(kMaxFrameBytes, 'x');
  Big += "\"}";
  std::string Error = rejects(Big);
  EXPECT_NE(Error.find("frame"), std::string::npos) << Error;
}

TEST(RequestCodec, UnknownFieldsAreIgnoredForForwardCompat) {
  ParsedRequest P = parseRequest(
      "{\"op\":\"poll\",\"job\":3,\"future_field\":{\"x\":[1,2]}}");
  EXPECT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Req.Job, 3u);
}

//===----------------------------------------------------------------------===//
// Response builders
//===----------------------------------------------------------------------===//

TEST(ResponseBuilders, EmitParseableDocumentedFields) {
  JsonValue E = parseOk(errorResponse("wait", "unknown job id"));
  EXPECT_FALSE(E.get("ok")->asBool());
  EXPECT_EQ(E.get("op")->asString(), "wait");
  EXPECT_EQ(E.get("error")->asString(), "unknown job id");

  JsonValue R = parseOk(rejectedResponse("submit", "quota", 1.5));
  EXPECT_FALSE(R.get("ok")->asBool());
  EXPECT_EQ(R.get("rejected")->asString(), "quota");
  EXPECT_EQ(R.get("retry_after_sec")->asNumber(), 1.5);

  JsonValue H = parseOk(helloResponse("cli", kProtocolVersion));
  EXPECT_TRUE(H.get("ok")->asBool());
  EXPECT_EQ(H.get("client")->asString(), "cli");
  EXPECT_EQ(H.get("proto")->asNumber(), kProtocolVersion);

  JsonValue S = parseOk(submittedResponse(42));
  EXPECT_TRUE(S.get("ok")->asBool());
  EXPECT_EQ(S.get("job")->asNumber(), 42.0);

  JsonValue T = parseOk(waitTimeoutResponse(42));
  EXPECT_TRUE(T.get("ok")->asBool());
  EXPECT_FALSE(T.get("done")->asBool());

  JsonValue PollResp =
      parseOk(pollResponse(7, service::JobPhase::Running));
  EXPECT_EQ(PollResp.get("phase")->asString(), "running");
  EXPECT_FALSE(PollResp.get("done")->asBool());

  JsonValue C = parseOk(cancelResponse(7, true));
  EXPECT_TRUE(C.get("cancelled")->asBool());
}

TEST(ResponseBuilders, OutcomeResponseCarriesPrograms) {
  service::JobOutcome Out;
  Out.St = service::JobOutcome::Status::Succeeded;
  Out.QueueSec = 0.25;
  Out.RunSec = 1.5;
  JsonValue V = parseOk(outcomeResponse("wait", 9, Out));
  EXPECT_TRUE(V.get("ok")->asBool());
  EXPECT_TRUE(V.get("done")->asBool());
  EXPECT_EQ(V.get("status")->asString(), "ok");
  EXPECT_EQ(V.get("job")->asNumber(), 9.0);
  EXPECT_EQ(V.get("queue_sec")->asNumber(), 0.25);
  EXPECT_EQ(V.get("run_sec")->asNumber(), 1.5);
  ASSERT_NE(V.get("programs"), nullptr);
  EXPECT_TRUE(V.get("programs")->isArray());
}

TEST(ResponseBuilders, StatusAndPhaseNamesAreStable) {
  EXPECT_STREQ(jobStatusName(service::JobOutcome::Status::CacheHit),
               "cache-hit");
  EXPECT_STREQ(jobStatusName(service::JobOutcome::Status::Succeeded), "ok");
  EXPECT_STREQ(jobStatusName(service::JobOutcome::Status::Cancelled),
               "cancelled");
  EXPECT_STREQ(jobStatusName(service::JobOutcome::Status::Failed), "failed");
  EXPECT_STREQ(jobPhaseName(service::JobPhase::Unknown), "unknown");
  EXPECT_STREQ(jobPhaseName(service::JobPhase::Pending), "pending");
  EXPECT_STREQ(jobPhaseName(service::JobPhase::Running), "running");
  EXPECT_STREQ(jobPhaseName(service::JobPhase::Done), "done");
}

//===----------------------------------------------------------------------===//
// Mutation fuzz sweep
//===----------------------------------------------------------------------===//

TEST(ProtocolFuzz, MutatedFramesNeverThrowAndStayConsistent) {
  // Seed corpus: one canonical frame per op plus a deep-ish stats shape.
  std::vector<std::string> Corpus;
  {
    Request R;
    R.K = Request::Kind::Hello;
    R.Client = "fuzz";
    Corpus.push_back(encodeRequest(R));
  }
  {
    Request R;
    R.K = Request::Kind::Submit;
    R.Name = "m";
    R.Source = "(Union Unit (Translate (Vec3 2 0 0) Unit))";
    R.TopK = 3;
    R.DeadlineSec = 0.5;
    Corpus.push_back(encodeRequest(R));
  }
  for (Request::Kind K : {Request::Kind::Wait, Request::Kind::Poll,
                          Request::Kind::Cancel, Request::Kind::Stats}) {
    Request R;
    R.K = K;
    R.Job = 17;
    Corpus.push_back(encodeRequest(R));
  }
  Corpus.push_back(
      "{\"a\":[1,[2,[3,[4]]]],\"b\":{\"c\":{\"d\":\"\\u00e9\"}},\"n\":-1.5e-3}");

  Lcg Rng(0x5eed5eedULL);
  size_t StillValid = 0;
  for (size_t Round = 0; Round < 4000; ++Round) {
    std::string Frame = Corpus[Rng.below(Corpus.size())];
    size_t Mutations = 1 + Rng.below(6);
    for (size_t I = 0; I < Mutations; ++I)
      Frame = mutate(std::move(Frame), Rng);

    // Contract 1: the JSON layer returns a value or a diagnostic.
    JsonParseResult J = parseJson(Frame);
    if (J) {
      ++StillValid;
      // Contract 2: anything that parses re-serializes and re-parses to
      // the same spelling (writer/parser agreement).
      std::string Out = writeJson(J.Value);
      JsonParseResult Back = parseJson(Out);
      ASSERT_TRUE(Back) << "writer emitted unparseable: " << Out;
      EXPECT_EQ(writeJson(Back.Value), Out);
    } else {
      EXPECT_FALSE(J.Error.empty());
    }

    // Contract 3: the request layer accepts or rejects, never throws.
    ParsedRequest P = parseRequest(Frame);
    if (!P.Ok) {
      EXPECT_FALSE(P.Error.empty());
    }
  }
  // The sweep must exercise both paths, not collapse into all-garbage.
  EXPECT_GT(StillValid, 0u);
  EXPECT_LT(StillValid, 4000u);
}

TEST(ProtocolFuzz, RandomBytesNeverCrashTheParsers) {
  Lcg Rng(0xbadc0deULL);
  for (size_t Round = 0; Round < 1000; ++Round) {
    std::string Junk;
    size_t Len = Rng.below(64);
    for (size_t I = 0; I < Len; ++I)
      Junk.push_back(
          static_cast<char>(static_cast<unsigned char>(Rng.next() & 0xff)));
    parseJson(Junk);
    parseRequest(Junk); // reaching the next round is the assertion
  }
  SUCCEED();
}
