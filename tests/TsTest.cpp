//===- tests/TsTest.cpp - BTOR2 frontend and encoder tests ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The transition-system frontend end to end: the checked-in golden .btor2
// corpus must produce its annotated verdict under every engine with the
// independent Verify certification on, the generator's whole output space
// must survive print -> parse -> re-encode alpha-fingerprint-identically,
// and a BTOR2 submission must flow through the SolveRequest result store
// exactly like an SMT-LIB2 one — including warm hits on alpha-renamed
// resubmissions.
//
//===----------------------------------------------------------------------===//

#include "chc/Fingerprint.h"
#include "runtime/Request.h"
#include "testgen/TsGen.h"
#include "ts/Btor2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace mucyc;

namespace {

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  EXPECT_TRUE(In.good()) << "cannot open " << P;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Golden .btor2 files in tests/corpus/, sorted for deterministic order.
std::vector<std::filesystem::path> goldenFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(MUCYC_TEST_CORPUS_DIR))
    if (Entry.path().extension() == ".btor2" &&
        Entry.path().filename().string().rfind("ok-", 0) == 0)
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// First-line annotation "; expect: sat|unsat" of a golden file.
ChcStatus expectedVerdict(const std::string &Text,
                          const std::string &Name) {
  size_t Eol = Text.find('\n');
  std::string First = Text.substr(0, Eol);
  EXPECT_EQ(First.rfind("; expect: ", 0), 0u)
      << Name << ": golden files must start with '; expect: sat|unsat'";
  std::string V = First.substr(10);
  EXPECT_TRUE(V == "sat" || V == "unsat") << Name << ": bad verdict " << V;
  return V == "sat" ? ChcStatus::Sat : ChcStatus::Unsat;
}

//===----------------------------------------------------------------------===
// Golden corpus: every engine, Verify-certified
//===----------------------------------------------------------------------===

struct EngineCase {
  const char *Name;
  EngineKind Kind;
};

const EngineCase Engines[] = {
    {"Ret", EngineKind::Ret},
    {"Yld", EngineKind::Yld},
    {"SpacerTs", EngineKind::SpacerTs},
    {"Solve", EngineKind::Solve},
};

TEST(TsGolden, AllEnginesAgreeWithAnnotationsCertified) {
  std::vector<std::filesystem::path> Files = goldenFiles();
  ASSERT_FALSE(Files.empty())
      << "no ok-*.btor2 goldens in " MUCYC_TEST_CORPUS_DIR;
  for (const auto &P : Files) {
    std::string Text = readFile(P);
    ChcStatus Want = expectedVerdict(Text, P.filename().string());
    for (const EngineCase &E : Engines) {
      SCOPED_TRACE(P.filename().string() + " engine=" + E.Name);
      SolverOptions Opts;
      Opts.Engine = E.Kind;
      Opts.VerifyResult = true;
      Opts.MaxRefineSteps = 20000; // Divergence fails the test, not CI.
      SolveResponse R = solveRequest(
          SolveRequest::fromText(Text, Opts, /*Preprocess=*/true,
                                 InputFormat::Btor2));
      EXPECT_EQ(R.Status, Want)
          << chcStatusName(R.Status) << " " << R.Error.Detail;
      EXPECT_FALSE(R.VerifyFailed) << R.VerifyNote;
    }
  }
}

// The golden corpus must exercise both verdicts and all three variable
// flavors the frontend supports (bitvec state, input, native int).
TEST(TsGolden, CorpusCoversBothVerdictsAndIntSorts) {
  bool SawSat = false, SawUnsat = false, SawInt = false, SawInput = false;
  for (const auto &P : goldenFiles()) {
    std::string Text = readFile(P);
    ChcStatus Want = expectedVerdict(Text, P.filename().string());
    (Want == ChcStatus::Sat ? SawSat : SawUnsat) = true;
    if (Text.find("sort int") != std::string::npos)
      SawInt = true;
    if (Text.find(" input ") != std::string::npos)
      SawInput = true;
  }
  EXPECT_TRUE(SawSat && SawUnsat && SawInt && SawInput);
}

//===----------------------------------------------------------------------===
// Encoder shape
//===----------------------------------------------------------------------===

// {iota, tau, beta}: one predicate, one init clause, one transition clause,
// one query per bad — the paper's linear normal form by construction, so
// normalize() has no copying or QE to do.
TEST(TsEncoder, ProducesLinearNormalFormShape) {
  const char *Text = "1 sort bitvec 4\n"
                     "2 state 1 c\n"
                     "3 input 1 step\n"
                     "4 zero 1\n"
                     "5 init 1 2 4\n"
                     "6 add 1 2 3\n"
                     "7 next 1 2 6\n"
                     "8 sort bitvec 1\n"
                     "9 constd 1 12\n"
                     "10 ugt 8 2 9\n"
                     "11 bad 10\n"
                     "12 constd 1 3\n"
                     "13 ult 8 2 12\n"
                     "14 bad 13\n";
  TermContext Ctx;
  Btor2Result BR = parseBtor2(Ctx, Text);
  ASSERT_TRUE(BR.Ok) << BR.Error;
  ChcSystem Sys = BR.Ts->encodeChc();
  ASSERT_EQ(Sys.numPreds(), 1u);
  // State + input tuple, all Int-sorted.
  EXPECT_EQ(Sys.pred(PredId(0)).ArgSorts.size(), 2u);
  for (Sort S : Sys.pred(PredId(0)).ArgSorts)
    EXPECT_EQ(S, Sort::Int);
  ASSERT_EQ(Sys.clauses().size(), 4u); // init + trans + 2 queries.
  unsigned Facts = 0, Rules = 0, Queries = 0;
  for (const Clause &C : Sys.clauses()) {
    if (C.isQuery())
      ++Queries;
    else if (C.Body.empty())
      ++Facts;
    else
      ++Rules;
  }
  EXPECT_EQ(Facts, 1u);
  EXPECT_EQ(Rules, 1u);
  EXPECT_EQ(Queries, 2u);
}

TEST(TsEncoder, RequiresABadProperty) {
  TermContext Ctx;
  TransitionSystem Ts(Ctx);
  Ts.addState("s", 4);
  EXPECT_THROW(Ts.encodeChc(), MucycError);
}

//===----------------------------------------------------------------------===
// Generator round-trip properties (200 fixed seeds)
//===----------------------------------------------------------------------===

TEST(TsRoundTrip, PrintParseReEncodeFingerprintStable) {
  for (uint64_t I = 0; I < 200; ++I) {
    SCOPED_TRACE("seed=" + std::to_string(I));
    Rng R(Rng::deriveSeed(0x7517, I));
    Btor2Program Prog = genBtor2(R, TsGenKnobs{});
    std::string Text = printBtor2(Prog);

    TermContext C1;
    Btor2Result B1 = parseBtor2(C1, Text);
    ASSERT_TRUE(B1.Ok) << B1.Error << "\n" << Text;
    // Token-level print is a fixed point.
    EXPECT_EQ(printBtor2(B1.Program), Text);

    // Re-encoding from an independent context (different VarIds, different
    // interning order) may not move the canonical fingerprint.
    TermContext C2;
    Btor2Result B2 = parseBtor2(C2, Text);
    ASSERT_TRUE(B2.Ok);
    ChcSystem S1 = B1.Ts->encodeChc();
    ChcSystem S2 = B2.Ts->encodeChc();
    ChcFingerprint F1 = fingerprintNormalized(C1, normalize(S1).Sys);
    ChcFingerprint F2 = fingerprintNormalized(C2, normalize(S2).Sys);
    EXPECT_EQ(F1.hex(), F2.hex()) << Text;
  }
}

//===----------------------------------------------------------------------===
// Through the unified request API
//===----------------------------------------------------------------------===

const char SafeCounterBtor2[] = "1 sort bitvec 8\n"
                                "2 state 1 count\n"
                                "3 zero 1\n"
                                "4 init 1 2 3\n"
                                "5 constd 1 200\n"
                                "6 sort bitvec 1\n"
                                "7 ult 6 2 5\n"
                                "8 inc 1 2\n"
                                "9 ite 1 7 8 2\n"
                                "10 next 1 2 9\n"
                                "11 constd 1 250\n"
                                "12 eq 6 2 11\n"
                                "13 bad 12\n";

/// Same machine, alpha-renamed symbol (and re-annotated ids preserved):
/// must fingerprint identically and be served warm.
const char SafeCounterBtor2Renamed[] = "1 sort bitvec 8\n"
                                       "2 state 1 kounter\n"
                                       "3 zero 1\n"
                                       "4 init 1 2 3\n"
                                       "5 constd 1 200\n"
                                       "6 sort bitvec 1\n"
                                       "7 ult 6 2 5\n"
                                       "8 inc 1 2\n"
                                       "9 ite 1 7 8 2\n"
                                       "10 next 1 2 9\n"
                                       "11 constd 1 250\n"
                                       "12 eq 6 2 11\n"
                                       "13 bad 12\n";

TEST(TsRequest, Btor2IsAutoSniffedAndSolved) {
  SolveRequest Req =
      SolveRequest::fromText(SafeCounterBtor2, SolverOptions{});
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Sat);
}

TEST(TsRequest, Btor2WarmHitOnAlphaRenamedResubmission) {
  ResultStore Store; // Memory tier only.
  SolveResponse Cold = solveRequest(
      SolveRequest::fromText(SafeCounterBtor2, SolverOptions{}), &Store,
      nullptr);
  ASSERT_EQ(Cold.Status, ChcStatus::Sat);
  EXPECT_EQ(Cold.Cache, CacheSource::None);
  ASSERT_FALSE(Cold.Fingerprint.empty());

  SolveResponse Warm = solveRequest(
      SolveRequest::fromText(SafeCounterBtor2Renamed, SolverOptions{}),
      &Store, nullptr);
  EXPECT_EQ(Warm.Status, ChcStatus::Sat);
  EXPECT_EQ(Warm.Cache, CacheSource::Memory);
  EXPECT_EQ(Warm.Attempts, 0u); // Served, not solved.
  EXPECT_TRUE(Warm.CacheVerified);
  EXPECT_EQ(Warm.Fingerprint, Cold.Fingerprint);
}

TEST(TsRequest, ExplicitFormatOverridesSniff) {
  // BTOR2 text forced through the SMT-LIB2 parser must fail as input
  // error, not crash; and the reverse: --format btor2 on SMT-LIB2 text.
  SolveRequest AsSmt =
      SolveRequest::fromText(SafeCounterBtor2, SolverOptions{},
                             /*Preprocess=*/true, InputFormat::SmtLib2);
  SolveResponse R1 = solveRequest(AsSmt);
  EXPECT_EQ(R1.Status, ChcStatus::Unknown);
  EXPECT_EQ(R1.Error.Code, ErrorCode::InputError);

  SolveRequest AsBtor = SolveRequest::fromText(
      "(set-logic HORN)\n(check-sat)\n", SolverOptions{},
      /*Preprocess=*/true, InputFormat::Btor2);
  SolveResponse R2 = solveRequest(AsBtor);
  EXPECT_EQ(R2.Status, ChcStatus::Unknown);
  EXPECT_EQ(R2.Error.Code, ErrorCode::InputError);
}

//===----------------------------------------------------------------------===
// Malformed-input corpus
//===----------------------------------------------------------------------===

// Every bad-ts-*.btor2 file must be rejected in-band with a diagnostic —
// parseBtor2 never asserts and never throws for input-shaped failures.
TEST(TsMalformed, BadCorpusRejectedWithDiagnostics) {
  unsigned Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(MUCYC_TEST_CORPUS_DIR)) {
    std::string Name = Entry.path().filename().string();
    if (Entry.path().extension() != ".btor2" ||
        Name.rfind("bad-", 0) != 0)
      continue;
    SCOPED_TRACE(Name);
    ++Seen;
    TermContext Ctx;
    Btor2Result BR = parseBtor2(Ctx, readFile(Entry.path()));
    EXPECT_FALSE(BR.Ok);
    EXPECT_FALSE(BR.Error.empty()) << "rejection must carry a diagnostic";
  }
  EXPECT_GE(Seen, 8u) << "bad-ts corpus shrank";
}

} // namespace
