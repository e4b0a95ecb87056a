//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests ------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Rename.h"
#include "Stats.h"
#include "Trace.h"

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "chc/Fingerprint.h"
#include "runtime/Request.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(Percentile, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5}, 99), 5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 90), 9);
}

TEST(Percentile, TailRuleKeepsTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(1000).Percentile, 99);
  EXPECT_EQ(tailPercentile(999).Percentile, 95);
  EXPECT_EQ(tailPercentile(350).Percentile, 95);
  EXPECT_EQ(tailPercentile(100).Percentile, 90);
  EXPECT_EQ(tailPercentile(20).Percentile, 50);
  EXPECT_EQ(tailPercentile(19).Percentile, 0);
  EXPECT_EQ(tailPercentile(10000).Percentile, 99.9);
  EXPECT_EQ(tailPercentile(350).Samples, 350u);
}

TEST(Failures, Classification) {
  EXPECT_EQ(classifyVerdict("sat", "sat", ""), Failure::None);
  EXPECT_EQ(classifyVerdict("sat", "unsat", ""), Failure::WrongVerdict);
  EXPECT_EQ(classifyVerdict("unsat", "sat", ""), Failure::WrongVerdict);
  // Unknown at the refine budget does not fail; it is just not solved.
  EXPECT_EQ(classifyVerdict("sat", "unknown",
                            "resource-exhausted-steps: refine-step budget "
                            "exhausted (60 steps)"),
            Failure::None);
  EXPECT_EQ(classifyVerdict("sat", "unknown", ""), Failure::None);
  EXPECT_EQ(classifyVerdict("sat", "unknown",
                            "timeout: deadline of 20000 ms expired"),
            Failure::Deadline);
  // The same code from another step budget (QE, lemma rounds) is an error.
  EXPECT_EQ(classifyVerdict("sat", "unknown",
                            "resource-exhausted-steps: lemma budget"),
            Failure::Error);
  EXPECT_EQ(classifyVerdict("sat", "unknown", "worker-crashed-signal: 11"),
            Failure::Error);
}

TEST(Failures, TallyCountsFailedAgainstAttempted) {
  FailureTally T;
  for (Failure F : {Failure::None, Failure::None, Failure::WrongVerdict,
                    Failure::Deadline, Failure::Overloaded, Failure::Broken})
    T.add(F);
  EXPECT_EQ(T.Attempted, 6u);
  EXPECT_EQ(T.Failed, 4u);
  EXPECT_EQ(T.Wrong, 1u);
  EXPECT_EQ(T.ByKind[static_cast<int>(Failure::Deadline)], 1u);
  EXPECT_EQ(T.ByKind[static_cast<int>(Failure::Overloaded)], 1u);
}

TEST(Digest, IgnoresOrder) {
  EXPECT_EQ(orderFreeDigest({"a", "b", "c"}), orderFreeDigest({"c", "a", "b"}));
  EXPECT_NE(orderFreeDigest({"a", "b"}), orderFreeDigest({"a", "c"}));
}

namespace {

Span span(Entry E, uint64_t S, uint64_t End, uint32_t Parent,
          uint32_t Req = 1) {
  Span Sp;
  Sp.Name = E;
  Sp.StartNs = S;
  Sp.EndNs = End;
  Sp.Parent = Parent;
  Sp.Request = Req;
  return Sp;
}

constexpr uint32_t Root = Span::NoParent;

} // namespace

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // solve [0,100) > itp [10,40) > check [15,25); solve > mbp [50,90)
  std::vector<Span> S = {span(Entry::SolverSolve, 0, 100, Root),
                         span(Entry::Interpolate, 10, 40, 0),
                         span(Entry::SmtCheck, 15, 25, 1),
                         span(Entry::Mbp, 50, 90, 0)};
  std::vector<uint64_t> Self = selfTimesNs(S);
  EXPECT_EQ(Self[0], 30u);
  EXPECT_EQ(Self[1], 20u);
  EXPECT_EQ(Self[2], 10u);
  EXPECT_EQ(Self[3], 40u);
}

TEST(SelfTime, LayerFoldAttributesNestedSpans) {
  RequestTable Req;
  uint32_t Yld = Req.add("ind_yld");
  uint32_t Audit = Req.add("", RequestTable::Kind::Audit);
  uint32_t Daemon = Req.add("", RequestTable::Kind::Daemon);
  const uint64_t Ms = 1000000;
  std::vector<Span> S = {
      span(Entry::SolverSolve, 0, 100 * Ms, Root, Yld),        // 0
      span(Entry::Interpolate, 10 * Ms, 40 * Ms, 0, Yld),      // 1
      span(Entry::SmtImplies, 12 * Ms, 20 * Ms, 1, Yld),       // 2
      span(Entry::SmtCheck, 20 * Ms, 30 * Ms, 1, Yld),         // 3
      span(Entry::ArithCheck, 21 * Ms, 24 * Ms, 3, Yld),       // 4
      span(Entry::SatSolve, 24 * Ms, 25 * Ms, 3, Yld),         // 5
      span(Entry::ArithCheck, 50 * Ms, 52 * Ms, 0, Yld),       // 6: uncovered
      span(Entry::VerifyInvariant, 200 * Ms, 210 * Ms, Root, Audit),
      span(Entry::SmtCheck, 201 * Ms, 209 * Ms, 7, Audit),     // excluded
      span(Entry::SmtCheck, 300 * Ms, 301 * Ms, Root, Daemon), // 9
  };
  auto M = summarizeSpans({S}, Req, {"ind_yld", "solve"});
  EXPECT_DOUBLE_EQ(M["solver.solve_s"].Value, 0.1);
  EXPECT_DOUBLE_EQ(M["solver.self_s"].Value, 0.1 - 0.030 - 0.002);
  EXPECT_DOUBLE_EQ(M["solver.solve_s.ind_yld"].Value, 0.1);
  EXPECT_EQ(M["solver.solve_s.solve"].Samples, 0u);
  EXPECT_DOUBLE_EQ(M["itp.s"].Value, 0.030);
  EXPECT_DOUBLE_EQ(M["itp.smt_s"].Value, 0.018);
  EXPECT_DOUBLE_EQ(M["itp.implies_s"].Value, 0.008);
  EXPECT_EQ(M["smt.check_calls"].Value, 3); // audit check excluded
  // Only checks of requests solved in this process are compared with
  // their SolveStats.
  EXPECT_EQ(M["smt.in_process_check_calls"].Value, 2);
  EXPECT_EQ(M["smt.theory_calls"].Value, 2);
  EXPECT_DOUBLE_EQ(M["smt.theory_s"].Value, 0.005);
  EXPECT_DOUBLE_EQ(M["trace.smt_uncovered_s"].Value, 0.002);
  EXPECT_EQ(M["solver.verify_calls"].Value, 1);
  EXPECT_DOUBLE_EQ(M["solver.verify_s"].Value, 0.010);
}

namespace {

std::string fingerprintOf(const std::string &Text) {
  mucyc::TermContext Ctx;
  mucyc::TextSource Src(Text);
  mucyc::NormalizedChc N = Src.build(Ctx);
  return mucyc::fingerprintNormalized(Ctx, N).hex();
}

} // namespace

TEST(Rename, SeededAlphaRenamingPreservesFingerprint) {
  for (const mucyc::BenchInstance &B : mucyc::buildSuite()) {
    mucyc::TermContext Ctx;
    mucyc::NormalizedChc N = B.Build(Ctx);
    std::string Text = mucyc::exportSmtLib(Ctx, N);
    std::string Fp = fingerprintOf(Text);
    for (uint64_t Seed : {1ull, 7ull, 12345ull}) {
      std::string Renamed = alphaRename(Text, Seed);
      EXPECT_NE(Renamed, Text) << B.Name;
      EXPECT_EQ(Renamed, alphaRename(Text, Seed)) << B.Name;
      EXPECT_EQ(fingerprintOf(Renamed), Fp) << B.Name << " seed " << Seed;
    }
    EXPECT_NE(alphaRename(Text, 1), alphaRename(Text, 2)) << B.Name;
  }
}
