//===- tests/ArithPropertyTest.cpp - Randomized algebraic identities ------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based tests for the exact-arithmetic layer, driven by the
// testgen Rng so every run replays the identical value stream. BigInt and
// Rational underlie every model, every simplex pivot and every coefficient
// normalization; an algebraic identity failing here invalidates the whole
// solver stack, so these check the ring/field laws directly on values big
// enough to cross the multi-limb paths.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"
#include "testgen/Rng.h"

#include <gtest/gtest.h>

using namespace mucyc;

namespace {

/// Random BigInt with up to \p Limbs32 32-bit limbs (sign included), built
/// from the string path so multi-limb carries are exercised independently
/// of the arithmetic being tested.
BigInt genBig(Rng &R, unsigned Limbs32 = 3) {
  BigInt V(static_cast<int64_t>(R.next() >> 16));
  for (unsigned I = 1, N = 1 + static_cast<unsigned>(R.below(Limbs32)); I < N;
       ++I)
    V = V * BigInt(static_cast<int64_t>(1) << 32) +
        BigInt(static_cast<int64_t>(R.next() & 0xffffffffull));
  return R.oneIn(2) ? -V : V;
}

BigInt genNonZeroBig(Rng &R, unsigned Limbs32 = 3) {
  for (;;) {
    BigInt V = genBig(R, Limbs32);
    if (!V.isZero())
      return V;
  }
}

Rational genRat(Rng &R) {
  return Rational(genBig(R), genNonZeroBig(R, 2));
}

Rational genNonZeroRat(Rng &R) {
  for (;;) {
    Rational V = genRat(R);
    if (!V.isZero())
      return V;
  }
}

constexpr unsigned Trials = 500;

TEST(ArithProperty, BigIntRingLaws) {
  Rng R(Rng::deriveSeed(0xA1, 0));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt A = genBig(R), B = genBig(R), C = genBig(R);
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A * B) * C, A * (B * C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + (-A), BigInt(0));
    EXPECT_EQ(A - B, A + (-B));
    EXPECT_EQ(A * BigInt(1), A);
    EXPECT_EQ(A * BigInt(0), BigInt(0));
  }
}

TEST(ArithProperty, BigIntDivModIdentities) {
  Rng R(Rng::deriveSeed(0xA1, 1));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt A = genBig(R), D = genNonZeroBig(R, 2);
    BigInt Q, Rem;
    BigInt::divMod(A, D, Q, Rem);
    EXPECT_EQ(Q * D + Rem, A);            // Division identity.
    EXPECT_LT(Rem.abs(), D.abs());        // Remainder bound.
    EXPECT_EQ(A / D, Q);
    EXPECT_EQ(A % D, Rem);
    // Truncating remainder takes the dividend's sign (or is zero).
    if (!Rem.isZero())
      EXPECT_EQ(Rem.sgn(), A.sgn());
    // Floor division identity with the Euclidean remainder.
    BigInt FQ = A.floorDiv(D);
    BigInt FR = A - FQ * D;
    EXPECT_LT(FR.abs(), D.abs());
    if (!FR.isZero())
      EXPECT_EQ(FR.sgn(), D.sgn()); // Floor remainder follows the divisor.
    BigInt EM = A.euclidMod(D);
    EXPECT_GE(EM, BigInt(0));
    EXPECT_LT(EM, D.abs());
    EXPECT_EQ((A - EM) % D, BigInt(0));
  }
}

TEST(ArithProperty, BigIntGcdLcm) {
  Rng R(Rng::deriveSeed(0xA1, 2));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt A = genNonZeroBig(R, 2), B = genNonZeroBig(R, 2);
    BigInt G = BigInt::gcd(A, B);
    EXPECT_GT(G, BigInt(0));
    EXPECT_EQ(A % G, BigInt(0));
    EXPECT_EQ(B % G, BigInt(0));
    BigInt L = BigInt::lcm(A, B);
    EXPECT_EQ(L % A, BigInt(0));
    EXPECT_EQ(L % B, BigInt(0));
    EXPECT_EQ(G * L, (A * B).abs()); // gcd * lcm = |a*b|.
    EXPECT_EQ(BigInt::gcd(A / G, B / G), BigInt(1)); // Coprime quotients.
  }
}

TEST(ArithProperty, BigIntToStringRoundTrip) {
  Rng R(Rng::deriveSeed(0xA1, 3));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt A = genBig(R, 4);
    EXPECT_EQ(BigInt::fromString(A.toString()), A);
  }
}

TEST(ArithProperty, RationalFieldLaws) {
  Rng R(Rng::deriveSeed(0xA1, 4));
  for (unsigned I = 0; I < Trials; ++I) {
    Rational A = genRat(R), B = genRat(R), C = genRat(R);
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + (-A), Rational(0));
    EXPECT_EQ(A - B, A + (-B));
    Rational NZ = genNonZeroRat(R);
    EXPECT_EQ(NZ * NZ.inverse(), Rational(1));
    EXPECT_EQ(A / NZ, A * NZ.inverse());
  }
}

// Construction always normalizes: coprime, positive denominator, 0 = 0/1.
// Every structural-equality use (hash consing, model comparison) rests on
// this invariant.
TEST(ArithProperty, RationalNormalization) {
  Rng R(Rng::deriveSeed(0xA1, 5));
  for (unsigned I = 0; I < Trials; ++I) {
    Rational A = genRat(R);
    EXPECT_GT(A.den(), BigInt(0));
    EXPECT_EQ(BigInt::gcd(A.num(), A.den()), BigInt(1));
    if (A.isZero())
      EXPECT_TRUE(A.den().isOne());
    // Scaling numerator and denominator never changes the value.
    BigInt K = genNonZeroBig(R, 1);
    EXPECT_EQ(Rational(A.num() * K, A.den() * K), A);
  }
}

TEST(ArithProperty, RationalOrderingConsistency) {
  Rng R(Rng::deriveSeed(0xA1, 6));
  for (unsigned I = 0; I < Trials; ++I) {
    Rational A = genRat(R), B = genRat(R), C = genRat(R);
    EXPECT_EQ(A.compare(B), -B.compare(A));
    if (A < B && B < C)
      EXPECT_LT(A, C);
    if (A < B) { // Order is translation- and positive-scaling-invariant.
      EXPECT_LT(A + C, B + C);
      Rational P = genNonZeroRat(R);
      if (P.sgn() < 0)
        P = -P;
      EXPECT_LT(A * P, B * P);
    }
    // floor/ceil bracket the value.
    EXPECT_LE(Rational(A.floor()), A);
    EXPECT_LT(A, Rational(A.floor() + BigInt(1)));
    EXPECT_GE(Rational(A.ceil()), A);
  }
}

TEST(ArithProperty, RationalToStringRoundTrip) {
  Rng R(Rng::deriveSeed(0xA1, 7));
  for (unsigned I = 0; I < Trials; ++I) {
    Rational A = genRat(R);
    EXPECT_EQ(Rational::fromString(A.toString()), A);
  }
}

//===----------------------------------------------------------------------===
// Small/heap representation frontier
//===----------------------------------------------------------------------===
//
// The fast path keeps values inline in an int64 and spills to heap limbs on
// overflow, so the dangerous inputs sit at the representation boundary:
// ±2^31 (limb edge), ±2^62..2^63 (inline edge, carry chains), and mixed
// small×big operands. Each trial computes once on the fast path and once
// under ScopedForceHeap, and the results must be equal with equal hashes —
// the heap path is the reference semantics.

/// Operand biased to the representation frontier.
BigInt genFrontier(Rng &R) {
  uint64_t Mag;
  switch (R.below(4)) {
  case 0: // Around ±2^31.
    Mag = (uint64_t(1) << 31) + R.below(7) - 3;
    break;
  case 1: // Around ±2^62..2^63: one carry away from spilling.
    Mag = (uint64_t(1) << 62) + (R.next() >> 3);
    break;
  case 2: // Multi-limb: already past the inline domain.
    return genNonZeroBig(R, 3);
  default: // Plain small.
    Mag = R.next() >> 33;
    break;
  }
  BigInt V(static_cast<int64_t>(Mag & INT64_MAX));
  return R.oneIn(2) ? -V : V;
}

/// Recomputes \p Op under the force-heap reference and checks agreement.
template <typename OpT>
void expectMatchesForcedHeap(const char *What, OpT Op) {
  BigInt Fast = Op();
  ScopedForceHeap FH(true);
  BigInt Ref = Op();
  EXPECT_EQ(Fast, Ref) << What << ": fast=" << Fast.toString()
                       << " heap=" << Ref.toString();
  EXPECT_EQ(Fast.hash(), Ref.hash()) << What;
  EXPECT_EQ(Fast.toString(), Ref.toString()) << What;
}

TEST(ArithProperty, FrontierOpsMatchForcedHeapReference) {
  Rng R(Rng::deriveSeed(0xA1, 9));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt A = genFrontier(R), B = genFrontier(R);
    expectMatchesForcedHeap("add", [&] { return A + B; });
    expectMatchesForcedHeap("sub", [&] { return A - B; });
    expectMatchesForcedHeap("mul", [&] { return A * B; });
    expectMatchesForcedHeap("neg", [&] { return -A; });
    expectMatchesForcedHeap("gcd", [&] { return BigInt::gcd(A, B); });
    if (!B.isZero()) {
      expectMatchesForcedHeap("quot", [&] { return A / B; });
      expectMatchesForcedHeap("rem", [&] { return A % B; });
      expectMatchesForcedHeap("floorDiv", [&] { return A.floorDiv(B); });
      expectMatchesForcedHeap("euclidMod", [&] { return A.euclidMod(B); });
    }
    // Comparison must agree across every representation pairing.
    int CFast = A.compare(B);
    {
      ScopedForceHeap FH(true);
      BigInt HA = A + BigInt(0), HB = B + BigInt(0); // Heap-rep copies.
      EXPECT_EQ(HA.compare(HB), CFast);
      EXPECT_EQ(A.compare(HB), CFast); // Mixed small vs heap.
      EXPECT_EQ(HA.compare(B), CFast); // Mixed heap vs small.
    }
  }
}

TEST(ArithProperty, CarryChainAcrossInlineEdge) {
  // ±2^62..2^63 chains: repeatedly push a value across the inline edge and
  // back; every intermediate must match the forced-heap reference.
  Rng R(Rng::deriveSeed(0xA1, 10));
  for (unsigned I = 0; I < Trials / 5; ++I) {
    int64_t Start = static_cast<int64_t>((uint64_t(1) << 62) + (R.next() >> 3));
    BigInt Step(static_cast<int64_t>(1 + R.below(1000)));
    auto Chain = [&] {
      BigInt V{Start};
      for (int K = 0; K < 8; ++K)
        V = V + V;      // Doubling: overflows inline within 2 steps.
      for (int K = 0; K < 8; ++K) {
        BigInt Q, Rem;
        BigInt::divMod(V, BigInt(2), Q, Rem);
        V = Q - Step;   // Walk back down across the edge.
      }
      return V;
    };
    expectMatchesForcedHeap("carry-chain", Chain);
  }
}

TEST(ArithProperty, MixedSmallBigDivModGcd) {
  // Mixed small×big operands: one side inline, the other multi-limb.
  Rng R(Rng::deriveSeed(0xA1, 11));
  for (unsigned I = 0; I < Trials; ++I) {
    BigInt Small(static_cast<int64_t>(R.next() >> 32) + 1);
    BigInt Big = genNonZeroBig(R, 3);
    expectMatchesForcedHeap("mixed-gcd-sb",
                            [&] { return BigInt::gcd(Small, Big); });
    expectMatchesForcedHeap("mixed-gcd-bs",
                            [&] { return BigInt::gcd(Big, Small); });
    expectMatchesForcedHeap("mixed-quot", [&] { return Big / Small; });
    expectMatchesForcedHeap("mixed-rem", [&] { return Big % Small; });
    BigInt Q, Rem;
    BigInt::divMod(Big, Small, Q, Rem);
    EXPECT_EQ(Q * Small + Rem, Big);
    // Small dividend, big divisor: quotient 0 (or ±1 at the sign edge).
    expectMatchesForcedHeap("mixed-quot-rev", [&] { return Small / Big; });
  }
}

TEST(ArithProperty, FrontierRationalsMatchForcedHeap) {
  Rng R(Rng::deriveSeed(0xA1, 12));
  for (unsigned I = 0; I < Trials / 2; ++I) {
    BigInt NA = genFrontier(R), DA = genFrontier(R);
    BigInt NB = genFrontier(R), DB = genFrontier(R);
    if (DA.isZero() || DB.isZero())
      continue;
    Rational FastSum = Rational(NA, DA) + Rational(NB, DB);
    Rational FastProd = Rational(NA, DA) * Rational(NB, DB);
    int FastCmp = Rational(NA, DA).compare(Rational(NB, DB));
    ScopedForceHeap FH(true);
    Rational RefSum = Rational(NA, DA) + Rational(NB, DB);
    Rational RefProd = Rational(NA, DA) * Rational(NB, DB);
    EXPECT_EQ(FastSum, RefSum);
    EXPECT_EQ(FastSum.hash(), RefSum.hash());
    EXPECT_EQ(FastProd, RefProd);
    EXPECT_EQ(Rational(NA, DA).compare(Rational(NB, DB)), FastCmp);
  }
}

// The inline lanes of BigInt and Rational + - × must decline every result
// that leaves the small domain: exact hits on INT64_MIN (excluded from it)
// and one step past ±2^63. Operands are built inside each recompute, so
// the reference runs entirely on heap limbs.
TEST(ArithProperty, InlineLanesDeclineTheWordEdge) {
  constexpr int64_t Max = INT64_MAX, Lo = INT64_MIN + 1; // Small domain.
  constexpr int64_t P62 = int64_t(1) << 62, P31 = int64_t(1) << 31;
  constexpr int64_t P32 = int64_t(1) << 32;
  struct EdgeCase {
    const char *What;
    char Op;
    int64_t A, B;
  };
  const EdgeCase Cases[] = {
      {"sum hits INT64_MIN", '+', Lo, -1},
      {"difference hits INT64_MIN", '-', Lo, 1},
      {"product hits INT64_MIN", '*', -P62, 2},
      {"product hits INT64_MIN (limb split)", '*', P32, -P31},
      {"sum just past +2^63", '+', Max, 1},
      {"difference just past +2^63", '-', Max, -1},
      {"product just past +2^63", '*', P62, 2},
      {"product of negatives past +2^63", '*', -P62, -2},
      {"sum just past -2^63", '+', Lo, -2},
      {"difference just past -2^63", '-', Lo, 2},
      {"product just past -2^63", '*', -P62 - 1, 2},
      {"sum back inside from the edge", '+', Max, Lo},
      {"product at the edge, inside", '*', Max, -1},
  };
  auto Apply = [](char Op, const auto &X, const auto &Y) {
    return Op == '+' ? X + Y : Op == '-' ? X - Y : X * Y;
  };
  for (const EdgeCase &EC : Cases) {
    expectMatchesForcedHeap(EC.What, [&] {
      return Apply(EC.Op, BigInt(EC.A), BigInt(EC.B));
    });
    auto RatOp = [&] { return Apply(EC.Op, Rational(EC.A), Rational(EC.B)); };
    Rational Fast = RatOp();
    ScopedForceHeap FH(true);
    Rational Ref = RatOp();
    EXPECT_EQ(Fast, Ref) << EC.What;
    EXPECT_EQ(Fast.hash(), Ref.hash()) << EC.What;
    EXPECT_EQ(Fast.toString(), Ref.toString()) << EC.What;
    EXPECT_TRUE(Fast.isInt()) << EC.What;
  }
}

// Integer operands take the Rational lane; a non-integer or heap-limb
// operand beside them must send the operation down the general path with
// the same result as the forced-heap recompute.
TEST(ArithProperty, RationalIntegerLaneBesideNonIntegers) {
  Rng R(Rng::deriveSeed(0xA1, 13));
  auto Operand = [&R](unsigned Kind) {
    switch (Kind) {
    case 0: // Small integer, near the edge half the time.
      return Rational(R.oneIn(2) ? static_cast<int64_t>(R.next() >> 2)
                                 : static_cast<int64_t>(R.below(2001)) - 1000);
    case 1: // Small non-integer.
      return Rational(static_cast<int64_t>(R.below(2001)) - 1000,
                      static_cast<int64_t>(2 + R.below(50)));
    default: // Multi-limb integer.
      return Rational(genNonZeroBig(R, 3));
    }
  };
  for (unsigned I = 0; I < Trials; ++I) {
    unsigned KA = static_cast<unsigned>(R.below(3));
    unsigned KB = static_cast<unsigned>(R.below(3));
    // Draw the operands once; the recompute rebuilds them from their text
    // so that it runs on heap limbs.
    std::string SA = Operand(KA).toString(), SB = Operand(KB).toString();
    auto Check = [&](const char *What, auto Op) {
      Rational Fast = Op(Rational::fromString(SA), Rational::fromString(SB));
      ScopedForceHeap FH(true);
      Rational Ref = Op(Rational::fromString(SA), Rational::fromString(SB));
      EXPECT_EQ(Fast, Ref) << What << " " << SA << " " << SB;
      EXPECT_EQ(Fast.hash(), Ref.hash()) << What << " " << SA << " " << SB;
      EXPECT_EQ(Fast.toString(), Ref.toString()) << What;
    };
    Check("add", [](const Rational &X, const Rational &Y) { return X + Y; });
    Check("sub", [](const Rational &X, const Rational &Y) { return X - Y; });
    Check("mul", [](const Rational &X, const Rational &Y) { return X * Y; });
    Check("neg", [](const Rational &X, const Rational &) { return -X; });
  }
}

// Delta-rationals order lexicographically: the infinitesimal only breaks
// ties of the real part (the simplex's strict-bound encoding relies on
// exactly this).
TEST(ArithProperty, DeltaRationalOrdering) {
  Rng R(Rng::deriveSeed(0xA1, 8));
  for (unsigned I = 0; I < Trials; ++I) {
    Rational A = genRat(R), B = genRat(R), DA = genRat(R), DB = genRat(R);
    DeltaRational X(A, DA), Y(B, DB);
    if (A != B)
      EXPECT_EQ(X < Y, A < B);
    else
      EXPECT_EQ(X < Y, DA < DB);
    EXPECT_EQ((X + Y) - Y, X);
  }
}

} // namespace
