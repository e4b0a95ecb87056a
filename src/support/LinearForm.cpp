//===- support/LinearForm.cpp - Sparse linear forms -----------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/LinearForm.h"

using namespace mucyc;

void LinearForm::addScaled(const LinearForm &Src, const Rational &Scale) {
  if (Scale.isZero() || Src.empty())
    return;
  if (&Src == this) {
    LinearForm Copy = Src;
    return addScaled(Copy, Scale);
  }
  std::vector<Entry> Out;
  Out.reserve(Entries.size() + Src.size());
  auto I = Entries.begin(), IE = Entries.end();
  auto J = Src.Entries.begin(), JE = Src.Entries.end();
  while (I != IE || J != JE) {
    if (J == JE || (I != IE && I->first < J->first)) {
      Out.push_back(std::move(*I++));
      continue;
    }
    Rational C = J->second * Scale;
    if (I != IE && I->first == J->first) {
      C += I->second;
      ++I;
    }
    if (!C.isZero())
      Out.emplace_back(J->first, std::move(C));
    ++J;
  }
  Entries = std::move(Out);
}

bool LinearForm::isNegationOf(const LinearForm &Other) const {
  if (Entries.size() != Other.Entries.size())
    return false;
  for (size_t I = 0; I < Entries.size(); ++I)
    if (Entries[I].first != Other.Entries[I].first ||
        -Entries[I].second != Other.Entries[I].second)
      return false;
  return true;
}
