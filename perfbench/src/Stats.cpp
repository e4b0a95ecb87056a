//===- perfbench/src/Stats.cpp - Failure accounting and digests -----------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "runtime/ResultStore.h"

#include <cstdio>

namespace perfbench {

const char *failureName(Failure F) {
  switch (F) {
  case Failure::None:
    return "none";
  case Failure::WrongVerdict:
    return "wrong-verdict";
  case Failure::Deadline:
    return "deadline";
  case Failure::Error:
    return "error";
  case Failure::ServeError:
    return "serve-error";
  case Failure::Overloaded:
    return "overloaded";
  case Failure::Broken:
    return "broken";
  }
  return "?";
}

Failure classifyVerdict(const std::string &Expected, const std::string &Got,
                        const std::string &ErrorText) {
  if (Got == "sat" || Got == "unsat")
    return Got == Expected ? Failure::None : Failure::WrongVerdict;
  if (ErrorText.empty())
    return Got == "unknown" ? Failure::None : Failure::Error;
  if (ErrorText.rfind("timeout", 0) == 0)
    return Failure::Deadline;
  if (ErrorText.rfind("resource-exhausted-steps: refine-step budget", 0) == 0)
    return Failure::None;
  return Failure::Error;
}

std::string orderFreeDigest(std::vector<std::string> Lines) {
  std::sort(Lines.begin(), Lines.end());
  std::string Joined;
  for (const std::string &L : Lines)
    Joined += L + "\n";
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(
                    mucyc::ResultStore::fnv1a64(Joined)));
  return Buf;
}

} // namespace perfbench
