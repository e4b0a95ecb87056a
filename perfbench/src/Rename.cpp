//===- perfbench/src/Rename.cpp - Seeded alpha-renaming of SMT-LIB --------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Rename.h"

#include <cctype>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

struct Token {
  size_t Pos, Len;
};

/// Parentheses and atoms, skipping whitespace and ';' comments.
std::vector<Token> tokenize(const std::string &T) {
  std::vector<Token> Out;
  size_t I = 0;
  while (I < T.size()) {
    char C = T[I];
    if (C == ';') {
      while (I < T.size() && T[I] != '\n')
        ++I;
    } else if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
    } else if (C == '(' || C == ')') {
      Out.push_back({I, 1});
      ++I;
    } else {
      size_t J = I;
      if (C == '|') {
        J = T.find('|', I + 1);
        J = J == std::string::npos ? T.size() : J + 1;
      } else {
        while (J < T.size() && T[J] != '(' && T[J] != ')' && T[J] != ';' &&
               !std::isspace(static_cast<unsigned char>(T[J])))
          ++J;
      }
      Out.push_back({I, J - I});
      I = J;
    }
  }
  return Out;
}

} // namespace

std::string alphaRename(const std::string &Text, uint64_t Seed) {
  std::vector<Token> Toks = tokenize(Text);
  auto At = [&](size_t K) -> std::string_view {
    return K < Toks.size() ? std::string_view(Text).substr(Toks[K].Pos,
                                                           Toks[K].Len)
                           : std::string_view();
  };

  Rng R(Seed);
  std::unordered_map<std::string, std::string> Map;
  auto Declare = [&](std::string_view Name) {
    std::string Key(Name);
    if (Map.count(Key))
      return;
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "r%06llx_%zu",
                  static_cast<unsigned long long>(R.next() & 0xffffff),
                  Map.size());
    Map.emplace(std::move(Key), Buf);
  };
  for (size_t K = 0; K + 1 < Toks.size(); ++K) {
    if (At(K) == "(" && At(K + 1) == "declare-fun") {
      Declare(At(K + 2));
    } else if ((At(K) == "forall" || At(K) == "exists") && At(K + 1) == "(") {
      // Binder list: ((name sort) ...); sorts may be parenthesized.
      size_t J = K + 2;
      while (At(J) == "(") {
        Declare(At(J + 1));
        int Depth = 1;
        for (J += 2; J < Toks.size() && Depth > 0; ++J)
          Depth += At(J) == "(" ? 1 : At(J) == ")" ? -1 : 0;
      }
    }
  }

  std::string Out;
  Out.reserve(Text.size() + Text.size() / 4);
  size_t Copied = 0;
  for (const Token &T : Toks) {
    auto It = Map.find(std::string(Text, T.Pos, T.Len));
    if (It == Map.end())
      continue;
    Out.append(Text, Copied, T.Pos - Copied);
    Out += It->second;
    Copied = T.Pos + T.Len;
  }
  Out.append(Text, Copied, std::string::npos);
  return Out;
}

} // namespace perfbench
