// Byte-level mutation of .rbda text. Every document under examples/schemas
// and tests/data is mutated with seeded byte flips, inserted and deleted
// bytes, and duplicated lines. Every mutant must parse to a document or a
// Status, and every query of a mutant that parses must decide, at small
// budgets and under the unrestricted and the finite semantics, to a
// decision or a Status: hostile text never aborts the process.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "core/answerability.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace rbda {
namespace {

constexpr uint64_t kSeed = 0x5eed'7e47;
constexpr int kMutantsPerDocument = 150;

// The .rbda documents under the two directories, in path order.
std::vector<std::filesystem::path> Documents() {
  std::vector<std::filesystem::path> out;
  for (const char* dir : {RBDA_EXAMPLES_DIR, RBDA_TEST_DATA_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".rbda") out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Bytes the grammar gives meaning to; half the inserted bytes come from
// here, so mutants reach past the first token more often.
constexpr std::string_view kSyntax = "(),:-> \n\"#0123456789xRQ";

// Applies one to three mutations: flip a bit of a byte, insert a byte,
// delete a byte, or duplicate a line.
std::string Mutate(std::string text, Rng* rng) {
  for (uint64_t n = 1 + rng->Below(3); n > 0; --n) {
    switch (rng->Below(4)) {
      case 0:
        if (!text.empty()) {
          text[rng->Below(text.size())] ^= static_cast<char>(
              1u << rng->Below(8));
        }
        break;
      case 1: {
        const char byte = rng->Chance(1, 2)
                              ? kSyntax[rng->Below(kSyntax.size())]
                              : static_cast<char>(rng->Below(256));
        text.insert(text.begin() + rng->Below(text.size() + 1), byte);
        break;
      }
      case 2:
        if (!text.empty()) text.erase(rng->Below(text.size()), 1);
        break;
      case 3: {
        if (text.empty()) break;
        // The line holding byte `at`, its newline included.
        const size_t at = rng->Below(text.size());
        size_t begin = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
        begin = begin == std::string::npos ? 0 : begin + 1;
        size_t end = text.find('\n', at);
        end = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(begin, end - begin);
        text.insert(end, line.back() == '\n' ? line : "\n" + line);
        break;
      }
    }
  }
  return text;
}

TEST(TextMutationTest, MutantsParseAndDecideToAStatusOrADecision) {
  DecisionOptions options;
  options.chase.max_rounds = 8;
  options.chase.max_facts = 400;
  options.linear_depth_cap = 20;
  options.linear_max_facts = 400;

  const std::vector<std::filesystem::path> documents = Documents();
  ASSERT_GE(documents.size(), 8u);
  uint64_t parsed = 0;
  uint64_t decided = 0;
  uint64_t refused = 0;
  for (size_t d = 0; d < documents.size(); ++d) {
    const std::string original = ReadFile(documents[d]);
    Rng rng(kSeed + d);
    for (int i = 0; i < kMutantsPerDocument; ++i) {
      const std::string text = Mutate(original, &rng);
      SCOPED_TRACE(documents[d].filename().string() + " mutant " +
                   std::to_string(i) + ":\n" + text);
      Universe universe;
      StatusOr<ParsedDocument> doc = ParseDocument(text, &universe);
      if (!doc.ok()) {
        EXPECT_FALSE(doc.status().ToString().empty());
        continue;
      }
      ++parsed;
      for (const auto& [name, query] : doc->queries) {
        StatusOr<Decision> unrestricted =
            DecideQueryAnswerability(doc->schema, query, options);
        FrozenQuery frozen = FreezeQuery(query, &universe);
        DecisionOptions adjusted = options;
        adjusted.accessible_constants = frozen.accessible_constants;
        StatusOr<Decision> finite = DecideFiniteMonotoneAnswerability(
            doc->schema, frozen.boolean_q, adjusted);
        for (const StatusOr<Decision>* result : {&unrestricted, &finite}) {
          if (result->ok()) {
            ++decided;
          } else {
            ++refused;
            EXPECT_FALSE(result->status().ToString().empty());
          }
        }
      }
    }
  }
  std::printf("%zu documents, %llu mutants parsed, %llu decisions, %llu "
              "refusals\n",
              documents.size(), static_cast<unsigned long long>(parsed),
              static_cast<unsigned long long>(decided),
              static_cast<unsigned long long>(refused));
  // The seeds reach both sides of the parser and the decider.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace rbda
