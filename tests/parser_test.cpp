#include "parser/parser.h"

#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

TEST(ParserTest, ParsesUniversityExample) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  EXPECT_EQ(doc.schema.relations().size(), 2u);
  EXPECT_EQ(doc.schema.methods().size(), 2u);
  const AccessMethod* ud = doc.schema.FindMethod("ud");
  ASSERT_NE(ud, nullptr);
  EXPECT_TRUE(ud->IsInputFree());
  EXPECT_EQ(ud->bound_kind, BoundKind::kResultBound);
  EXPECT_EQ(ud->bound, 100u);
  EXPECT_EQ(doc.schema.constraints().tgds.size(), 1u);
  EXPECT_EQ(doc.queries.size(), 2u);
  EXPECT_TRUE(doc.schema.Validate().ok());
}

TEST(ParserTest, QueryConstantsAndVariables) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  const ConjunctiveQuery& q1 = doc.queries.at("Q1");
  EXPECT_EQ(q1.free_variables().size(), 1u);
  ASSERT_EQ(q1.atoms().size(), 1u);
  EXPECT_TRUE(q1.atoms()[0].args[0].IsVariable());
  EXPECT_TRUE(q1.atoms()[0].args[2].IsConstant());
  EXPECT_EQ(universe.TermName(q1.atoms()[0].args[2]), "10000");
}

TEST(ParserTest, TgdHeadOnlyVariablesAreExistential) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  const Tgd& tau = doc.schema.constraints().tgds[0];
  EXPECT_TRUE(tau.IsUid());
  EXPECT_EQ(tau.ExistentialVariables().size(), 2u);
}

TEST(ParserTest, ParsesFds) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityFd, &universe);
  ASSERT_EQ(doc.schema.constraints().fds.size(), 1u);
  const Fd& fd = doc.schema.constraints().fds[0];
  EXPECT_EQ(fd.determiners, (std::vector<uint32_t>{0}));
  EXPECT_EQ(fd.determined, 1u);
}

TEST(ParserTest, ParsesFacts) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
fact R("x", "y")
fact R("x", "z")
)",
                                 &universe);
  EXPECT_EQ(doc.data.NumFacts(), 2u);
}

TEST(ParserTest, MultiAtomBodies) {
  Universe universe;
  ParsedDocument doc = MustParse(kExample61, &universe);
  ASSERT_EQ(doc.schema.constraints().tgds.size(), 2u);
  EXPECT_EQ(doc.schema.constraints().tgds[0].body().size(), 2u);
}

TEST(ParserTest, ErrorsAreReported) {
  Universe universe;
  // Unknown relation.
  EXPECT_FALSE(ParseDocument("tgd R(x) -> S(x)", &universe).ok());
  // Arity mismatch.
  EXPECT_FALSE(
      ParseDocument("relation R(a, b)\nfact R(\"x\")", &universe).ok());
  // Facts require constants.
  EXPECT_FALSE(
      ParseDocument("relation R(a)\nfact R(x)", &universe).ok());
  // Unknown statement.
  EXPECT_FALSE(ParseDocument("frobnicate R", &universe).ok());
  // Unterminated string.
  EXPECT_FALSE(
      ParseDocument("relation R(a)\nfact R(\"x)", &universe).ok());
}

// Reads a document under tests/data.
std::string ReadTestData(const std::string& file) {
  std::ifstream in(std::string(RBDA_TEST_DATA_DIR) + "/" + file);
  EXPECT_TRUE(in.is_open()) << file;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ParserTest, NumbersPastTheirRangeAreInvalidArguments) {
  // Past 2^64 std::stoul threw; past 2^32 the cast wrapped 4294967297 to a
  // bound of 1. Both are refused, on the line that holds them.
  for (const std::string& text :
       {ReadTestData("huge_limit.rbda"),
        std::string("relation R(a, b)\n"
                    "method m on R inputs(0) limit 4294967297\n"),
        std::string("relation R(a, b)\n"
                    "method m on R inputs(4294967296)\n"),
        std::string("relation R(a, b)\n"
                    "fd R: 99999999999999999999999 -> 1\n")}) {
    Universe universe;
    StatusOr<ParsedDocument> doc = ParseDocument(text, &universe);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(doc.status().message().find("out of range"), std::string::npos)
        << doc.status().ToString();
  }
  // The largest bound still parses.
  Universe universe;
  ParsedDocument doc = MustParse(
      "relation R(a, b)\nmethod m on R inputs(0) limit 4294967295\n",
      &universe);
  EXPECT_EQ(doc.schema.FindMethod("m")->bound, 4294967295u);
}

TEST(ParserTest, FdPositionsAreCheckedAgainstTheArity) {
  Universe universe;
  StatusOr<ParsedDocument> doc =
      ParseDocument(ReadTestData("fd_out_of_range.rbda"), &universe);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(doc.status().message().find("line 6"), std::string::npos)
      << doc.status().ToString();
  for (const char* fd : {"fd R: 2 -> 1", "fd R: 0 -> 2", "fd R: 0, 5 -> 1"}) {
    Universe u;
    EXPECT_EQ(ParseDocument(std::string("relation R(a, b)\n") + fd, &u)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << fd;
  }
  Universe u;
  ParsedDocument ok = MustParse("relation R(a, b)\nfd R: -> 1\n", &u);
  EXPECT_TRUE(ok.schema.Validate().ok());
}

TEST(ParserTest, ErrorsMentionLineNumbers) {
  Universe universe;
  StatusOr<ParsedDocument> doc =
      ParseDocument("relation R(a)\n\nbadness here", &universe);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos);
}

TEST(ParserTest, LowerLimitKeyword) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method m on R inputs(0) lowerlimit 7
)",
                                 &universe);
  const AccessMethod* m = doc.schema.FindMethod("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->bound_kind, BoundKind::kResultLowerBound);
  EXPECT_EQ(m->bound, 7u);
}

TEST(ParserTest, CommentsAndBlankLines) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
# a comment
relation R(a)   # trailing comment

)",
                                 &universe);
  EXPECT_EQ(doc.schema.relations().size(), 1u);
}

TEST(ParserTest, ParseQueryStandalone) {
  Universe universe;
  MustParse("relation R(a, b)", &universe);
  StatusOr<ConjunctiveQuery> q = ParseQuery("Q(x) :- R(x, y)", &universe);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->free_variables().size(), 1u);
}

}  // namespace
}  // namespace rbda
