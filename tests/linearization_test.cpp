#include "core/linearization.h"

#include <chrono>
#include <fstream>
#include <sstream>

#include "chase/containment.h"
#include "core/answerability.h"
#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

std::vector<LinearizedMethod> PlainMethods(const ServiceSchema& schema,
                                           bool visible_outputs) {
  std::vector<LinearizedMethod> out;
  for (const AccessMethod& m : schema.methods()) {
    LinearizedMethod lm;
    lm.method = &m;
    lm.kept_positions = m.input_positions;
    lm.visible_outputs = visible_outputs;
    out.push_back(std::move(lm));
  }
  return out;
}

Answerability RunLinear(const ServiceSchema& schema,
                        const ConjunctiveQuery& q,
                        const std::vector<LinearizedMethod>& methods) {
  StatusOr<LinearizedProblem> lin = LinearizeAnswerability(schema, q, methods);
  EXPECT_TRUE(lin.ok()) << lin.status().ToString();
  if (!lin.ok()) return Answerability::kUnknown;
  Universe* u = const_cast<Universe*>(&schema.universe());
  ContainmentOutcome outcome = CheckLinearContainmentFrom(
      lin->start, lin->goal, lin->tgds, u,
      std::min<uint64_t>(lin->jk_depth_bound, 2000));
  switch (outcome.verdict) {
    case ContainmentVerdict::kContained:
      return Answerability::kAnswerable;
    case ContainmentVerdict::kNotContained:
      return Answerability::kNotAnswerable;
    default:
      return Answerability::kUnknown;
  }
}

TEST(SaturationTest, AccessRuleMakesEverythingAccessible) {
  Universe u;
  ServiceSchema schema(&u);
  RelationId r = *schema.AddRelation("R", 3);
  AccessMethod m{"m", r, {0}, BoundKind::kNone, 0};
  ASSERT_TRUE(schema.AddMethod(m).ok());
  TruncatedSaturation sat(schema.constraints().tgds, schema.methods(), u, 1);
  EXPECT_EQ(sat.Closure(r, 0b001), 0b111u);  // input accessible -> all
  EXPECT_EQ(sat.Closure(r, 0b010), 0b010u);  // non-input: nothing derived
}

TEST(SaturationTest, BoundedMethodsGiveNoAccessRule) {
  Universe u;
  ServiceSchema schema(&u);
  RelationId r = *schema.AddRelation("R", 2);
  AccessMethod m{"m", r, {0}, BoundKind::kResultBound, 5};
  ASSERT_TRUE(schema.AddMethod(m).ok());
  TruncatedSaturation sat(schema.constraints().tgds, schema.methods(), u, 1);
  EXPECT_EQ(sat.Closure(r, 0b01), 0b01u);
}

TEST(SaturationTest, IdPullbackDerivesAxioms) {
  // Prof(i,n,s) -> Udir(i,a,p); method on Udir with input 0 (unbounded).
  // Then accessibility of Prof position 0 flows down: Cl(Prof, {0}) covers
  // nothing on Prof itself (no method), but the derived axiom lets a
  // Prof-rooted chase child know its exported id is "useful".
  Universe u;
  ServiceSchema schema(&u);
  RelationId prof = *schema.AddRelation("Prof", 3);
  RelationId udir = *schema.AddRelation("Udir", 3);
  Term i = u.Variable("i"), n = u.Variable("n"), s = u.Variable("s");
  Term a = u.Variable("a"), p = u.Variable("p");
  schema.constraints().tgds.emplace_back(
      std::vector<Atom>{Atom(prof, {i, n, s})},
      std::vector<Atom>{Atom(udir, {i, a, p})});
  AccessMethod mu{"mu", udir, {0}, BoundKind::kNone, 0};
  ASSERT_TRUE(schema.AddMethod(mu).ok());
  AccessMethod mp{"mp", prof, {1}, BoundKind::kNone, 0};
  ASSERT_TRUE(schema.AddMethod(mp).ok());
  TruncatedSaturation sat(schema.constraints().tgds, schema.methods(), u, 1);
  // Udir: input 0 accessible -> all accessible.
  EXPECT_EQ(sat.Closure(udir, 0b001), 0b111u);
  // Prof: position 1 is the method input -> all; position 0 alone -> only
  // itself (the Udir flow exports nothing back to Prof's other positions).
  EXPECT_EQ(sat.Closure(prof, 0b010), 0b111u);
  EXPECT_EQ(sat.Closure(prof, 0b001), 0b001u);
}

TEST(SaturationTest, PullbackThroughChain) {
  // A(x) -> B(x); B accessible via a Boolean-ish... rather: B has an
  // unbounded input-free method, so everything in B is accessible; that
  // does not make A's position accessible (no value flows back), but an
  // unbounded method on A with input 0 plus the derived chain should close
  // A fully from {0}.
  Universe u;
  ServiceSchema schema(&u);
  RelationId a_rel = *schema.AddRelation("A", 2);
  RelationId b_rel = *schema.AddRelation("B", 2);
  Term x = u.Variable("x"), y = u.Variable("y"), z = u.Variable("z");
  // A(x,y) -> B(y,z): exports A[1] to B[0].
  schema.constraints().tgds.emplace_back(
      std::vector<Atom>{Atom(a_rel, {x, y})},
      std::vector<Atom>{Atom(b_rel, {y, z})});
  AccessMethod mb{"mb", b_rel, {0}, BoundKind::kNone, 0};
  ASSERT_TRUE(schema.AddMethod(mb).ok());
  TruncatedSaturation sat(schema.constraints().tgds, schema.methods(), u, 1);
  // From A position 1: the child B-fact has its position 0 accessible, so
  // the method on B fires and makes B fully accessible; nothing flows back
  // to A position 0 though.
  EXPECT_EQ(sat.Closure(a_rel, 0b10), 0b10u);
  EXPECT_EQ(sat.Closure(b_rel, 0b01), 0b11u);
}

// ---- End-to-end linearized answerability on the paper's ID examples. ----

TEST(LinearizationTest, Example12AnswerableWithoutBounds) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityNoBounds, &u);
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  EXPECT_EQ(RunLinear(doc.schema, q1, PlainMethods(doc.schema, false)),
            Answerability::kAnswerable);
}

TEST(LinearizationTest, Example13NotAnswerableWithBound) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  ConjunctiveQuery q1 =
      ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms());
  EXPECT_EQ(RunLinear(doc.schema, q1, PlainMethods(doc.schema, false)),
            Answerability::kNotAnswerable);
}

TEST(LinearizationTest, Example14AnswerableWithBound) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  EXPECT_EQ(RunLinear(doc.schema, doc.queries.at("Q2"),
                      PlainMethods(doc.schema, false)),
            Answerability::kAnswerable);
}

TEST(LinearizationTest, BoundValueDoesNotMatterForIds) {
  // Thm 4.2 corollary: the verdicts above are identical for any bound.
  for (const char* bound : {"1", "5", "1000"}) {
    Universe u;
    std::string text = std::string(R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
method ud on Udirectory inputs() limit )") +
                       bound + R"(
tgd Prof(i, n, s) -> Udirectory(i, a, p)
query Q1() :- Prof(i, n, "10000")
query Q2() :- Udirectory(i, a, p)
)";
    ParsedDocument doc = MustParse(text, &u);
    EXPECT_EQ(RunLinear(doc.schema,
                        ConjunctiveQuery::Boolean(doc.queries.at("Q1").atoms()),
                        PlainMethods(doc.schema, false)),
              Answerability::kNotAnswerable)
        << bound;
    EXPECT_EQ(RunLinear(doc.schema, doc.queries.at("Q2"),
                        PlainMethods(doc.schema, false)),
              Answerability::kAnswerable)
        << bound;
  }
}

TEST(LinearizationTest, VisibleOutputsEnableDeterminedLookups) {
  // R(a,b) with a bound-1 lookup by position 0. In the visible-outputs
  // regime (choice/UIDs+FDs pipeline) keeping position 1 makes the query
  // R(c1,c2) answerable; keeping only position 0 does not.
  Universe u;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method m on R inputs(0) limit 1
query Q() :- R("c1", "c2")
)",
                                 &u);
  const AccessMethod* m = doc.schema.FindMethod("m");

  LinearizedMethod keep_both;
  keep_both.method = m;
  keep_both.kept_positions = {0, 1};
  keep_both.visible_outputs = true;
  EXPECT_EQ(RunLinear(doc.schema, doc.queries.at("Q"), {keep_both}),
            Answerability::kAnswerable);

  LinearizedMethod keep_input;
  keep_input.method = m;
  keep_input.kept_positions = {0};
  keep_input.visible_outputs = true;
  EXPECT_EQ(RunLinear(doc.schema, doc.queries.at("Q"), {keep_input}),
            Answerability::kNotAnswerable);
}

TEST(LinearizationTest, RejectsNonIdConstraints) {
  Universe u;
  ParsedDocument doc = MustParse(kExample61, &u);  // has a non-ID TGD
  StatusOr<LinearizedProblem> lin = LinearizeAnswerability(
      doc.schema, doc.queries.at("Q"), PlainMethods(doc.schema, false));
  EXPECT_FALSE(lin.ok());
}

TEST(LinearizationTest, ReportsDecomposition) {
  Universe u;
  ParsedDocument doc = MustParse(kUniversityBounded, &u);
  StatusOr<LinearizedProblem> lin =
      LinearizeAnswerability(doc.schema, doc.queries.at("Q2"),
                             PlainMethods(doc.schema, false));
  ASSERT_TRUE(lin.ok());
  EXPECT_GT(lin->num_rules_bounded, 0u);
  EXPECT_GT(lin->num_rules_acyclic, 0u);
  EXPECT_GT(lin->jk_depth_bound, 0u);
  for (const Tgd& tgd : lin->tgds) EXPECT_TRUE(tgd.IsLinear());
}

// A width-14 ID would have the linearizer saturate 2 × 2^14 masks (12 s in
// a Release build before the limit), and an arity-33 relation would shift
// past the 32-bit masks: both documents must end in a Status at once.
TEST(LinearizationTest, WideIdsEndInAStatus) {
  const std::pair<const char*, StatusCode> cases[] = {
      {"wide_id_14.rbda", StatusCode::kResourceExhausted},
      {"wide_id_33.rbda", StatusCode::kInvalidArgument},
  };
  for (const auto& [file, code] : cases) {
    std::ifstream in(std::string(RBDA_TEST_DATA_DIR) + "/" + file);
    ASSERT_TRUE(in.is_open()) << file;
    std::stringstream text;
    text << in.rdbuf();
    Universe u;
    ParsedDocument doc = MustParse(text.str(), &u);
    auto start = std::chrono::steady_clock::now();
    StatusOr<Decision> d =
        DecideQueryAnswerability(doc.schema, doc.queries.at("Q"));
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_EQ(d.status().code(), code) << file << ": " << d.status().ToString();
    EXPECT_LT(elapsed.count(), 1.0) << file;
  }
}

// The limit counts C(arity, ≤ w) masks per relation, plus the full mask
// when it has more than w positions, and admits exactly kMaxTrackedMasks.
TEST(LinearizationTest, MaskLimitCountsSmallMasksPerRelation) {
  struct Case {
    uint32_t arity, width;
    const char* refusal;  // null when admitted
  };
  // Two relations of 2^11, of 2,047 + 1 and of 4,083 + 1 masks each.
  const Case cases[] = {{11, 11, nullptr}, {11, 10, nullptr},
                        {12, 10, "track 8168 position masks"}};
  for (const Case& c : cases) {
    std::string cols, body, head;
    for (uint32_t p = 0; p < c.arity; ++p) {
      std::string sep = p == 0 ? "" : ", ";
      cols += sep + "a" + std::to_string(p);
      body += sep + "x" + std::to_string(p);
      head += sep + (p < c.width ? "x" : "y") + std::to_string(p);
    }
    Universe u;
    ParsedDocument doc = MustParse(
        "relation R(" + cols + ")\nrelation S(" + cols + ")\n" +
            "method m on R inputs(0)\ntgd R(" + body + ") -> S(" + head +
            ")\nquery Q() :- R(" + body + ")\n",
        &u);
    StatusOr<LinearizedProblem> lin = LinearizeAnswerability(
        doc.schema, doc.queries.at("Q"), PlainMethods(doc.schema, false));
    if (c.refusal == nullptr) {
      EXPECT_TRUE(lin.ok()) << c.arity << "/" << c.width << ": "
                            << lin.status().ToString();
    } else {
      EXPECT_EQ(lin.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(lin.status().ToString().find(c.refusal), std::string::npos)
          << lin.status().ToString();
    }
  }
}

}  // namespace
}  // namespace rbda
