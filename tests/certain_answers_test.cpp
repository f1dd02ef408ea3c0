#include "chase/certain_answers.h"

#include "gtest/gtest.h"

namespace rbda {
namespace {

class CertainAnswersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *universe_.AddRelation("R", 2);
    p_ = *universe_.AddRelation("P", 1);
    t_ = *universe_.AddRelation("T", 1);
    x_ = universe_.Variable("x");
    y_ = universe_.Variable("y");
    a_ = universe_.Constant("a");
    b_ = universe_.Constant("b");
  }
  Universe universe_;
  RelationId r_, p_, t_;
  Term x_, y_, a_, b_;
};

TEST_F(CertainAnswersTest, EntailedBooleanAnswer) {
  // Σ: P(x) -> ∃y R(x,y). From P(a), "∃xy R(x,y)" is certain even though
  // no R fact is present.
  ConstraintSet sigma;
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                          std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance data;
  data.AddFact(p_, {a_});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(r_, {x_, y_})});
  StatusOr<CertainAnswersResult> result =
      CertainAnswers(q, data, sigma, &universe_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete);
  ASSERT_EQ(result->answers.size(), 1u);  // the empty tuple
  EXPECT_TRUE(result->answers[0].empty());
}

TEST_F(CertainAnswersTest, NullsAreNotCertainAnswerValues) {
  // Same setup, but ask for the R-values: the witness y is a labeled null,
  // so only x = a is certain.
  ConstraintSet sigma;
  sigma.tgds.emplace_back(std::vector<Atom>{Atom(p_, {x_})},
                          std::vector<Atom>{Atom(r_, {x_, y_})});
  Instance data;
  data.AddFact(p_, {a_});
  ConjunctiveQuery first({Atom(r_, {x_, y_})}, {x_});
  ConjunctiveQuery second({Atom(r_, {x_, y_})}, {y_});
  StatusOr<CertainAnswersResult> firsts =
      CertainAnswers(first, data, sigma, &universe_);
  StatusOr<CertainAnswersResult> seconds =
      CertainAnswers(second, data, sigma, &universe_);
  ASSERT_TRUE(firsts.ok() && seconds.ok());
  ASSERT_EQ(firsts->answers.size(), 1u);
  EXPECT_EQ(firsts->answers[0][0], a_);
  EXPECT_TRUE(seconds->answers.empty());
}

TEST_F(CertainAnswersTest, PlainEvaluationWithoutConstraints) {
  ConstraintSet sigma;
  Instance data;
  data.AddFact(r_, {a_, b_});
  ConjunctiveQuery q({Atom(r_, {x_, y_})}, {y_});
  StatusOr<CertainAnswersResult> result =
      CertainAnswers(q, data, sigma, &universe_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0][0], b_);
}

TEST_F(CertainAnswersTest, InconsistencyIsReported) {
  ConstraintSet sigma;
  sigma.fds.emplace_back(r_, std::vector<uint32_t>{0}, 1);
  Instance data;
  data.AddFact(r_, {a_, b_});
  data.AddFact(r_, {a_, universe_.Constant("c")});
  ConjunctiveQuery q = ConjunctiveQuery::Boolean({Atom(t_, {x_})});
  StatusOr<CertainAnswersResult> result =
      CertainAnswers(q, data, sigma, &universe_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->inconsistent);
}

TEST_F(CertainAnswersTest, BudgetMarksIncomplete) {
  // Non-terminating chase: the sound subset comes back with
  // complete=false.
  ConstraintSet sigma;
  sigma.tgds.emplace_back(
      std::vector<Atom>{Atom(r_, {x_, y_})},
      std::vector<Atom>{Atom(r_, {y_, universe_.Variable("z")})});
  Instance data;
  data.AddFact(r_, {a_, b_});
  ConjunctiveQuery q({Atom(r_, {x_, y_})}, {x_});
  ChaseOptions options;
  options.max_rounds = 3;
  StatusOr<CertainAnswersResult> result =
      CertainAnswers(q, data, sigma, &universe_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->complete);
  EXPECT_GE(result->answers.size(), 2u);  // a and b are already certain
}

}  // namespace
}  // namespace rbda
