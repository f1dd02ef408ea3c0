// The paper's worked examples as documents, with the verdicts the paper
// states for them. The correctness gates decide them on every run.
#ifndef PERFBENCH_PAPER_EXAMPLES_H_
#define PERFBENCH_PAPER_EXAMPLES_H_

#include <string>

#include "core/answerability.h"
#include "core/simplification.h"
#include "obs/json.h"
#include "parser/parser.h"

namespace perfbench {

// Examples 1.1-1.2: university directory, no result bounds. Q1 is
// answerable through the directory and then the Prof lookup.
inline constexpr char kUniversityNoBounds[] = R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
method ud on Udirectory inputs()
tgd Prof(i, n, s) -> Udirectory(i, a, p)
query Q1(n) :- Prof(i, n, "10000")
query Q2() :- Udirectory(i, a, p)
)";

// Example 1.3: ud returns at most 100 tuples, which breaks Q1; Q2 stays
// answerable as an existence check.
inline constexpr char kUniversityBounded[] = R"(
relation Prof(id, name, salary)
relation Udirectory(id, address, phone)
method pr on Prof inputs(0)
method ud on Udirectory inputs() limit 100
tgd Prof(i, n, s) -> Udirectory(i, a, p)
query Q1(n) :- Prof(i, n, "10000")
query Q2() :- Udirectory(i, a, p)
)";

// Example 1.5: the FD id -> address makes Q3 answerable through a bound-1
// lookup; the phone is not determined, so Qphone is not.
inline constexpr char kUniversityFd[] = R"(
relation Udirectory(id, address, phone)
method ud2 on Udirectory inputs(0) limit 1
fd Udirectory: 0 -> 1
query Q3(a) :- Udirectory("12345", a, p)
query Qphone(p) :- Udirectory("12345", a, p)
)";

// Example 6.1: Q is answerable, but not under the existence-check
// simplification; choice simplification is needed.
inline constexpr char kExample61[] = R"(
relation T(x)
relation S(x)
method mtS on S inputs() limit 1
method mtT on T inputs(0)
tgd T(y) & S(x) -> T(x)
tgd T(y) -> S(x)
query Q() :- T(y)
)";

// Decides one of the paper's worked examples and compares with the verdict
// the paper states. `boolean` drops the free variables, as the paper's
// Boolean reading of Q1 does; otherwise free variables are frozen.
inline bool ExampleHolds(const char* text, const char* query, bool boolean,
                         bool simplify_existence_check,
                         rbda::Answerability expected,
                         rbda::JsonObjectWriter* out,
                         const std::string& label) {
  rbda::Universe universe;
  rbda::StatusOr<rbda::ParsedDocument> doc =
      rbda::ParseDocument(text, &universe);
  bool holds = false;
  if (doc.ok() && doc->queries.count(query) > 0) {
    rbda::ConjunctiveQuery q = doc->queries.at(query);
    if (boolean) q = rbda::ConjunctiveQuery::Boolean(q.atoms());
    rbda::ServiceSchema schema =
        simplify_existence_check
            ? rbda::ExistenceCheckSimplification(doc->schema)
            : doc->schema;
    rbda::StatusOr<rbda::Decision> d =
        rbda::DecideQueryAnswerability(schema, q);
    holds = d.ok() && d->complete && d->verdict == expected;
  }
  out->AddBool(label, holds);
  return holds;
}

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_EXAMPLES_H_
