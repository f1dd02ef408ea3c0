// An allocation ceiling for the decide path. This binary replaces the
// global operator new and delete with counting versions, decides a fixed
// set of documents (the first 500 of the seed-1 GenerateCaseDocument
// population that perfbench's decide_mix workload shuffles, at its
// budgets) and counts the heap allocations made inside each decide,
// including the teardown of its result. Generating and parsing a document
// happen outside the counted window.
//
// The count is exact: the decide path is single-threaded and
// deterministic, so a run repeats it to the allocation, and a change that
// makes the containment kernels allocate more shows up here before it
// shows in a timed benchmark. Builds that elide allocations only count
// fewer. The same counter bounds the allocations of compiling one trigger
// plan, which every saturation loop does per TGD per check.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "chase/trigger_plan.h"
#include "core/answerability.h"
#include "fuzz/fuzzer.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replaced operator new allocates with malloc, so free is the match;
// GCC cannot see that once it inlines a new/delete pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace rbda {
namespace {

constexpr uint64_t kDocuments = 500;

// About 15% above the count of 128,411 measured when the ceiling was set.
// Before the flat trigger plans and the chase's reused dedup table, the
// same documents made 154,870 allocations; before the fact store's
// one-table postings, the flat delta marks, the sorted-vector TGD analysis
// and the single-atom rule constructor, 219,830.
constexpr uint64_t kCeiling = 148'000;

// The allocations of compiling `tgd` into a trigger plan, destruction
// included.
uint64_t CompileAllocations(const Tgd& tgd) {
  allocations = 0;
  counting = true;
  { CompiledTgd plan(tgd); }
  counting = false;
  return allocations.load();
}

TEST(DecideAllocationsTest, OneAtomPlansCompileInAFewAllocations) {
  Universe universe;
  RelationId r = *universe.AddRelation("R", 3);
  RelationId s = *universe.AddRelation("S", 3);
  Term x = universe.Variable("x");
  Term y = universe.Variable("y");
  Term z = universe.Variable("z");
  Term w = universe.Variable("w");
  // R(x,y,z) -> ∃w S(y,w,x), and the full R(x,y,y) -> S(y,x,x) with
  // repeated variables.
  const Tgd existential(Atom(r, {x, y, z}), Atom(s, {y, w, x}));
  const Tgd full(Atom(r, {x, y, y}), Atom(s, {y, x, x}));
  const uint64_t existential_count = CompileAllocations(existential);
  const uint64_t full_count = CompileAllocations(full);
  std::printf("plan allocations: existential %llu, full %llu\n",
              static_cast<unsigned long long>(existential_count),
              static_cast<unsigned long long>(full_count));
  EXPECT_LE(existential_count, 6u);
  EXPECT_LE(full_count, 6u);
}

TEST(DecideAllocationsTest, FixedDocumentsStayUnderTheCeiling) {
  FuzzOptions fuzz;
  fuzz.seed = 1;
  fuzz.max_mutations = 2;
  DecisionOptions options;  // decide_mix's budgets
  options.chase.max_rounds = 40;
  options.chase.max_facts = 4000;
  options.linear_depth_cap = 150;
  options.linear_max_facts = 2500;

  uint64_t decided = 0;
  // The first pass warms what a process allocates once (metric handles,
  // static tables); the second is counted.
  for (int pass = 0; pass < 2; ++pass) {
    allocations = 0;
    decided = 0;
    for (uint64_t i = 0; i < kDocuments; ++i) {
      const std::string text = GenerateCaseDocument(fuzz, i, nullptr);
      Universe universe;
      StatusOr<ParsedDocument> doc = ParseDocument(text, &universe);
      ASSERT_TRUE(doc.ok()) << text;
      if (doc->queries.empty()) continue;
      counting = true;
      {
        StatusOr<Decision> d = DecideQueryAnswerability(
            doc->schema, doc->queries.begin()->second, options);
        decided += d.ok();
      }
      counting = false;
    }
  }
  const uint64_t count = allocations.load();
  std::printf("decide allocations over %llu documents (%llu decided): %llu\n",
              static_cast<unsigned long long>(kDocuments),
              static_cast<unsigned long long>(decided),
              static_cast<unsigned long long>(count));
  RecordProperty("allocations", std::to_string(count));
  EXPECT_GT(decided, kDocuments * 9 / 10);
  EXPECT_GT(count, 0u);
  EXPECT_LE(count, kCeiling);
}

}  // namespace
}  // namespace rbda
