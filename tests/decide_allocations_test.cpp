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
// fewer.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

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

// About 15% above the count of 154,870 measured when the ceiling was set.
// Before the fact store's one-table postings, the flat delta marks, the
// sorted-vector TGD analysis and the single-atom rule constructor, the
// same documents made 219,830 allocations.
constexpr uint64_t kCeiling = 178'000;

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
