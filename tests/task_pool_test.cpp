#include "base/task_pool.h"

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace rbda {
namespace {

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_TRUE(pool.status().ok());
}

TEST(TaskPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  TaskPool pool(2);
  pool.Wait();
  EXPECT_TRUE(pool.status().ok());
}

TEST(TaskPoolTest, StealsWorkAcrossWorkers) {
  // All tasks are submitted from the outside and distributed round-robin;
  // tasks of wildly uneven duration force idle workers to steal. With
  // enough tasks the steal counter is overwhelmingly likely to be nonzero,
  // but the test only asserts completion — steals() is reported so a
  // scheduling regression shows up in the test log, not as flakiness.
  TaskPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&ran, i] {
      volatile uint64_t sink = 0;
      for (int spin = 0; spin < (i % 4 == 0 ? 20000 : 10); ++spin) {
        sink = sink + spin;
      }
      ran.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 200);
  RecordProperty("steals", static_cast<int>(pool.steals()));
}

TEST(TaskPoolTest, NestedSubmissionCompletes) {
  // A task submits follow-up work from inside the pool; Wait() must cover
  // the transitively submitted tasks too.
  TaskPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &ran] {
      EXPECT_TRUE(TaskPool::OnWorkerThread());
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&ran] { ran.fetch_add(1); });
      }
      ran.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 8 * 5);
}

TEST(TaskPoolTest, ExceptionIsCapturedIntoStatus) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([] { throw std::runtime_error("task exploded"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  // Later tasks still ran; the first exception is preserved as a Status.
  EXPECT_EQ(ran.load(), 10);
  Status status = pool.status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("task exploded"), std::string::npos);
}

TEST(TaskPoolTest, OnWorkerThreadFalseOutsidePool) {
  EXPECT_FALSE(TaskPool::OnWorkerThread());
}

TEST(ParallelForTest, SerialPathRunsInIndexOrder) {
  std::vector<size_t> order;
  Status s = ParallelFor(5, 1, [&order](size_t i) {
    order.push_back(i);
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ParallelRunsEveryIndexExactlyOnce) {
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  Status s = ParallelFor(kN, 8, [&hits](size_t i) {
    hits[i].fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, FirstErrorByIndexWinsAtAnyJobCount) {
  for (size_t jobs : {size_t{1}, size_t{8}}) {
    Status s = ParallelFor(100, jobs, [](size_t i) {
      if (i == 97) return Status::Internal("late failure");
      if (i == 13) return Status::InvalidArgument("early failure");
      return Status::Ok();
    });
    ASSERT_FALSE(s.ok()) << "jobs=" << jobs;
    EXPECT_NE(s.ToString().find("early failure"), std::string::npos)
        << "jobs=" << jobs << " reported: " << s.ToString();
  }
}

TEST(ParallelForTest, ExceptionBecomesStatusAtAnyJobCount) {
  for (size_t jobs : {size_t{1}, size_t{8}}) {
    Status s = ParallelFor(10, jobs, [](size_t i) -> Status {
      if (i == 3) throw std::runtime_error("thrown in body");
      return Status::Ok();
    });
    ASSERT_FALSE(s.ok()) << "jobs=" << jobs;
    EXPECT_NE(s.ToString().find("thrown in body"), std::string::npos);
  }
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a pool worker must degrade to the
  // serial path instead of spawning a nested pool.
  Status s = ParallelFor(4, 4, [](size_t) {
    EXPECT_TRUE(TaskPool::OnWorkerThread());
    std::vector<size_t> inner_order;
    Status inner = ParallelFor(3, 4, [&inner_order](size_t j) {
      inner_order.push_back(j);
      return Status::Ok();
    });
    EXPECT_TRUE(inner.ok());
    EXPECT_EQ(inner_order, (std::vector<size_t>{0, 1, 2}));
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
}

TEST(ParallelMapTest, CollectsResultsByIndexAtAnyJobCount) {
  for (size_t jobs : {size_t{1}, size_t{8}}) {
    StatusOr<std::vector<int>> out = ParallelMap<int>(
        50, jobs,
        [](size_t i) -> StatusOr<int> { return static_cast<int>(i * i); });
    ASSERT_TRUE(out.ok()) << "jobs=" << jobs;
    ASSERT_EQ(out->size(), 50u);
    for (size_t i = 0; i < 50; ++i) {
      EXPECT_EQ((*out)[i], static_cast<int>(i * i));
    }
  }
}

TEST(ParallelMapTest, ErrorDiscardsResults) {
  StatusOr<std::vector<int>> out =
      ParallelMap<int>(10, 4, [](size_t i) -> StatusOr<int> {
        if (i == 5) return Status::Internal("map failure");
        return static_cast<int>(i);
      });
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("map failure"), std::string::npos);
}

TEST(ResolveJobsTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveJobs(3), 3u);
}

TEST(ResolveJobsTest, FallsBackToEnvThenSerial) {
  ::unsetenv("RBDA_JOBS");
  EXPECT_EQ(ResolveJobs(0), 1u);
  ::setenv("RBDA_JOBS", "6", /*overwrite=*/1);
  EXPECT_EQ(ResolveJobs(0), 6u);
  ::setenv("RBDA_JOBS", "not-a-number", 1);
  EXPECT_EQ(ResolveJobs(0), 1u);
  ::unsetenv("RBDA_JOBS");
}

TEST(ResolveJobsTest, HardwareJobsIsPositive) {
  EXPECT_GE(HardwareJobs(), 1u);
}

}  // namespace
}  // namespace rbda
