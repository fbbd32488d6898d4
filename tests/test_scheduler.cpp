// The open-job scheduler: coverage, slot exclusivity, caller
// participation, re-entrant nesting joined by idle workers, determinism
// against the serial path, and first-exception-wins propagation. The
// stress tests double as the ThreadSanitizer targets for the join path.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/scheduler.hpp"

using namespace hpac;

namespace {

/// Bounded spin so a broken scheduler fails a test instead of hanging it.
bool spin_until(const std::function<bool()>& predicate,
                std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  Scheduler scheduler(4);
  EXPECT_EQ(scheduler.workers(), 4u);
  EXPECT_EQ(scheduler.parallelism(), 5u);
  std::vector<int> hits(257, 0);
  // Distinct indices write distinct slots, so no synchronization needed.
  scheduler.parallel_for(hits.size(), [&](std::size_t, std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), static_cast<int>(hits.size()));
}

TEST(Scheduler, IsReusableAcrossJobs) {
  Scheduler scheduler(2);
  int total = 0;
  for (int job = 0; job < 5; ++job) {
    std::vector<int> hits(64, 0);
    scheduler.parallel_for(hits.size(), [&](std::size_t, std::size_t i) { hits[i] = 1; });
    total += std::accumulate(hits.begin(), hits.end(), 0);
  }
  EXPECT_EQ(total, 5 * 64);
}

TEST(Scheduler, SlotsAreInRangeAndExclusive) {
  // A slot belongs to exactly one participating thread for the whole job —
  // the contract that lets the Explorer index forked benchmarks by slot.
  Scheduler scheduler(4);
  constexpr std::size_t kLimit = 3;
  std::vector<std::atomic<int>> in_use(kLimit);
  std::atomic<bool> slot_out_of_range{false};
  std::atomic<bool> slot_collision{false};
  scheduler.parallel_for(
      256,
      [&](std::size_t slot, std::size_t) {
        if (slot >= kLimit) {
          slot_out_of_range = true;
          return;
        }
        if (in_use[slot].fetch_add(1) != 0) slot_collision = true;
        std::this_thread::yield();
        in_use[slot].fetch_sub(1);
      },
      /*max_participants=*/kLimit);
  EXPECT_FALSE(slot_out_of_range.load());
  EXPECT_FALSE(slot_collision.load());
}

TEST(Scheduler, ZeroWorkersRunsInline) {
  Scheduler scheduler(0);
  EXPECT_EQ(scheduler.workers(), 0u);
  std::vector<int> hits(8, 0);
  const auto caller = std::this_thread::get_id();
  scheduler.parallel_for(hits.size(), [&](std::size_t slot, std::size_t i) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    hits[i] = 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

TEST(Scheduler, MaxParticipantsOneRunsInlineOnCaller) {
  Scheduler scheduler(4);
  const auto caller = std::this_thread::get_id();
  std::size_t ran = 0;
  scheduler.parallel_for(
      16,
      [&](std::size_t slot, std::size_t) {
        EXPECT_EQ(slot, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;  // unsynchronized on purpose: serial contract
      },
      /*max_participants=*/1);
  EXPECT_EQ(ran, 16u);
}

TEST(Scheduler, CallerClaimsIndicesInsteadOfParking) {
  // Occupy the only worker with another thread's job, then submit from the
  // main thread: the job must complete entirely on the caller. The old
  // ThreadPool parked the submitting thread on a condition variable, so
  // this scenario starved until the worker freed up.
  Scheduler scheduler(1);
  std::atomic<bool> release{false};
  std::atomic<int> blockers_started{0};
  std::thread occupant([&] {
    scheduler.parallel_for(
        2,
        [&](std::size_t, std::size_t) {
          blockers_started.fetch_add(1);
          ASSERT_TRUE(spin_until([&] { return release.load(); }));
        },
        /*max_participants=*/2);
  });
  // Both blocker indices running: one on the occupant thread, one on the
  // worker (proving the worker joined the occupant's open job).
  ASSERT_TRUE(spin_until([&] { return blockers_started.load() == 2; }));

  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  scheduler.parallel_for(8, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 8);

  release = true;
  occupant.join();
}

TEST(Scheduler, NestedParallelForCompletes) {
  Scheduler scheduler(2);
  std::atomic<int> leaves{0};
  scheduler.parallel_for(3, [&](std::size_t, std::size_t) {
    scheduler.parallel_for(4, [&](std::size_t, std::size_t) {
      scheduler.parallel_for(5, [&](std::size_t, std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 3 * 4 * 5);
}

TEST(Scheduler, NestedTicketsAreStolenByIdleWorkers) {
  // An inner job whose two indices each wait for the other to start can
  // only finish if a second thread joins — i.e. if an idle worker joins
  // the nested job. Under the old binary worker gate this pattern was
  // impossible: nested fan-out from a task ran serial, full stop.
  Scheduler scheduler(2);
  std::atomic<int> started{0};
  std::atomic<int> saw_both{0};
  scheduler.parallel_for(1, [&](std::size_t, std::size_t) {
    scheduler.parallel_for(2, [&](std::size_t, std::size_t) {
      started.fetch_add(1);
      if (spin_until([&] { return started.load() == 2; })) saw_both.fetch_add(1);
    });
  });
  // BOTH bodies must observe the other one running. If nothing joins the
  // nested job the two indices run sequentially on one thread: the
  // first body's spin times out at started == 1, so saw_both stays at 1
  // and the regression fails loudly instead of passing after a slow spin.
  EXPECT_EQ(saw_both.load(), 2);
}

TEST(Scheduler, ConcurrentNestedJobsAreEachJoined) {
  // Two outer indices run at once (caller + one worker) and each opens an
  // inner job whose two indices wait for each other. Both inner jobs are
  // open at the same time, so both can only finish if the two remaining
  // idle workers join two different open jobs.
  Scheduler scheduler(3);
  std::atomic<int> outer_started{0};
  std::array<std::atomic<int>, 2> started{};
  std::atomic<int> saw_both{0};
  scheduler.parallel_for(2, [&](std::size_t, std::size_t o) {
    outer_started.fetch_add(1);
    ASSERT_TRUE(spin_until([&] { return outer_started.load() == 2; }));
    scheduler.parallel_for(2, [&](std::size_t, std::size_t) {
      started[o].fetch_add(1);
      if (spin_until([&] { return started[o].load() == 2; })) saw_both.fetch_add(1);
    });
  });
  EXPECT_EQ(saw_both.load(), 4);
}

TEST(Scheduler, CrossSchedulerSubmissionGoesThroughTheInbox) {
  // A worker of one scheduler submitting to *another* scheduler opens its
  // job on the target's list, where the target's own worker joins it;
  // nothing about the submitting thread's home scheduler is consulted.
  // The submission completes normally.
  Scheduler outer(4);
  Scheduler inner(1);
  std::atomic<int> leaves{0};
  outer.parallel_for(4, [&](std::size_t, std::size_t) {
    inner.parallel_for(8, [&](std::size_t, std::size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 4 * 8);
}

TEST(Scheduler, NestedFanoutMatchesSerialBitForBit) {
  // Determinism contract: results land at their index, so any interleaving
  // of participants produces the identical output buffer.
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 64;
  std::vector<double> serial(kOuter * kInner);
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      serial[o * kInner + i] =
          static_cast<double>(o + 1) / static_cast<double>(i + 3) + 0.1 * static_cast<double>(i);
    }
  }
  Scheduler scheduler(3);
  std::vector<double> nested(kOuter * kInner, -1.0);
  scheduler.parallel_for(kOuter, [&](std::size_t, std::size_t o) {
    scheduler.parallel_for(kInner, [&](std::size_t, std::size_t i) {
      nested[o * kInner + i] =
          static_cast<double>(o + 1) / static_cast<double>(i + 3) + 0.1 * static_cast<double>(i);
    });
  });
  EXPECT_EQ(serial, nested);  // exact, not approximate
}

TEST(Scheduler, PropagatesFirstExceptionAndStaysUsable) {
  Scheduler scheduler(2);
  EXPECT_THROW(scheduler.parallel_for(16,
                                      [](std::size_t, std::size_t i) {
                                        if (i == 3) throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
  std::vector<int> hits(4, 0);
  scheduler.parallel_for(hits.size(), [&](std::size_t, std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(Scheduler, ExceptionInNestedJobPropagatesToItsOwnCaller) {
  // The inner join rethrows inside the outer body; the outer body turns it
  // into a value, so the outer join must complete cleanly — exceptions
  // follow the join structure, not the worker that happened to run the
  // task.
  Scheduler scheduler(2);
  std::atomic<int> caught{0};
  scheduler.parallel_for(3, [&](std::size_t, std::size_t) {
    try {
      scheduler.parallel_for(8, [](std::size_t, std::size_t i) {
        if (i == 5) throw Error("inner failure");
      });
    } catch (const Error&) {
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), 3);
}

TEST(Scheduler, StressRepeatedThrowingJobsDoNotDeadlock) {
  // A task throwing mid-job must leave the scheduler consistent: the
  // caller sees the exception (nothing dropped silently) and the next job
  // runs normally. Loop to shake out lost-wakeup interleavings.
  Scheduler scheduler(8);
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::atomic<int> executed{0};
    try {
      scheduler.parallel_for(256, [&](std::size_t, std::size_t i) {
        if (i % 7 == 0) throw std::runtime_error("boom");
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error&) {
    }
    EXPECT_LT(executed.load(), 256);
    std::atomic<int> clean{0};
    scheduler.parallel_for(64, [&](std::size_t, std::size_t) {
      clean.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(clean.load(), 64);
  }
}

TEST(Scheduler, StressConcurrentThrowsKeepFirstException) {
  // First-exception-wins across participants, joined workers included:
  // every task throws, exactly one exception must surface per job.
  Scheduler scheduler(8);
  for (int iteration = 0; iteration < 25; ++iteration) {
    EXPECT_THROW(scheduler.parallel_for(128,
                                        [&](std::size_t, std::size_t) {
                                          throw Error("every task throws");
                                        }),
                 Error);
  }
}

TEST(Scheduler, ShutdownAfterJobsDoesNotHang) {
  // Construct, run work, and destroy immediately as the join returns —
  // repeatedly. A lost stop notification or a worker stuck on a finished
  // job would deadlock here.
  for (int iteration = 0; iteration < 40; ++iteration) {
    Scheduler scheduler(4);
    std::atomic<int> executed{0};
    scheduler.parallel_for(64, [&](std::size_t, std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(executed.load(), 64);
  }
}

TEST(Scheduler, StealStressManySubmittersWithNesting) {
  // TSan target: external submitters racing to open jobs on the one list
  // while their nested jobs are opened, joined and dropped by workers.
  Scheduler scheduler(4);
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::atomic<long long> leaves{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        scheduler.parallel_for(8, [&](std::size_t, std::size_t) {
          scheduler.parallel_for(4, [&](std::size_t, std::size_t) {
            leaves.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(leaves.load(), static_cast<long long>(kThreads) * kRounds * 8 * 4);
}

TEST(Scheduler, RecommendedThreadsClamps) {
  EXPECT_EQ(Scheduler::recommended_threads(8, 3), 3u);
  EXPECT_EQ(Scheduler::recommended_threads(2, 100), 2u);
  EXPECT_EQ(Scheduler::recommended_threads(5, 0), 1u);
  EXPECT_GE(Scheduler::recommended_threads(0, 100), 1u);
}

TEST(Scheduler, SharedInstanceIsStealReady) {
  // The process-wide instance must keep joining exercisable even on
  // one-core machines — every layer of the harness relies on it.
  EXPECT_GE(Scheduler::shared().workers(), 2u);
  EXPECT_EQ(Scheduler::shared().parallelism(), Scheduler::shared().workers() + 1);
  std::atomic<int> ran{0};
  Scheduler::shared().parallel_for(32, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}
