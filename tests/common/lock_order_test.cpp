// Lock-order checks over pe::Mutex / SharedMutex / CondVar.
//
// Lock-order cycles are caught at run time by TSan's deadlock detector
// (tools/check.sh thread). The LockOrderTest cases run in every build;
// under TSan they pin "no false positive" for the acquisition patterns
// the code base relies on. The death tests exist only under TSan: each
// provokes an inversion in a re-executed child and expects TSan's
// "lock-order-inversion" report plus its failure exit code (66).
#include "common/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

namespace pe {
namespace {

TEST(LockOrderTest, ConsistentOrderIsSilent) {
  Mutex a;
  Mutex b;
  for (int i = 0; i < 100; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  // Same order from another thread.
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) {
      MutexLock la(a);
      MutexLock lb(b);
    }
  });
  t.join();
}

TEST(LockOrderTest, TryLockInReverseOrderDoesNotAbort) {
  // try_lock cannot deadlock (it backs off), so a reverse-order attempt
  // must not be reported as an inversion.
  Mutex a;
  Mutex b;
  {
    MutexLock la(a);
    MutexLock lb(b);  // a -> b
  }
  {
    MutexLock lb(b);
    ASSERT_TRUE(a.try_lock());
    a.unlock();
  }
}

TEST(LockOrderTest, CondVarWaitReacquiresCleanly) {
  Mutex m;
  CondVar cv;
  bool flag = false;
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      MutexLock lock(m);
      flag = true;
    }
    cv.notify_all();
  });
  {
    UniqueLock lock(m);
    cv.wait(lock, [&]() PE_NO_THREAD_SAFETY_ANALYSIS { return flag; });
    // The wait released and reacquired m; the lock must still be held
    // and nesting a second mutex under it is a plain m -> inner order.
    EXPECT_TRUE(lock.owns_lock());
    Mutex inner;
    MutexLock li(inner);
  }
  setter.join();
}

#if defined(__SANITIZE_THREAD__)

class LockOrderDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Re-execute the binary for each child instead of forking a process
    // that may already run other threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// TSan reports when the child exits; std::exit(0) lets it turn the exit
// code into its failure code.
constexpr int kTsanExitCode = 66;

TEST_F(LockOrderDeathTest, AbThenBaAborts) {
  EXPECT_EXIT(
      {
        Mutex a;
        Mutex b;
        {
          MutexLock la(a);
          MutexLock lb(b);  // establishes a -> b
        }
        {
          MutexLock lb(b);
          MutexLock la(a);  // b -> a closes the cycle
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(kTsanExitCode), "lock-order-inversion");
}

TEST_F(LockOrderDeathTest, TransitiveCycleAborts) {
  EXPECT_EXIT(
      {
        Mutex a;
        Mutex b;
        Mutex c;
        {
          MutexLock la(a);
          MutexLock lb(b);  // a -> b
        }
        {
          MutexLock lb(b);
          MutexLock lc(c);  // b -> c
        }
        {
          MutexLock lc(c);
          MutexLock la(a);  // c -> a: cycle through b
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(kTsanExitCode), "lock-order-inversion");
}

TEST_F(LockOrderDeathTest, CondVarReacquireInversionIsReported) {
  EXPECT_EXIT(
      {
        Mutex m;
        Mutex held;
        CondVar cv;
        UniqueLock lm(m);
        MutexLock lh(held);  // m -> held
        // The wait drops m and takes it back while `held` is still held:
        // held -> m closes the cycle on the re-acquire.
        cv.wait_until(lm, std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(1),
                      [] { return false; });
        std::exit(0);
      },
      ::testing::ExitedWithCode(kTsanExitCode), "lock-order-inversion");
}

TEST_F(LockOrderDeathTest, SharedMutexInversionIsReported) {
  EXPECT_EXIT(
      {
        SharedMutex s;
        Mutex a;
        {
          WriterLock ls(s);
          MutexLock la(a);  // s -> a
        }
        {
          MutexLock la(a);
          ReaderLock ls(s);  // a -> s, shared: readers still deadlock
        }                    // against a writer in the reverse order
        std::exit(0);
      },
      ::testing::ExitedWithCode(kTsanExitCode), "lock-order-inversion");
}

#endif  // __SANITIZE_THREAD__

}  // namespace
}  // namespace pe
