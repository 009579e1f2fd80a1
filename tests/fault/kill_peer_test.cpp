// The kill-peer-process chaos fault against a real child process: the
// fault the transport smoke test injects mid-pipeline.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "common/clock.h"
#include "fault/chaos_engine.h"
#include "fault/fault_plan.h"

namespace pe::fault {
namespace {

using namespace std::chrono_literals;

TEST(FabricFramedTest, ChaosKillPeerProcessDeliversSigkill) {
  // A real child that would sleep forever; the chaos engine must SIGKILL
  // it (the fault the transport smoke test injects mid-pipeline).
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) ::pause();
  }

  fault::FaultPlan plan;
  plan.kill_peer_process(1ms, static_cast<std::uint64_t>(child),
                         "transport chaos");
  fault::ChaosEngine engine(std::move(plan));
  ASSERT_TRUE(engine.start().ok());
  engine.join();

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  const auto records = engine.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].status.ok()) << records[0].status.to_string();
}

TEST(FabricFramedTest, ChaosKillPeerRejectsInvalidTargets) {
  // pid 1 and non-numeric targets must be refused, and the engine must
  // never kill its own process.
  fault::FaultPlan plan;
  plan.kill_peer_process(1ms, 1, "init is off-limits");
  plan.kill_peer_process(2ms, static_cast<std::uint64_t>(::getpid()),
                         "self-kill refused");
  fault::ChaosEngine engine(std::move(plan));
  ASSERT_TRUE(engine.start().ok());
  engine.join();

  const auto records = engine.records();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_FALSE(record.status.ok());
  }
}

}  // namespace
}  // namespace pe::fault
