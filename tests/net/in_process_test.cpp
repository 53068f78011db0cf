// run_in_process: the --no-fork path drives a JobRunner through the same
// callbacks a coordinator fires, with the same retry budget, and needs no
// socket — so it runs on every platform.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/worker.hpp"

namespace aropuf::net {
namespace {

CoordinatorConfig three_of_four() {
  CoordinatorConfig config;
  config.jobs = {0, 2, 3};  // shard 1 was resumed from disk
  config.retries = 1;
  config.job_template.kind = "enroll";
  config.job_template.shards = 4;
  return config;
}

TEST(InProcessTest, RunsListedJobsInOrderThroughTheCallbacks) {
  using Seen = std::vector<std::pair<int, std::string>>;
  Seen results;
  Seen beats;
  Seen events;
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int shard, std::string bytes, const std::string& worker) {
    EXPECT_EQ(worker, "in-process");
    results.emplace_back(shard, std::move(bytes));
  };
  callbacks.on_heartbeat = [&](const telemetry::Heartbeat& beat, const std::string&) {
    beats.emplace_back(beat.shard, beat.stage);
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string&) {
    events.emplace_back(shard, event);
  };
  const JobRunner runner = [](const JobMsg& job, const JobProgressFn& progress) {
    EXPECT_EQ(job.kind, "enroll");
    EXPECT_EQ(job.shards, 4);
    progress("build", 1, 1);
    std::string result = "r";
    result += std::to_string(job.shard);
    return result;
  };

  const FleetSummary summary = run_in_process(three_of_four(), callbacks, runner);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.jobs_done, 3);
  EXPECT_EQ(summary.reassignments, 0);
  EXPECT_EQ(results, (Seen{{0, "r0"}, {2, "r2"}, {3, "r3"}}));
  EXPECT_EQ(beats, (Seen{{0, "build"}, {2, "build"}, {3, "build"}}));
  EXPECT_EQ(events, (Seen{{0, "dispatch"}, {2, "dispatch"}, {3, "dispatch"}}));
}

TEST(InProcessTest, FailuresConsumeTheRetryBudget) {
  int calls = 0;
  int folds = 0;
  std::vector<std::pair<int, std::string>> events;
  CoordinatorCallbacks callbacks;
  // The first result of every job is rejected, as a fold that throws would.
  callbacks.on_result = [&](int, std::string, const std::string&) {
    if (++folds % 2 == 1) throw std::runtime_error("will not fold");
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string&) {
    events.emplace_back(shard, event);
  };
  const JobRunner runner = [&calls](const JobMsg& job, const JobProgressFn&) -> std::string {
    ++calls;
    if (job.shard == 3) throw std::runtime_error("always fails");
    return "ok";
  };

  const FleetSummary summary = run_in_process(three_of_four(), callbacks, runner);
  EXPECT_FALSE(summary.ok);
  EXPECT_EQ(summary.jobs_done, 2);
  EXPECT_EQ(summary.jobs_failed, 1);
  EXPECT_EQ(summary.reassignments, 3);
  EXPECT_EQ(calls, 6);  // every job twice: retries + 1
  EXPECT_EQ(events, (std::vector<std::pair<int, std::string>>{
                        {0, "dispatch"}, {0, "retry"}, {0, "dispatch"}, {2, "dispatch"},
                        {2, "retry"}, {2, "dispatch"}, {3, "dispatch"}, {3, "retry"},
                        {3, "dispatch"}, {3, "fail"}}));
}

}  // namespace
}  // namespace aropuf::net
