#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autograd/inference.h"
#include "serve/json.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/serving_bundle.h"
#include "status_matchers.h"
#include "util/fault.h"
#include "util/serialize.h"

/// \file
/// The serving stack: protocol JSON, the PlanNextBatch packing policy, the
/// dynamic-batching scheduler (including the deadline watchdog and ring
/// overload), ServingBundle persistence (round-trip + truncation fuzz), and
/// the contract the whole PR rests on — a served "match" response carries
/// exactly the bits `Matcher::PredictProbs` produces for the same pair.
/// Runs in the smoke label so TSan chews on the scheduler paths every push.

namespace dial::serve {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------------- json

TEST(ServeJson, ParsesAndDumpsRoundTrip) {
  const std::string text =
      R"({"op":"match","id":"q1","r":3,"s":7,"nested":{"a":[1,2.5,true,null,"x"]}})";
  DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue v, ParseJson(text));
  EXPECT_EQ(v.GetString("op", ""), "match");
  EXPECT_EQ(v.GetNumber("r", -1), 3);
  const JsonValue* nested = v.Get("nested");
  ASSERT_NE(nested, nullptr);
  const JsonValue* arr = nested->Get("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items().size(), 5u);
  EXPECT_TRUE(arr->items()[3].is_null());
  // Dump re-parses to the same structure.
  DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue again, ParseJson(v.Dump()));
  EXPECT_EQ(again.Dump(), v.Dump());
}

TEST(ServeJson, StringEscapes) {
  DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue v,
                            ParseJson(R"({"s":"a\"b\\c\n\t"})"));
  EXPECT_EQ(v.GetString("s", ""), "a\"b\\c\n\t");
  DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue again, ParseJson(v.Dump()));
  EXPECT_EQ(again.GetString("s", ""), "a\"b\\c\n\t");
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\":1,}", "[1,", "{\"a\" 1}", "tru",
        "{\"a\":1} trailing", "\"unterminated", "{\"a\":01x}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(ServeJson, FloatRoundTripsExactBits) {
  // %.9g must reproduce the exact float: the serve ≡ direct-call identity
  // travels through this formatting.
  for (const float f : {0.123456789f, 1.0f / 3.0f, 3.1415927f, 1e-20f,
                        0.9999999f, 123456.789f}) {
    const std::string wire = FloatToJson(f);
    const float back = std::strtof(wire.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &f, sizeof(float)), 0)
        << f << " -> " << wire << " -> " << back;
  }
}

// ---------------------------------------------------------- PlanNextBatch

PlanItem Item(ServeOp op, int64_t enqueue_us) { return PlanItem{op, enqueue_us}; }

TEST(PlanNextBatch, EmptyQueueWaitsForSubmit) {
  const BatchPlan plan = PlanNextBatch({}, 1000, 32, 2000, /*idle_workers=*/1);
  EXPECT_TRUE(plan.indices.empty());
  EXPECT_EQ(plan.wait_us, -1);
}

TEST(PlanNextBatch, FullBatchDispatchesEvenWithNoIdleWorker) {
  std::vector<PlanItem> queue(4, Item(ServeOp::kMatch, 100));
  const BatchPlan plan = PlanNextBatch(queue, 101, /*max_batch=*/4, 2000,
                                       /*idle_workers=*/0);
  ASSERT_EQ(plan.indices.size(), 4u);
}

TEST(PlanNextBatch, WorkConservingPartialDispatchWhenIdle) {
  // One young request, a worker idle: holding it back buys nothing.
  const BatchPlan plan = PlanNextBatch({Item(ServeOp::kMatch, 100)}, 101, 32,
                                       2000, /*idle_workers=*/1);
  ASSERT_EQ(plan.indices.size(), 1u);
  EXPECT_EQ(plan.indices[0], 0u);
}

TEST(PlanNextBatch, YoungPartialBatchWaitsWhileAllBusy) {
  const BatchPlan plan = PlanNextBatch({Item(ServeOp::kMatch, 100)}, 600, 32,
                                       2000, /*idle_workers=*/0);
  EXPECT_TRUE(plan.indices.empty());
  EXPECT_EQ(plan.wait_us, 1500);  // deadline - age = 2000 - 500
}

TEST(PlanNextBatch, DeadlineFlushesAgedHead) {
  const std::vector<PlanItem> queue = {Item(ServeOp::kMatch, 100),
                                       Item(ServeOp::kMatch, 2000)};
  const BatchPlan plan = PlanNextBatch(queue, 2101, 32, 2000,
                                       /*idle_workers=*/0);
  // Head aged 2001us >= 2000: flush everything packable, composition frozen.
  ASSERT_EQ(plan.indices.size(), 2u);
}

TEST(PlanNextBatch, GroupsByHeadOpSkippingOthers) {
  const std::vector<PlanItem> queue = {
      Item(ServeOp::kMatch, 1), Item(ServeOp::kEmbed, 2),
      Item(ServeOp::kMatch, 3), Item(ServeOp::kTopK, 4),
      Item(ServeOp::kMatch, 5)};
  const BatchPlan plan = PlanNextBatch(queue, 10, 32, 2000, /*idle_workers=*/1);
  // The head run is every kMatch; kEmbed/kTopK stay queued for later batches.
  EXPECT_EQ(plan.indices, (std::vector<size_t>{0, 2, 4}));
}

TEST(PlanNextBatch, CapsAtMaxBatch) {
  std::vector<PlanItem> queue(10, Item(ServeOp::kEmbed, 1));
  const BatchPlan plan = PlanNextBatch(queue, 2, /*max_batch=*/3, 2000,
                                       /*idle_workers=*/1);
  EXPECT_EQ(plan.indices, (std::vector<size_t>{0, 1, 2}));
}

// -------------------------------------------------------------- scheduler

ServeRequest MatchRequest(const std::string& id) {
  ServeRequest req;
  req.op = ServeOp::kMatch;
  req.id = id;
  req.r_id = 0;
  req.s_id = 0;
  return req;
}

TEST(Scheduler, ExecutesEverySubmittedRequest) {
  SchedulerOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  std::atomic<int> executed{0};
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    for (auto& p : batch) {
      ServeResponse response;
      response.id = p.request.id;
      p.callback(std::move(response));
      ++executed;
    }
  });
  constexpr int kRequests = 200;
  std::atomic<int> called_back{0};
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(scheduler.Submit(MatchRequest(std::to_string(i)),
                                 [&](ServeResponse) { ++called_back; }));
  }
  scheduler.Drain();
  EXPECT_EQ(executed.load(), kRequests);
  EXPECT_EQ(called_back.load(), kRequests);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.requests_executed, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Scheduler, BatchesRequestsQueuedBehindBusyWorker) {
  // Gate the single worker on the first request, pile up 6 more, release:
  // the backlog must execute as one fused batch (cross-request batching).
  SchedulerOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  options.max_delay_us = 1000000;  // deadline out of the picture
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<size_t> batch_sizes;
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      batch_sizes.push_back(batch.size());
      cv.notify_all();
      if (batch_sizes.size() == 1) cv.wait(lock, [&] { return release; });
    }
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  ASSERT_TRUE(scheduler.Submit(MatchRequest("gate"), [](ServeResponse) {}));
  // Wait until the worker is inside the executor before piling on.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return !batch_sizes.empty(); });
    ASSERT_FALSE(batch_sizes.empty());
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(MatchRequest(std::to_string(i)),
                                 [](ServeResponse) {}));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 1u);
  EXPECT_EQ(batch_sizes[1], 6u);
  EXPECT_EQ(scheduler.stats().max_batch_observed, 6u);
}

TEST(Scheduler, SplitsBatchesAtOpBoundaries) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  options.max_delay_us = 1000000;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::vector<ServeOp>> batches;
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      std::vector<ServeOp> ops;
      for (const auto& p : batch) ops.push_back(p.request.op);
      batches.push_back(ops);
      cv.notify_all();
      if (batches.size() == 1) cv.wait(lock, [&] { return release; });
    }
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  ASSERT_TRUE(scheduler.Submit(MatchRequest("gate"), [](ServeResponse) {}));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return !batches.empty(); });
    ASSERT_FALSE(batches.empty());
  }
  // Mixed backlog: match, embed, match. One batch per op run, never mixed.
  ASSERT_TRUE(scheduler.Submit(MatchRequest("m1"), [](ServeResponse) {}));
  ServeRequest embed;
  embed.op = ServeOp::kEmbed;
  embed.id = "e1";
  embed.text = "x";
  ASSERT_TRUE(scheduler.Submit(std::move(embed), [](ServeResponse) {}));
  ASSERT_TRUE(scheduler.Submit(MatchRequest("m2"), [](ServeResponse) {}));
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[1], (std::vector<ServeOp>{ServeOp::kMatch, ServeOp::kMatch}));
  EXPECT_EQ(batches[2], (std::vector<ServeOp>{ServeOp::kEmbed}));
}

TEST(Scheduler, RingOverflowRejectsWithoutCallback) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.ring_capacity = 4;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> gated{false};
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    gated = true;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  ASSERT_TRUE(scheduler.Submit(MatchRequest("gate"), [](ServeResponse) {}));
  while (!gated.load()) std::this_thread::yield();
  // Capacity counts in-flight work: 1 executing + 3 queued fill the ring.
  std::atomic<int> accepted{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scheduler.Submit(MatchRequest(std::to_string(i)),
                                 [&](ServeResponse) { ++accepted; }));
  }
  std::atomic<bool> overflow_callback{false};
  EXPECT_FALSE(scheduler.Submit(MatchRequest("over"),
                                [&](ServeResponse) { overflow_callback = true; }));
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(accepted.load(), 3);
  EXPECT_FALSE(overflow_callback.load());
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(Scheduler, DeadlineWatchdogFlushesBacklogBehindBusyWorker) {
  // The armed path: a claim that leaves backlog behind while every worker
  // is busy arms the watchdog; once the leftover head ages past the
  // deadline it must flush to a ready batch even though no worker freed up.
  SchedulerOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  options.max_delay_us = 2000;  // 2ms
  std::mutex mu;
  std::condition_variable cv;
  bool release_match = false;
  bool release_embed = false;
  int executor_entries = 0;
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++executor_entries;
      cv.notify_all();
      if (batch[0].request.op == ServeOp::kMatch) {
        cv.wait(lock, [&] { return release_match; });
      } else if (batch[0].request.op == ServeOp::kEmbed) {
        cv.wait(lock, [&] { return release_embed; });
      }
    }
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  // Gate the worker on a match batch, then queue embed + topk behind it.
  ASSERT_TRUE(scheduler.Submit(MatchRequest("gate"), [](ServeResponse) {}));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return executor_entries == 1; }));
  }
  ServeRequest embed;
  embed.op = ServeOp::kEmbed;
  embed.id = "e";
  ServeRequest topk;
  topk.op = ServeOp::kTopK;
  topk.id = "t";
  ASSERT_TRUE(scheduler.Submit(std::move(embed), [](ServeResponse) {}));
  ASSERT_TRUE(scheduler.Submit(std::move(topk), [](ServeResponse) {}));
  // Release the match; the worker claims the embed run, leaving topk behind
  // with every worker busy -> watchdog armed. The embed gate holds the
  // worker past the 2ms deadline, so the watchdog must flush the topk.
  {
    std::unique_lock<std::mutex> lock(mu);
    release_match = true;
  }
  cv.notify_all();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (scheduler.stats().deadline_flushes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(scheduler.stats().deadline_flushes, 1u);
  {
    std::unique_lock<std::mutex> lock(mu);
    release_embed = true;
  }
  cv.notify_all();
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().requests_executed, 3u);
}

TEST(Scheduler, ConcurrentSubmittersAllComplete) {
  // TSan fodder: many submitter threads racing Submit against the worker
  // pool's claims and the deadline watchdog.
  SchedulerOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  options.max_delay_us = 100;
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (!scheduler.Submit(MatchRequest("x"),
                                 [&](ServeResponse) { ++completed; })) {
          std::this_thread::yield();  // ring full: retry
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  scheduler.Drain();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
}

TEST(Scheduler, ExpiredDeadlineShedsBeforeExecution) {
  // deadline_ms:0 expires at submit time, so the claim-time check sheds it
  // deterministically — the executor must never see it, and its callback
  // must fire with kDeadlineExceeded.
  SchedulerOptions options;
  options.num_workers = 1;
  std::atomic<int> executed{0};
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    executed += static_cast<int>(batch.size());
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  ServeRequest doomed = MatchRequest("doomed");
  doomed.deadline_ms = 0;
  util::Status shed_status;
  ASSERT_TRUE(scheduler.Submit(std::move(doomed), [&](ServeResponse response) {
    shed_status = std::move(response.status);
  }));
  scheduler.Drain();
  EXPECT_EQ(shed_status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
  EXPECT_EQ(scheduler.stats().requests_executed, 0u);
  // A deadline-free request on the same scheduler still executes.
  ASSERT_TRUE(scheduler.Submit(MatchRequest("fine"), [](ServeResponse) {}));
  scheduler.Drain();
  EXPECT_EQ(executed.load(), 1);
}

TEST(Scheduler, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 0;  // every request is born expired
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  util::Status shed_status;
  ASSERT_TRUE(scheduler.Submit(MatchRequest("x"), [&](ServeResponse response) {
    shed_status = std::move(response.status);
  }));
  scheduler.Drain();
  EXPECT_EQ(shed_status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST(Scheduler, RetryAfterHintStaysInClampRange) {
  SchedulerOptions options;
  options.num_workers = 1;
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  EXPECT_GE(scheduler.RetryAfterMsHint(), 1);  // never hints "retry now"
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.Submit(MatchRequest("x"), [](ServeResponse) {}));
  }
  scheduler.Drain();
  const int64_t hint = scheduler.RetryAfterMsHint();
  EXPECT_GE(hint, 1);
  EXPECT_LE(hint, 60000);
}

TEST(Scheduler, StallWatchdogReportsStuckWorker) {
  SchedulerOptions options;
  options.num_workers = 1;
  options.stall_timeout_ms = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> gated{false};
  Scheduler scheduler(options, [&](size_t, std::vector<Scheduler::Pending>&& batch) {
    gated = true;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    for (auto& p : batch) p.callback(ServeResponse{});
  });
  ASSERT_TRUE(scheduler.Submit(MatchRequest("stuck"), [](ServeResponse) {}));
  while (!gated.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.busy_workers, 1u);
  EXPECT_EQ(stats.stalled_workers, 1u);  // busy past stall_timeout_ms
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Drain();
  stats = scheduler.stats();
  EXPECT_EQ(stats.busy_workers, 0u);
  EXPECT_EQ(stats.stalled_workers, 0u);  // recovery clears the report
}

// ------------------------------------------- bundle + end-to-end identity

/// Trains the smoke bundle once for every test below (seconds, but no need
/// to pay it per test).
class ServingBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServingOptions options;
    options.dataset = "walmart_amazon";
    options.scale = data::Scale::kSmoke;
    bundle_ = ServingBundle::Train(options).release();
    ASSERT_NE(bundle_, nullptr);
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static ServingBundle* bundle_;
};

ServingBundle* ServingBundleTest::bundle_ = nullptr;

TEST_F(ServingBundleTest, SaveLoadRoundTripPreservesScores) {
  const std::string path = TempPath("serve_bundle_roundtrip.bin");
  DIAL_ASSERT_OK(bundle_->Save(path));
  DIAL_ASSERT_OK_AND_ASSIGN(const std::unique_ptr<ServingBundle> loaded,
                            ServingBundle::Load(path));
  const std::vector<data::PairId> pairs = {{0, 0}, {1, 3}, {2, 2}};
  autograd::InferenceContext ctx_a;
  autograd::InferenceContext ctx_b;
  DIAL_ASSERT_OK_AND_ASSIGN(const std::vector<float> want,
                            bundle_->MatchPairs(ctx_a, pairs));
  DIAL_ASSERT_OK_AND_ASSIGN(const std::vector<float> got,
                            loaded->MatchPairs(ctx_b, pairs));
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0) << i;
  }
  // The rebuilt indexes answer topk identically too.
  const auto want_hits = bundle_->TopK(ctx_a, "acme phone 32gb", 3);
  const auto got_hits = loaded->TopK(ctx_b, "acme phone 32gb", 3);
  ASSERT_EQ(want_hits.size(), got_hits.size());
  for (size_t i = 0; i < want_hits.size(); ++i) {
    EXPECT_EQ(want_hits[i].r_id, got_hits[i].r_id);
    EXPECT_EQ(want_hits[i].distance, got_hits[i].distance);
  }
  std::remove(path.c_str());
}

TEST_F(ServingBundleTest, LoadRejectsEveryTruncationCleanly) {
  const std::string path = TempPath("serve_bundle_trunc.bin");
  DIAL_ASSERT_OK(bundle_->Save(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  // Sweep truncation points across the artifact (header, options, shapes,
  // weight blobs): every prefix must load as a clean non-OK, never a crash
  // or a half-built bundle.
  const std::string trunc_path = TempPath("serve_bundle_trunc_cut.bin");
  for (size_t cut = 0; cut < bytes.size();
       cut += std::max<size_t>(1, bytes.size() / 64)) {
    FILE* out = std::fopen(trunc_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, out), cut);
    std::fclose(out);
    const auto loaded = ServingBundle::Load(trunc_path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " of " << size;
  }

  // Flipped magic / corrupt tail byte also fail cleanly.
  std::string corrupt = bytes;
  corrupt[0] ^= 0xff;
  FILE* out = std::fopen(trunc_path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(corrupt.data(), 1, corrupt.size(), out), corrupt.size());
  std::fclose(out);
  EXPECT_FALSE(ServingBundle::Load(trunc_path).ok());
  std::remove(path.c_str());
  std::remove(trunc_path.c_str());
}

TEST_F(ServingBundleTest, ConcurrentWorkersScoreIdentically) {
  // The serving concurrency contract: N threads, each with its own context,
  // scoring through one shared const bundle, must all see the exact
  // single-threaded bits.
  const std::vector<data::PairId> pairs = {{0, 1}, {3, 2}, {1, 1}, {2, 0}};
  autograd::InferenceContext ref_ctx;
  DIAL_ASSERT_OK_AND_ASSIGN(const std::vector<float> want,
                            bundle_->MatchPairs(ref_ctx, pairs));
  constexpr int kThreads = 4;
  std::vector<std::vector<float>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      autograd::InferenceContext ctx;
      for (int round = 0; round < 5; ++round) {
        auto probs = bundle_->MatchPairs(ctx, pairs);
        ASSERT_TRUE(probs.ok());
        got[t] = std::move(probs).value();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got[t][i], &want[i], sizeof(float)), 0)
          << "thread " << t << " pair " << i;
    }
  }
}

/// Minimal blocking client for the socket tests.
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  std::string CallRaw(const std::string& request) {
    std::string line = request;
    line.push_back('\n');
    if (::send(fd_, line.data(), line.size(), 0) !=
        static_cast<ssize_t>(line.size())) {
      return "";
    }
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t newline = buffer_.find('\n');
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
  }

  JsonValue Call(const std::string& request) {
    auto parsed = ParseJson(CallRaw(request));
    return parsed.ok() ? std::move(parsed).value() : JsonValue::Null();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

// ---------------------------------------------- EINTR-safe socket helpers

TEST(SocketIo, SendAllSurvivesShortWritesAndEintr) {
  // Regression for the old single-shot send in the server's framed-write
  // path: a >64 KiB payload over tiny socket buffers forces many short
  // writes, and a signal storm (no-op handler installed WITHOUT SA_RESTART)
  // makes the blocking send/read calls surface EINTR mid-transfer. The old
  // code dropped the remainder of the frame on either; SendAll/ReadRetry
  // must deliver every byte.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::string payload(256 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i * 131) % 23);
  }

  std::atomic<bool> done{false};
  std::string received;
  bool send_ok = false;
  std::thread reader([&] {
    char chunk[1024];
    while (received.size() < payload.size()) {
      const ssize_t n = ReadRetry(fds[1], chunk, sizeof(chunk));
      if (n <= 0) break;
      received.append(chunk, static_cast<size_t>(n));
    }
  });
  std::thread writer([&] {
    send_ok = SendAll(fds[0], payload.data(), payload.size());
    done.store(true);
  });
  // Pepper the writer while it blocks on the full socket buffer.
  while (!done.load()) {
    ::pthread_kill(writer.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  writer.join();
  reader.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_TRUE(send_ok);
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(SocketIo, ReadRetryReportsEofAndRealErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SendAll(fds[0], "ab", 2));
  ::close(fds[0]);  // flushes then EOFs the peer
  char buf[16];
  EXPECT_EQ(ReadRetry(fds[1], buf, sizeof(buf)), 2);
  EXPECT_EQ(ReadRetry(fds[1], buf, sizeof(buf)), 0);  // clean EOF, not -1
  ::close(fds[1]);
  EXPECT_LT(ReadRetry(fds[1], buf, sizeof(buf)), 0);  // EBADF is a real error
  EXPECT_FALSE(SendAll(fds[1], "x", 1));
}

TEST_F(ServingBundleTest, ServedMatchIsBitIdenticalToDirectCall) {
  ServerOptions options;
  options.socket_path = TempPath("serve_test_ident.sock");
  options.scheduler.num_workers = 2;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  const std::vector<data::PairId> pairs = {{0, 0}, {1, 2}, {3, 1}};
  autograd::InferenceContext ctx;
  DIAL_ASSERT_OK_AND_ASSIGN(const std::vector<float> want,
                            bundle_->MatchPairs(ctx, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::string request =
        "{\"op\":\"match\",\"id\":\"q\",\"r\":" + std::to_string(pairs[i].r) +
        ",\"s\":" + std::to_string(pairs[i].s) + "}";
    const std::string raw = client.CallRaw(request);
    DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue response, ParseJson(raw));
    ASSERT_EQ(response.GetString("status", ""), "ok") << raw;
    // Parse the prob back off the wire text: %.9g must reproduce the bits.
    const size_t pos = raw.find("\"prob\":");
    ASSERT_NE(pos, std::string::npos) << raw;
    const float got = std::strtof(raw.c_str() + pos + 7, nullptr);
    EXPECT_EQ(std::memcmp(&got, &want[i], sizeof(float)), 0)
        << "pair " << i << ": wire " << got << " direct " << want[i];
  }
  server.Stop();
}

TEST_F(ServingBundleTest, ServerSmokeAllOpsAndErrors) {
  ServerOptions options;
  options.socket_path = TempPath("serve_test_smoke.sock");
  options.scheduler.num_workers = 1;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.Call(R"({"op":"match","id":"1","r":0,"s":0})")
                .GetString("status", ""),
            "ok");
  EXPECT_EQ(client
                .Call(R"({"op":"match","id":"2","r_text":"acme","s_text":"acme inc"})")
                .GetString("status", ""),
            "ok");
  const JsonValue topk = client.Call(R"({"op":"topk","id":"3","text":"acme","k":2})");
  EXPECT_EQ(topk.GetString("status", ""), "ok");
  ASSERT_NE(topk.Get("neighbors"), nullptr);
  EXPECT_LE(topk.Get("neighbors")->items().size(), 2u);
  const JsonValue embed = client.Call(R"({"op":"embed","id":"4","text":"acme"})");
  EXPECT_EQ(embed.GetString("status", ""), "ok");
  ASSERT_NE(embed.Get("embedding"), nullptr);
  EXPECT_FALSE(embed.Get("embedding")->items().empty());

  // Error paths: out-of-range id, unknown op, malformed JSON line.
  EXPECT_EQ(client.Call(R"({"op":"match","id":"5","r":999999,"s":0})")
                .GetString("status", ""),
            "error");
  EXPECT_EQ(client.Call(R"({"op":"frobnicate","id":"6"})").GetString("status", ""),
            "error");
  EXPECT_EQ(client.Call("{not json").GetString("status", ""), "error");

  const JsonValue stats = client.Call(R"({"op":"stats","id":"7"})");
  EXPECT_EQ(stats.GetString("status", ""), "ok");
  EXPECT_GE(stats.GetNumber("requests_executed", 0), 4);
  server.Stop();
}

TEST_F(ServingBundleTest, PipelinedEmbedBurstDeliversOver64KiBIntact) {
  // Regression for the framed-write path end-to-end: a pipelined client
  // fires enough embed requests in one write that the coalesced responses
  // total well past 64 KiB, then checks every line arrives whole and
  // parseable (a short write anywhere desyncs the newline framing for the
  // rest of the session).
  ServerOptions options;
  options.socket_path = TempPath("serve_test_burst.sock");
  options.scheduler.num_workers = 2;
  options.scheduler.max_batch = 64;
  options.scheduler.ring_capacity = 4096;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Measure one response, then size the burst to clear 64 KiB with margin.
  std::string buffer;
  const auto read_line = [&]() -> std::string {
    size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ReadRetry(fd, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    return line;
  };
  const std::string probe = "{\"op\":\"embed\",\"id\":\"p\",\"text\":\"probe\"}\n";
  ASSERT_TRUE(SendAll(fd, probe.data(), probe.size()));
  const std::string probe_response = read_line();
  ASSERT_FALSE(probe_response.empty());
  const size_t burst =
      std::min<size_t>(4000, 2 + (96 * 1024) / (probe_response.size() + 1));

  std::string out;
  for (size_t i = 0; i < burst; ++i) {
    out += "{\"op\":\"embed\",\"id\":\"q" + std::to_string(i) +
           "\",\"text\":\"item number " + std::to_string(i) + "\"}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));

  size_t total_bytes = 0;
  size_t embedding_len = 0;
  for (size_t i = 0; i < burst; ++i) {
    const std::string line = read_line();
    ASSERT_FALSE(line.empty()) << "connection died after " << i << " responses";
    total_bytes += line.size() + 1;
    DIAL_ASSERT_OK_AND_ASSIGN(const JsonValue response, ParseJson(line));
    ASSERT_EQ(response.GetString("status", ""), "ok") << line;
    const JsonValue* embedding = response.Get("embedding");
    ASSERT_NE(embedding, nullptr);
    if (embedding_len == 0) embedding_len = embedding->items().size();
    EXPECT_EQ(embedding->items().size(), embedding_len);
  }
  EXPECT_GT(total_bytes, 64u * 1024u);
  ::close(fd);
  server.Stop();
}

TEST_F(ServingBundleTest, HealthOpReportsLiveness) {
  ServerOptions options;
  options.socket_path = TempPath("serve_test_health.sock");
  options.scheduler.num_workers = 2;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  const JsonValue health = client.Call(R"({"op":"health","id":"h1"})");
  EXPECT_EQ(health.GetString("status", ""), "ok");
  ASSERT_NE(health.Get("healthy"), nullptr);
  EXPECT_TRUE(health.Get("healthy")->AsBool());
  EXPECT_EQ(health.GetNumber("workers", 0), 2);
  EXPECT_EQ(health.GetNumber("stalled_workers", -1), 0);
  EXPECT_GE(health.GetNumber("uptime_s", -1), 0);
  EXPECT_GE(health.GetNumber("queue_depth", -1), 0);
  // The fingerprint identifies what this server is serving; a second health
  // probe on the same bundle must report the identical one.
  const std::string fp = health.GetString("bundle_fingerprint", "");
  EXPECT_FALSE(fp.empty());
  const JsonValue again = client.Call(R"({"op":"health","id":"h2"})");
  EXPECT_EQ(again.GetString("bundle_fingerprint", ""), fp);
  server.Stop();
}

TEST_F(ServingBundleTest, ExpiredDeadlineAnsweredOnWire) {
  ServerOptions options;
  options.socket_path = TempPath("serve_test_deadline.sock");
  options.scheduler.num_workers = 1;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  // deadline_ms:0 is already expired at submit, so the scheduler sheds it
  // at claim time and the distinct wire status comes back.
  const JsonValue shed =
      client.Call(R"({"op":"match","id":"d1","r":0,"s":0,"deadline_ms":0})");
  EXPECT_EQ(shed.GetString("status", ""), "deadline_exceeded");
  EXPECT_EQ(shed.GetString("id", ""), "d1");
  // A generous deadline executes normally.
  const JsonValue fine =
      client.Call(R"({"op":"match","id":"d2","r":0,"s":0,"deadline_ms":60000})");
  EXPECT_EQ(fine.GetString("status", ""), "ok");
  // Out-of-range deadline is an input error, not a shed.
  const JsonValue bad =
      client.Call(R"({"op":"match","id":"d3","r":0,"s":0,"deadline_ms":999999999})");
  EXPECT_EQ(bad.GetString("status", ""), "error");
  const JsonValue stats = client.Call(R"({"op":"stats","id":"d4"})");
  EXPECT_GE(stats.GetNumber("deadline_expired", 0), 1);
  server.Stop();
}

TEST_F(ServingBundleTest, OverloadResponseCarriesRetryAfterHint) {
  // An injected scheduler-submit fault stands in for a full ring — the
  // same Status::Unavailable path — making the overload wire shape
  // deterministic: status "overload" plus a positive retry_after_ms.
  ServerOptions options;
  options.socket_path = TempPath("serve_test_overload.sock");
  options.scheduler.num_workers = 1;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  util::FaultInjector::Global().FailNth(util::FaultSite::kSchedulerSubmit, 1);
  const JsonValue overload = client.Call(R"({"op":"match","id":"o1","r":0,"s":0})");
  util::FaultInjector::Global().Reset();
  EXPECT_EQ(overload.GetString("status", ""), "overload");
  EXPECT_GE(overload.GetNumber("retry_after_ms", 0), 1);
  // The connection survives the rejection; the retry succeeds.
  const JsonValue retry = client.Call(R"({"op":"match","id":"o2","r":0,"s":0})");
  EXPECT_EQ(retry.GetString("status", ""), "ok");
  server.Stop();
}

TEST_F(ServingBundleTest, BundleRejectsEveryBitFlip) {
  // The v2 CRC trailer must catch a single flipped bit anywhere in the
  // saved bundle — weights, index payloads, header, or the trailer itself.
  const std::string path = TempPath("serve_bundle_flip.bin");
  DIAL_ASSERT_OK(bundle_->Save(path));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::string bad_path = TempPath("serve_bundle_flip_cut.bin");
  const size_t step = std::max<size_t>(1, bytes.size() / 48);
  for (size_t i = 0; i < bytes.size(); i += step) {
    std::string mutated = bytes;
    mutated[i] ^= static_cast<char>(1 << (i % 8));
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    const auto loaded = ServingBundle::Load(bad_path);
    ASSERT_FALSE(loaded.ok()) << "accepted bit flip at byte " << i;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption)
        << loaded.status().message();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(ServingBundleTest, RejectsVersion1BundleWithoutTrailer) {
  // v1 bundles (pre-CRC) no longer load: synthesize one by dropping the
  // trailer and patching the header version.
  const std::string path = TempPath("serve_bundle_v1_src.bin");
  DIAL_ASSERT_OK(bundle_->Save(path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - util::kCrcTrailerBytes);
  const uint32_t v1 = 1;
  std::memcpy(&bytes[sizeof(uint32_t)], &v1, sizeof(v1));
  const std::string v1_path = TempPath("serve_bundle_v1.bin");
  std::ofstream out(v1_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  const auto loaded = ServingBundle::Load(v1_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption);
  std::remove(path.c_str());
  std::remove(v1_path.c_str());
}

// ------------------------------- incremental lifecycle (mutates bundle_!)
//
// These run LAST in this file by declaration order: they upsert/retire
// records in the shared suite bundle, so every bit-identity test above must
// already have executed against the pristine build.

TEST_F(ServingBundleTest, UpsertRetireEvolveIndexesInPlace) {
  autograd::InferenceContext ctx;
  const size_t live0 = bundle_->live_r_records();
  ASSERT_GT(live0, 3u);
  const auto base = bundle_->TopK(ctx, "acme phone 32gb", 5);
  ASSERT_FALSE(base.empty());

  // Retire the best hit: it must stop surfacing, live count drops by one,
  // and a second retire of the same id is an error.
  const uint32_t victim = base[0].r_id;
  DIAL_ASSERT_OK(bundle_->Retire(victim));
  EXPECT_EQ(bundle_->live_r_records(), live0 - 1);
  for (const auto& hit : bundle_->TopK(ctx, "acme phone 32gb", 5)) {
    EXPECT_NE(hit.r_id, victim);
  }
  EXPECT_FALSE(bundle_->Retire(victim).ok());

  // Upsert revives the id under new text; topk for the new text finds it.
  const std::string fresh_text = "zzyzx unique revived widget 999";
  DIAL_ASSERT_OK(bundle_->Upsert(ctx, victim, fresh_text));
  EXPECT_EQ(bundle_->live_r_records(), live0);
  bool found = false;
  for (const auto& hit : bundle_->TopK(ctx, fresh_text, 3)) {
    found = found || hit.r_id == victim;
  }
  EXPECT_TRUE(found);

  // By-id matching scores against the overlay text without error.
  DIAL_ASSERT_OK_AND_ASSIGN(const std::vector<float> probs,
                            bundle_->MatchPairs(ctx, {{victim, 0}}));
  EXPECT_EQ(probs.size(), 1u);

  // Churn a few records repeatedly: every upsert tombstones the previous
  // entry and appends a fresh one, exercising the tombstone accounting (and
  // compaction once the dead fraction builds up) without a rebuild.
  for (int round = 0; round < 12; ++round) {
    const uint32_t r = static_cast<uint32_t>(round % 3);
    DIAL_ASSERT_OK(
        bundle_->Upsert(ctx, r, "churn item " + std::to_string(round)));
  }
  EXPECT_EQ(bundle_->live_r_records(), live0);
  for (const auto& hit : bundle_->TopK(ctx, "churn item 11", 5)) {
    EXPECT_LT(hit.r_id, static_cast<uint32_t>(bundle_->num_r_records()));
  }

  // Guard rails.
  EXPECT_FALSE(bundle_->Upsert(ctx, 1u << 30, "x").ok());
  EXPECT_FALSE(bundle_->Upsert(ctx, 0, "").ok());
  EXPECT_FALSE(bundle_->Retire(1u << 30).ok());
}

TEST_F(ServingBundleTest, ServerUpsertRetireWireOps) {
  ServerOptions options;
  options.socket_path = TempPath("serve_test_lifecycle.sock");
  options.scheduler.num_workers = 1;
  Server server(bundle_, options);
  DIAL_ASSERT_OK(server.Start());
  TestClient client(options.socket_path);
  ASSERT_TRUE(client.connected());

  const JsonValue up = client.Call(
      R"({"op":"upsert","id":"u1","r":0,"text":"wire upserted record zero"})");
  EXPECT_EQ(up.GetString("status", ""), "ok") << up.Dump();
  const double live = up.GetNumber("live", -1);
  EXPECT_GT(live, 0);

  // Missing text / bad record are parse- and execution-level errors.
  EXPECT_EQ(client.Call(R"({"op":"upsert","id":"u2","r":0})")
                .GetString("status", ""),
            "error");
  EXPECT_EQ(client.Call(R"({"op":"upsert","id":"u3","r":-1,"text":"x"})")
                .GetString("status", ""),
            "error");
  EXPECT_EQ(client.Call(R"({"op":"retire","id":"x1","r":99999999})")
                .GetString("status", ""),
            "error");

  const JsonValue retire = client.Call(R"({"op":"retire","id":"x2","r":2})");
  EXPECT_EQ(retire.GetString("status", ""), "ok") << retire.Dump();
  EXPECT_EQ(retire.GetNumber("live", -1), live - 1);
  EXPECT_EQ(client.Call(R"({"op":"retire","id":"x3","r":2})")
                .GetString("status", ""),
            "error");

  // The retired record stops surfacing in topk over the wire.
  const JsonValue topk =
      client.Call(R"({"op":"topk","id":"t1","text":"acme","k":5})");
  EXPECT_EQ(topk.GetString("status", ""), "ok");
  ASSERT_NE(topk.Get("neighbors"), nullptr);
  for (const JsonValue& hit : topk.Get("neighbors")->items()) {
    EXPECT_NE(hit.GetNumber("r", -1), 2) << topk.Dump();
  }
  server.Stop();
}

}  // namespace
}  // namespace dial::serve
