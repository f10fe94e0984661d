// Serving-path tests: hot reload (swap_artifact) under concurrent
// load, request coalescing, admission control / load shedding, and the
// shed-accounting invariant documented in DispatchStats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_queue.hpp"
#include "runtime/library_runtime.hpp"
#include "support/rng.hpp"

namespace oa {
namespace {

using blas3::Variant;
using libgen::Artifact;
using runtime::AdmissionController;
using runtime::BatchQueue;
using runtime::DispatchOutcome;
using runtime::LibraryRuntime;

/// One real tuned GEMM-NN artifact per process (generation is the
/// expensive part; every test serves from the same library).
const Artifact& gemm_artifact() {
  static const Artifact artifact = [] {
    libgen::SessionStore::instance().clear();
    OaOptions opt;
    opt.tuning_size = 256;
    opt.verify_size = 48;
    OaFramework framework(gpusim::gtx285(), opt);
    auto tuned = framework.generate(*blas3::find_variant("GEMM-NN"));
    EXPECT_TRUE(tuned.is_ok()) << tuned.status().to_string();
    return framework.export_library();
  }();
  return artifact;
}

/// The artifact with its tuned entry cloned into two more size buckets
/// (same trick as runtime_test): three servable entries instead of one.
Artifact three_bucket_artifact() {
  Artifact artifact = gemm_artifact();
  EXPECT_EQ(artifact.entries.size(), 1u);
  libgen::ArtifactEntry lo = artifact.entries[0];
  lo.tuned_size = 64;
  libgen::ArtifactEntry hi = artifact.entries[0];
  hi.tuned_size = 1024;
  artifact.entries.push_back(lo);
  artifact.entries.push_back(hi);
  return artifact;
}

void make_inputs(int64_t n, uint64_t seed, blas3::Matrix& a,
                 blas3::Matrix& b, blas3::Matrix& c) {
  Rng rng(seed);
  a = blas3::Matrix(n, n);
  b = blas3::Matrix(n, n);
  c = blas3::Matrix(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
}

// --- hot reload ------------------------------------------------------

TEST(SwapArtifact, PublishesNewTableAndKeepsOldSnapshotAlive) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  ASSERT_EQ(rt.table_size(), 1u);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  // Pin a dispatch from the first snapshot.
  LibraryRuntime::Dispatch d = rt.dispatch(gemm, 256);
  ASSERT_EQ(d.outcome, DispatchOutcome::kHit);
  ASSERT_NE(d.program, nullptr);

  Status swapped = rt.swap_artifact(three_bucket_artifact());
  EXPECT_TRUE(swapped.is_ok()) << swapped.to_string();
  EXPECT_EQ(rt.table_size(), 3u);
  EXPECT_EQ(rt.stats().reloads, 1u);

  // The pinned dispatch still points into the old (1-entry) snapshot.
  ASSERT_NE(d.snapshot, nullptr);
  EXPECT_EQ(d.snapshot->table_size(), 1u);
  EXPECT_NE(d.program, nullptr);
  EXPECT_FALSE(d.bool_params == nullptr);

  // New requests see the new table: n=64 was a near hit before the
  // swap, now its bucket has its own entry.
  EXPECT_EQ(rt.dispatch(gemm, 64).outcome, DispatchOutcome::kHit);

  // And serving still answers correctly after the reload.
  blas3::Matrix a, b, c;
  make_inputs(256, 0xD00D, a, b, c);
  auto outcome = rt.run(gemm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kHit);
}

TEST(SwapArtifact, DegradedArtifactStillPublishes) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  ASSERT_TRUE(rt.load_status().is_ok());

  Artifact bogus = gemm_artifact();
  bogus.entries[0].variant = "NOT-A-ROUTINE";
  Status swapped = rt.swap_artifact(bogus);
  EXPECT_FALSE(swapped.is_ok());
  EXPECT_FALSE(rt.load_status().is_ok());
  EXPECT_EQ(rt.table_size(), 0u);

  // Serving degrades to the fallback chain instead of failing.
  blas3::Matrix a, b, c;
  make_inputs(96, 0xFA11, a, b, c);
  auto outcome = rt.run(*blas3::find_variant("GEMM-NN"), a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(*outcome == DispatchOutcome::kFallbackBaseline ||
              *outcome == DispatchOutcome::kFallbackReference);
}

TEST(SwapArtifact, SwapUnderLoadDropsNoRequests) {
  // Clients hammer run() with real std::threads (the shared pool has a
  // single worker on 1-core machines) while the main thread republishes
  // the snapshot in a tight loop. Every request must be answered: the
  // snapshot a request pinned stays alive for its whole serve.
  constexpr int kClients = 4;
  constexpr int kReloads = 120;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0}, answered{0}, tuned{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      blas3::Matrix a, b, c;
      make_inputs(48, 0xC11E47 + static_cast<uint64_t>(t), a, b, c);
      while (!stop.load(std::memory_order_relaxed)) {
        sent.fetch_add(1, std::memory_order_relaxed);
        auto outcome = rt.run(gemm, a, b, &c);
        if (outcome.is_ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          if (*outcome == DispatchOutcome::kHit ||
              *outcome == DispatchOutcome::kNearHit) {
            tuned.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  const Artifact& one = gemm_artifact();
  const Artifact three = three_bucket_artifact();
  for (int i = 0; i < kReloads; ++i) {
    Status swapped = rt.swap_artifact(i % 2 == 0 ? three : one);
    EXPECT_TRUE(swapped.is_ok()) << swapped.to_string();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(answered.load(), sent.load()) << "dropped requests";
  EXPECT_EQ(tuned.load(), sent.load())
      << "every request should have served from a tuned table";
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.reloads, static_cast<uint64_t>(kReloads));
  EXPECT_EQ(stats.requests, sent.load());
  EXPECT_EQ(stats.requests,
            stats.hits + stats.near_hits + stats.baseline_fallbacks +
                stats.reference_fallbacks + stats.shed +
                stats.failed_requests);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.shed, 0u);  // run() never sheds
}

// --- coalescing ------------------------------------------------------

TEST(BatchQueue, LeaderServesTheWholeBatch) {
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  std::atomic<int> batches{0};
  std::atomic<size_t> largest{0};
  BatchQueue::Options opt;
  opt.max_batch = 3;
  opt.window_us = 2e6;  // a full batch closes the window early
  BatchQueue queue(
      [&](uint64_t key, const std::vector<BatchQueue::Request*>& batch) {
        EXPECT_EQ(key, 42u);
        batches.fetch_add(1);
        size_t prev = largest.load();
        while (batch.size() > prev &&
               !largest.compare_exchange_weak(prev, batch.size())) {
        }
        for (BatchQueue::Request* r : batch) {
          r->result = DispatchOutcome::kHit;
        }
      },
      opt);

  std::vector<std::thread> threads;
  std::atomic<int> served{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      blas3::Matrix a, b, c;
      make_inputs(16, static_cast<uint64_t>(t), a, b, c);
      auto outcome = queue.submit(42, gemm, a, b, &c);
      ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
      EXPECT_EQ(*outcome, DispatchOutcome::kHit);
      served.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(served.load(), 3);
  // All three submitted the same key within the 2s window, so they
  // coalesce: fewer batches than requests.
  EXPECT_LT(batches.load(), 3);
  EXPECT_GT(largest.load(), 1u);
}

TEST(Serve, CoalescesConcurrentSameKeyRequests) {
  runtime::RuntimeOptions ropt;
  ropt.coalesce = true;
  ropt.max_batch = 4;
  ropt.batch_window_us = 2e6;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), ropt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      blas3::Matrix a, b, c;
      make_inputs(256, 0xBA7C4 + static_cast<uint64_t>(t), a, b, c);
      auto outcome = rt.serve(gemm, a, b, &c);
      ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
      EXPECT_EQ(*outcome, DispatchOutcome::kHit);
    });
  }
  for (std::thread& t : threads) t.join();

  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.hits, 4u);
  // However the 4 requests split into batches, batches + riders == 4,
  // and at least two requests must have shared a batch.
  EXPECT_EQ(stats.batches + stats.coalesced, 4u);
  EXPECT_LT(stats.batches, 4u);
  EXPECT_GE(stats.coalesced, 1u);
  EXPECT_GE(rt.metrics().histogram("runtime.batch_size").count(),
            stats.batches);
  EXPECT_EQ(rt.metrics().histogram("runtime.queue_wait_us").count(), 4u);
}

// --- admission control / shedding ------------------------------------

TEST(AdmissionController, DepthBoundIsHard) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.serve_us");
  AdmissionController::Options opt;
  opt.max_queue_depth = 2;
  AdmissionController admission(opt, &h);
  EXPECT_TRUE(admission.admit(0));
  EXPECT_TRUE(admission.admit(1));
  EXPECT_FALSE(admission.admit(2));
  EXPECT_FALSE(admission.admit(100));
}

TEST(AdmissionController, SloShedsOnRecentTrafficOnly) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.serve_us");
  AdmissionController::Options opt;
  opt.slo_p99_us = 100.0;
  opt.window_every = 1;  // rotate on every completion
  AdmissionController admission(opt, &h);

  // Idle server always admits, whatever the history says.
  for (int i = 0; i < 100; ++i) h.record(10000.0);
  EXPECT_TRUE(admission.admit(0));
  // Recent p99 (10ms) is far above the 100us SLO: shed while busy.
  EXPECT_FALSE(admission.admit(1));

  // A completion rotates the window: the bad spell ages out and the
  // controller re-admits (lifetime p99 is still 10ms).
  admission.on_complete();
  EXPECT_TRUE(admission.admit(1));
  EXPECT_GT(h.percentile(99), 1000.0);

  // Fresh fast traffic keeps admitting at shallow depth but sheds when
  // expected queueing delay alone (depth x recent p50) blows the SLO.
  for (int i = 0; i < 100; ++i) h.record(60.0);
  EXPECT_TRUE(admission.admit(1));
  EXPECT_FALSE(admission.admit(10));
}

TEST(Serve, ShedsDeterministicallyWhenQueueIsFull) {
  // One lingering leader occupies the queue (depth 1); with
  // max_queue_depth = 1 the next serve() must shed, and the shed is
  // accounted exactly once.
  runtime::RuntimeOptions ropt;
  ropt.coalesce = true;
  ropt.max_batch = 8;                // never fills with one request
  ropt.batch_window_us = 300000.0;   // leader lingers 300ms
  ropt.max_queue_depth = 1;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), ropt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  std::atomic<bool> leader_ok{false};
  std::thread leader([&] {
    blas3::Matrix a, b, c;
    make_inputs(256, 0x1EAD, a, b, c);
    auto outcome = rt.serve(gemm, a, b, &c);
    leader_ok = outcome.is_ok() && *outcome == DispatchOutcome::kHit;
  });

  // Wait until the leader is actually in flight before submitting.
  while (rt.metrics().counter_value("runtime.requests") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  blas3::Matrix a, b, c;
  make_inputs(256, 0x5EED, a, b, c);
  auto shed = rt.serve(gemm, a, b, &c);
  ASSERT_TRUE(shed.is_ok()) << shed.status().to_string();
  EXPECT_EQ(*shed, DispatchOutcome::kShed);

  leader.join();
  EXPECT_TRUE(leader_ok.load());

  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests,
            stats.hits + stats.near_hits + stats.baseline_fallbacks +
                stats.reference_fallbacks + stats.shed +
                stats.failed_requests);
  EXPECT_EQ(rt.metrics().counter_value("runtime.shed"), 1u);
  EXPECT_EQ(
      rt.metrics().histogram("runtime.dispatch_us.shed").count(), 1u);
}

TEST(Serve, ShedBatchedCallIsCountedLikeAnyRequest) {
  // Same lingering-leader setup, but the shed call is serve_batched: it
  // must reach the raw request, per-precision, per-family and batched
  // counters exactly like a shed serve(), so the raw entry counter
  // equals the derived total once nothing is in flight.
  runtime::RuntimeOptions ropt;
  ropt.coalesce = true;
  ropt.max_batch = 8;
  ropt.batch_window_us = 300000.0;
  ropt.max_queue_depth = 1;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), ropt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  const Variant& batched = *blas3::find_variant("GEMM_BATCHED-NN");

  std::thread leader([&] {
    blas3::Matrix a, b, c;
    make_inputs(256, 0x1EAD, a, b, c);
    (void)rt.serve(gemm, a, b, &c);
  });
  while (rt.metrics().counter_value("runtime.requests") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::vector<blas3::Matrix> a(2), b(2), c(2);
  for (size_t i = 0; i < a.size(); ++i) {
    make_inputs(16, 0xBA7 + i, a[i], b[i], c[i]);
  }
  const double shed_start = obs::now_us();
  auto shed = rt.serve_batched(batched, a, b, &c);
  const double shed_us = obs::now_us() - shed_start;
  ASSERT_TRUE(shed.is_ok()) << shed.status().to_string();
  EXPECT_EQ(*shed, DispatchOutcome::kShed);
  leader.join();

  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(rt.metrics().counter_value("runtime.requests"), stats.requests);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.requests_f32, 2u);
  EXPECT_EQ(stats.batched_requests, 1u);
  EXPECT_EQ(stats.batched_members, 2u);
  ASSERT_EQ(stats.requests_by_family.count("GEMM_BATCHED"), 1u);
  EXPECT_EQ(stats.requests_by_family.at("GEMM_BATCHED"), 1u);
  // The shed latency is the call's elapsed time, as for serve().
  const obs::Histogram& h =
      rt.metrics().histogram("runtime.dispatch_us.shed");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.sum(), 0.0);
  EXPECT_LE(h.sum(), shed_us);
}

// --- native execution mode ------------------------------------------

TEST(NativeServing, ServesComputedResultsBitEqualToInterpreter) {
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  blas3::Matrix a, b, c;
  make_inputs(256, 0xBEEF, a, b, c);

  runtime::RuntimeOptions interp_opt;
  LibraryRuntime interp_rt(gpusim::gtx285(), gemm_artifact(), interp_opt);
  blas3::Matrix c_interp = c;
  auto o1 = interp_rt.run(gemm, a, b, &c_interp);
  ASSERT_TRUE(o1.is_ok()) << o1.status().to_string();
  ASSERT_EQ(*o1, DispatchOutcome::kHit);

  runtime::RuntimeOptions native_opt;
  native_opt.execution = runtime::ExecutionMode::kNative;
  LibraryRuntime native_rt(gpusim::gtx285(), gemm_artifact(), native_opt);
  blas3::Matrix c_native = c;
  auto o2 = native_rt.run(gemm, a, b, &c_native);
  ASSERT_TRUE(o2.is_ok()) << o2.status().to_string();
  EXPECT_EQ(*o2, DispatchOutcome::kHit);

  // The native backend serves the same bits the interpreter computes
  // (lane-major vs lockstep changes nothing for race-free kernels).
  EXPECT_EQ(blas3::max_abs_diff(c_interp, c_native), 0.0);
  const auto stats = native_rt.stats();
  EXPECT_EQ(stats.native_serves, 1u);
  EXPECT_EQ(stats.native_fallbacks, 0u);
  // The constructor pre-warmed the cache at tuned_size, so the serve
  // itself (same size) compiled nothing.
  const exec::ExecStats xs = native_rt.exec_stats();
  EXPECT_GT(xs.compiles, 0);
  EXPECT_GT(xs.cache_hits, 0);
}

TEST(NativeServing, BatchLeaderExecutesMembersInOneLoop) {
  runtime::RuntimeOptions opt;
  opt.execution = runtime::ExecutionMode::kNative;
  opt.coalesce = true;
  opt.max_batch = 8;
  opt.batch_window_us = 2000.0;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), opt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      blas3::Matrix a, b, c;
      make_inputs(256, 0x1234 + static_cast<uint64_t>(t), a, b, c);
      auto outcome = rt.serve(gemm, a, b, &c);
      if (outcome.is_ok() && *outcome == DispatchOutcome::kHit) {
        ok.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);

  const auto stats = rt.stats();
  EXPECT_EQ(stats.native_serves, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.native_fallbacks, 0u);
  // Every batch leader recorded its single executor invocation loop.
  EXPECT_GE(rt.metrics().histogram("runtime.batch_exec_us").count(),
            stats.batches);
  // One cached kernel served every member: compiles stayed at the
  // pre-warm level while every serve hit.
  const exec::ExecStats xs = rt.exec_stats();
  EXPECT_GT(xs.cache_hits, 0);
}

TEST(Serve, UncoalescedServeMatchesRunSemantics) {
  runtime::RuntimeOptions ropt;
  ropt.coalesce = false;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), ropt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  blas3::Matrix a, b, c;
  make_inputs(256, 0xD12EC7, a, b, c);
  auto outcome = rt.serve(gemm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kHit);
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
}

}  // namespace
}  // namespace oa
