// Determinism of the data-parallel training path and the workspace arena:
//  * TrainBiSim, BiSimImputer::Impute and OnlineBiSimImputer give the same
//    bits at every thread count: each sequence of an Adam batch backprops
//    into the gradient sink of its batch position, and the positions add
//    into the batch gradient in position order, whichever worker ran them;
//  * a fixed seed is byte-stable run-to-run, including through
//    OnlineBiSimImputer::ImputeFingerprint;
//  * steady-state training epochs perform no fresh matrix allocations
//    (the Workspace pool serves every tape buffer after warm-up), the
//    deferred weight-gradient rows allocate nothing after the first epoch,
//    and a dead model returns only pool-acquired buffers, so training one
//    model after another leaves the pool the same size;
//  * a trainer entry's tape memory lives for its run: after
//    BiSimImputer::Impute or OnlineBiSimImputer::Fit the calling thread
//    pools no buffer and keeps no tape scratch, and Workspace::Release
//    leaves a pool that starts over cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autodiff/tensor.h"
#include "autodiff/workspace.h"
#include "bisim/bisim.h"
#include "common/missing.h"

namespace rmi::bisim {
namespace {

/// Small synthetic multi-path radio map with MAR holes and some null RPs.
rmap::RadioMap SyntheticMap() {
  rmap::RadioMap map(4);
  for (int p = 0; p < 4; ++p) {
    for (int t = 0; t < 12; ++t) {
      rmap::Record r;
      const double base = -55.0 - 2.0 * p + 1.5 * t;
      r.rssi = {base, base - 6, base - 11, kNull};
      if ((t + p) % 3 == 0) r.rssi[0] = kNull;
      if ((t + p) % 4 == 0) r.rssi[1] = kNull;
      r.has_rp = (t % 2 == 0);
      r.rp = {double(t) + 0.3 * p, double(p)};
      r.time = 2.0 * t;
      r.path_id = p;
      map.Add(r);
    }
  }
  return map;
}

rmap::MaskMatrix MarMask(const rmap::RadioMap& map) {
  rmap::MaskMatrix mask(map.size(), map.num_aps());
  for (size_t i = 0; i < map.size(); ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      if (IsNull(map.record(i).rssi[j])) {
        mask.set(i, j, rmap::MaskValue::kMar);
      }
    }
  }
  return mask;
}

BiSimConfig SmallConfig(size_t num_threads) {
  BiSimConfig cfg;
  cfg.hidden = 8;
  cfg.attention_hidden = 8;
  cfg.epochs = 6;
  cfg.loc_scale = 0.1;
  cfg.time_scale = 1.0;
  cfg.num_threads = num_threads;
  return cfg;
}

double TrainWithThreads(size_t num_threads, double* first_loss = nullptr) {
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  BiSimConfig cfg = SmallConfig(num_threads);
  Rng rng(cfg.seed);
  BiSimModel model(map.num_aps(), cfg, rng);
  const auto seqs = BuildSequences(map, mask, cfg);
  if (first_loss != nullptr) {
    *first_loss = model.Forward(seqs[0], true).loss.value()(0, 0);
  }
  Rng train_rng(33);
  return TrainBiSim(model, seqs, cfg, train_rng);
}

/// True when a and b hold the same bits.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ThreadingDeterminismTest, SerialAndFourThreadLossesAgree) {
  double first1 = 0.0, first4 = 0.0;
  const double loss1 = TrainWithThreads(1, &first1);
  const double loss4 = TrainWithThreads(4, &first4);
  // Identical models before training (the fan-out must not perturb
  // initialization or sequence building).
  EXPECT_TRUE(SameBits(first1, first4));
  // After training: same batches, same step count, and every batch
  // gradient summed in batch-position order, so the losses are identical.
  EXPECT_TRUE(std::isfinite(loss1));
  EXPECT_TRUE(std::isfinite(loss4));
  EXPECT_TRUE(SameBits(loss1, loss4)) << loss1 << " vs " << loss4;
}

TEST(ThreadingDeterminismTest, ImputedMapsAreBitIdenticalAtEveryThreadCount) {
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  struct Run {
    double loss = 0.0;
    rmap::RadioMap imputed;
  };
  auto impute = [&](size_t num_threads) {
    const BiSimImputer imputer(SmallConfig(num_threads));
    Rng rng(23);
    Run run;
    run.imputed = imputer.Impute(map, mask, rng);
    run.loss = imputer.last_training_loss();
    return run;
  };
  const Run serial = impute(1);
  for (size_t num_threads : {2, 3, 4}) {
    const Run run = impute(num_threads);
    EXPECT_TRUE(SameBits(run.loss, serial.loss))
        << num_threads << " threads: " << run.loss << " vs " << serial.loss;
    ASSERT_EQ(run.imputed.size(), serial.imputed.size());
    for (size_t i = 0; i < serial.imputed.size(); ++i) {
      const rmap::Record& a = run.imputed.record(i);
      const rmap::Record& b = serial.imputed.record(i);
      ASSERT_EQ(a.rssi.size(), b.rssi.size());
      EXPECT_EQ(0, std::memcmp(a.rssi.data(), b.rssi.data(),
                               b.rssi.size() * sizeof(double)))
          << num_threads << " threads, record " << i;
      EXPECT_EQ(a.has_rp, b.has_rp);
      EXPECT_TRUE(SameBits(a.rp.x, b.rp.x) && SameBits(a.rp.y, b.rp.y))
          << num_threads << " threads, record " << i;
    }
  }

  // The online imputer trains through the same loop: its completed
  // fingerprint does not depend on the thread count either.
  auto complete = [&](size_t num_threads) {
    OnlineBiSimImputer imputer(SmallConfig(num_threads));
    Rng rng(29);
    imputer.Fit(map, mask, rng);
    OnlineBiSimImputer::TimedScan prev;
    prev.rssi = {-58.0, kNull, -70.0, kNull};
    prev.time = 20.0;
    OnlineBiSimImputer::TimedScan scan;
    scan.rssi = {kNull, -66.0, kNull, kNull};
    scan.time = 24.0;
    return imputer.ImputeFingerprint(scan, {prev});
  };
  const std::vector<double> one = complete(1);
  const std::vector<double> four = complete(4);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(0,
            std::memcmp(one.data(), four.data(), one.size() * sizeof(double)));
}

TEST(ThreadingDeterminismTest, FixedThreadCountIsRunToRunIdentical) {
  const double a = TrainWithThreads(4);
  const double b = TrainWithThreads(4);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ThreadingDeterminismTest, OnlineImputeFingerprintByteStable) {
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);

  auto fit_and_impute = [&](size_t num_threads) {
    OnlineBiSimImputer imputer(SmallConfig(num_threads));
    Rng rng(17);
    imputer.Fit(map, mask, rng);
    OnlineBiSimImputer::TimedScan scan;
    scan.rssi = {-60.0, kNull, -72.0, kNull};
    scan.time = 30.0;
    OnlineBiSimImputer::TimedScan prev;
    prev.rssi = {-61.0, -67.0, kNull, kNull};
    prev.time = 27.0;
    return imputer.ImputeFingerprint(scan, {prev});
  };

  // Two independent fits with the same seed must produce byte-identical
  // imputations (training is deterministic end-to-end).
  const std::vector<double> x = fit_and_impute(4);
  const std::vector<double> y = fit_and_impute(4);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(0, std::memcmp(x.data(), y.data(), x.size() * sizeof(double)));

  // And repeated queries against one fitted model are trivially stable.
  OnlineBiSimImputer imputer(SmallConfig(1));
  Rng rng(17);
  imputer.Fit(map, mask, rng);
  OnlineBiSimImputer::TimedScan scan;
  scan.rssi = {kNull, -70.0, kNull, -88.0};
  scan.time = 12.0;
  const auto q1 = imputer.ImputeFingerprint(scan);
  const auto q2 = imputer.ImputeFingerprint(scan);
  EXPECT_EQ(0, std::memcmp(q1.data(), q2.data(), q1.size() * sizeof(double)));
}

TEST(WorkspaceTest, SteadyStateTrainingAllocatesNoMatrices) {
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  BiSimConfig cfg = SmallConfig(1);  // serial: all tape work on this thread
  Rng rng(cfg.seed);
  BiSimModel model(map.num_aps(), cfg, rng);
  const auto seqs = BuildSequences(map, mask, cfg);

  // Warm-up: populate the pool with every shape the tape uses.
  cfg.epochs = 2;
  Rng warm_rng(5);
  TrainBiSim(model, seqs, cfg, warm_rng);

  ad::Workspace& ws = ad::Workspace::Get();
  const auto warm = ws.stats();
  EXPECT_GT(warm.acquires, 0u);

  // Steady state: more epochs must be served entirely from the pool.
  cfg.epochs = 3;
  Rng steady_rng(6);
  TrainBiSim(model, seqs, cfg, steady_rng);
  const auto steady = ws.stats();
  EXPECT_GT(steady.acquires, warm.acquires);
  EXPECT_EQ(steady.fresh_allocs, warm.fresh_allocs)
      << "training epochs after warm-up must not allocate matrix buffers";
}

TEST(WorkspaceTest, DeferredWeightGradientsAllocateNothingAfterFirstEpoch) {
  // Backward defers each parameter's weight-gradient rows to its end, in
  // storage that lives as long as the thread and keeps its capacity. The
  // first epoch grows it to the longest pass; later epochs, and later
  // models, must not allocate for it again.
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  BiSimConfig cfg = SmallConfig(1);  // serial: all tape work on this thread
  Rng rng(cfg.seed);
  BiSimModel model(map.num_aps(), cfg, rng);
  const auto seqs = BuildSequences(map, mask, cfg);

  cfg.epochs = 1;
  Rng warm_rng(5);
  TrainBiSim(model, seqs, cfg, warm_rng);
  const size_t warm = ad::internal::DeferredRowAllocationsForTesting();
  EXPECT_GT(warm, 0u);

  cfg.epochs = 3;
  Rng steady_rng(6);
  TrainBiSim(model, seqs, cfg, steady_rng);
  BiSimModel next(map.num_aps(), cfg, rng);
  TrainBiSim(next, seqs, cfg, steady_rng);
  EXPECT_EQ(ad::internal::DeferredRowAllocationsForTesting(), warm)
      << "epochs after the first must not allocate for the deferral";
}

TEST(WorkspaceTest, ConsecutiveModelsAllocateNoMatricesAndKeepThePool) {
  // As a MapUpdater rebuild does: each model is built, trained and dropped.
  // A parameter's value and packed transpose are not pool buffers; if a
  // dead model recycled them, every model would grow the pool for good.
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  const auto seqs = BuildSequences(map, mask, SmallConfig(1));
  auto train_one_model = [&]() {
    BiSimConfig cfg = SmallConfig(1);  // serial: all tape work here
    cfg.epochs = 2;
    Rng rng(cfg.seed);
    BiSimModel model(map.num_aps(), cfg, rng);
    Rng train_rng(5);
    TrainBiSim(model, seqs, cfg, train_rng);
  };

  ad::Workspace& ws = ad::Workspace::Get();
  train_one_model();  // warm-up: the pool learns every shape
  const auto warm = ws.stats();
  train_one_model();
  train_one_model();
  const auto steady = ws.stats();
  EXPECT_GT(steady.acquires, warm.acquires);
  EXPECT_EQ(steady.fresh_allocs, warm.fresh_allocs)
      << "a second model must be served entirely from the pool";
  EXPECT_EQ(steady.pooled_buffers, warm.pooled_buffers)
      << "a dead model must not leave its parameters in the pool";
}

TEST(WorkspaceTest, TrainerEntriesLeaveNoTapeMemoryOnTheCallingThread) {
  // BiSimImputer::Impute and OnlineBiSimImputer::Fit each run under an
  // ad::ScopedTapeRun. When they return, the calling thread's pool holds
  // no buffer (neither the run's tape buffers nor the dead model's
  // parameters, which are not pool buffers) and its tape scratch no
  // capacity. At 2 threads the caller is one of the workers. A second
  // Impute on the same thread warms the pool again and gives the same
  // bytes.
  const auto map = SyntheticMap();
  const auto mask = MarMask(map);
  ad::Workspace& ws = ad::Workspace::Get();
  auto expect_released = [&](const std::string& what) {
    EXPECT_EQ(ws.stats().pooled_buffers, 0u) << what;
    EXPECT_EQ(ad::internal::TapeScratchBytesForTesting(), 0u) << what;
  };
  for (size_t num_threads : {1, 2}) {
    const std::string at = " at " + std::to_string(num_threads) + " threads";
    const BiSimImputer imputer(SmallConfig(num_threads));
    const size_t acquires = ws.stats().acquires;
    Rng rng(23);
    const rmap::RadioMap first = imputer.Impute(map, mask, rng);
    if (num_threads == 1) {
      EXPECT_GT(ws.stats().acquires, acquires) << "the tape ran here";
    }
    expect_released("after Impute" + at);
    Rng again(23);
    const rmap::RadioMap second = imputer.Impute(map, mask, again);
    expect_released("after a second Impute" + at);
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      const rmap::Record& a = second.record(i);
      const rmap::Record& b = first.record(i);
      ASSERT_EQ(a.rssi.size(), b.rssi.size());
      EXPECT_EQ(0, std::memcmp(a.rssi.data(), b.rssi.data(),
                               b.rssi.size() * sizeof(double)))
          << "record " << i << at;
      EXPECT_TRUE(SameBits(a.rp.x, b.rp.x) && SameBits(a.rp.y, b.rp.y))
          << "record " << i << at;
    }
  }

  OnlineBiSimImputer online(SmallConfig(1));
  Rng rng(29);
  online.Fit(map, mask, rng);
  ASSERT_TRUE(online.fitted());
  expect_released("after OnlineBiSimImputer::Fit");
}

TEST(WorkspaceTest, ReleaseFreesEveryBucketAndResetsTheIndex) {
  // Counts below 4096 find their bucket through the direct index, larger
  // ones by a scan. After Release every count starts over: served fresh
  // with its own shape, then from its own bucket. An index entry left
  // pointing at a freed bucket would read freed memory (ASan) or hand one
  // count's buffer to another.
  std::thread([] {  // a thread of its own, so the pool starts empty
    ad::Workspace& ws = ad::Workspace::Get();
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {1, 1}, {1, 24}, {5, 96}, {64, 63}, {64, 64}, {96, 184}, {1, 5000}};
    // Acquires every shape in `order`, writes every element and recycles
    // them all; returns each shape's buffer address.
    auto cycle = [&](const std::vector<size_t>& order) {
      std::vector<const double*> address(shapes.size());
      std::vector<la::Matrix> held;
      for (size_t i : order) {
        const auto [rows, cols] = shapes[i];
        la::Matrix m = ws.Acquire(rows, cols);
        EXPECT_EQ(m.rows(), rows);
        EXPECT_EQ(m.cols(), cols);
        EXPECT_EQ(m.data().size(), rows * cols);
        std::fill(m.data().begin(), m.data().end(), 1.0);
        address[i] = m.data().data();
        held.push_back(std::move(m));
      }
      for (la::Matrix& m : held) ws.Recycle(std::move(m));
      return address;
    };
    std::vector<size_t> forward(shapes.size());
    for (size_t i = 0; i < forward.size(); ++i) forward[i] = i;
    const std::vector<size_t> backward(forward.rbegin(), forward.rend());

    cycle(forward);
    EXPECT_EQ(ws.stats().pooled_buffers, shapes.size());
    ws.Release();
    const auto released = ws.stats();
    EXPECT_EQ(released.pooled_buffers, 0u);

    // A new first-use order, so each count's bucket moves.
    const std::vector<const double*> fresh = cycle(backward);
    const auto refilled = ws.stats();
    EXPECT_EQ(refilled.pool_hits, released.pool_hits)
        << "a released pool must serve nothing";
    EXPECT_EQ(refilled.fresh_allocs, released.fresh_allocs + shapes.size());
    EXPECT_EQ(refilled.pooled_buffers, shapes.size());

    const std::vector<const double*> reused = cycle(forward);
    EXPECT_EQ(ws.stats().pool_hits, refilled.pool_hits + shapes.size());
    EXPECT_EQ(ws.stats().fresh_allocs, refilled.fresh_allocs);
    EXPECT_EQ(reused, fresh) << "each count must get its own buffer back";
  }).join();
}

}  // namespace
}  // namespace rmi::bisim
