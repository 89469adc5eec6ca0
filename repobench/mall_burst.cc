// mall_burst: one Kaide floor. Set-up runs the paper's pipeline (DasaKM
// differentiation -> MNAR fill -> D-BiSIM imputation -> WKNN snapshot),
// then partial scans sampled from the dataset's propagation model arrive at
// LocalizationServer::Submit in ON/OFF bursts, so requests queue and the
// server coalesces them into int8-ranked batches.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bisim/bisim.h"
#include "common/hash.h"
#include "common/missing.h"
#include "common/stats.h"
#include "eval/factories.h"
#include "imputers/imputer.h"
#include "la/quant.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "radio/propagation.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "survey/survey.h"
#include "workloads.h"

namespace repobench {
namespace {

using rmi::geom::Point;
namespace serving = rmi::serving;

/// Kaide at 12% scale with a 15-epoch D-BiSIM: a paper pipeline of a few
/// seconds, repeated for the set-up median.
constexpr double kScale = 0.12;
constexpr uint64_t kDatasetSeed = 5;
constexpr size_t kEpochs = 15;
constexpr size_t kBiSimThreads = 2;
constexpr uint64_t kPipelineSeed = 7;
constexpr size_t kSetupRepeats = 3;
/// Distinct scans synthesized per run; requests draw from them.
constexpr size_t kUniqueScans = 8192;
/// Per audible AP, the chance a scan misses it.
constexpr double kDropout = 0.3;
/// Bursts: every 50 ms, 12.5 ms at four times the mean rate.
constexpr double kBurstPeriodS = 0.05;
constexpr double kBurstOnFraction = 0.25;
constexpr double kRateQps = 4000.0;
constexpr double kSloMs = 25.0;
constexpr double kRungS = 1.0;
constexpr double kWarmupS = 1.0;
constexpr double kTrialS = 0.5;
constexpr size_t kCheckEvery = 61;

const std::vector<double>& LadderQps() {
  static const std::vector<double> rungs = {
      16000,  32000,  48000,  60000,  70000,  80000,  90000,  100000,
      110000, 120000, 135000, 150000, 170000, 190000, 215000, 240000,
      270000, 300000};
  return rungs;
}

struct Pipeline {
  std::unique_ptr<serving::MapSnapshotStore> store;
  std::unique_ptr<serving::LocalizationServer> server;  ///< reads store
  double setup_cpu_s = 0.0;  ///< process CPU time, every thread
  double setup_wall_s = 0.0;
  double differentiate_s = 0.0, fill_ms = 0.0, impute_s = 0.0, build_ms = 0.0;
  size_t sequences = 0;
};

/// The set-up under test: paper pipeline, snapshot, server start. Its
/// process CPU time is `setup_s`.
void BuildPipeline(const rmi::survey::SurveyDataset& ds, Pipeline* p) {
  p->server.reset();
  p->store.reset();
  rmi::eval::BenchEnv env;
  env.scale = kScale;
  env.epochs = kEpochs;
  rmi::bisim::BiSimConfig config = rmi::eval::DefaultBiSimConfig(ds.venue, env);
  config.num_threads = kBiSimThreads;
  const std::shared_ptr<rmi::cluster::Differentiator> differentiator =
      rmi::eval::MakeDifferentiator("DasaKM", &ds.venue);
  const rmi::bisim::BiSimImputer imputer(config);
  rmi::Rng rng(kPipelineSeed);

  const int64_t cpu0 = ProcessCpuNs();
  const int64_t start = NowNs();
  int64_t t = start;
  rmi::rmap::MaskMatrix mask = differentiator->Differentiate(ds.map, rng);
  p->differentiate_s = (NowNs() - t) * 1e-9;
  rmi::rmap::RadioMap working = ds.map;
  t = NowNs();
  rmi::imputers::FillMnar(&working, &mask);
  p->fill_ms = (NowNs() - t) * 1e-6;
  t = NowNs();
  const rmi::rmap::RadioMap imputed = imputer.Impute(working, mask, rng);
  p->impute_s = (NowNs() - t) * 1e-9;
  t = NowNs();
  std::shared_ptr<const serving::MapSnapshot> snapshot = serving::BuildSnapshot(
      imputed, std::make_unique<rmi::positioning::KnnEstimator>(4, true), rng,
      serving::SnapshotOptions{/*version=*/1, /*cell_size_m=*/6.0});
  p->build_ms = (NowNs() - t) * 1e-6;
  p->store = std::make_unique<serving::MapSnapshotStore>(std::move(snapshot));
  serving::ServerOptions options;
  options.max_batch = 64;
  options.max_wait_us = 200.0;
  options.num_workers = 2;
  p->server = std::make_unique<serving::LocalizationServer>(p->store.get(), options);
  p->setup_cpu_s = (ProcessCpuNs() - cpu0) * 1e-9;
  p->setup_wall_s = (NowNs() - start) * 1e-9;
  // BiSIM's work count, outside the timed set-up.
  p->sequences = rmi::bisim::BuildSequences(working, mask, config).size();
}

struct Phase {
  std::vector<int64_t> due;
  std::vector<uint32_t> scan;
};

Phase MakePhase(double rate, double seconds, size_t pool, bool bursts, Rng& rng) {
  Phase phase;
  phase.due = bursts ? BurstArrivalsNs(rate, seconds, kBurstPeriodS, kBurstOnFraction, rng)
                     : PoissonArrivalsNs(rate, seconds, rng);
  for (size_t i = 0; i < phase.due.size(); ++i) {
    phase.scan.push_back(static_cast<uint32_t>(rng.Index(pool)));
  }
  return phase;
}

struct PhaseResult {
  std::vector<Timing> timings;
  std::vector<int64_t> prev_end;  ///< previous Submit's return, per request
  std::vector<Point> answers;
  std::vector<int64_t> submit_end;
  std::vector<std::future<Point>> futures;
  std::vector<uint8_t> stamped;  ///< answer collected
  size_t failed = 0;
  double overhead_cpu_s = 0.0;  ///< generators' CPU outside Submit
};

/// The per-request buffers of a phase of `n` requests, made before set-up
/// so that rss_mb leaves them out.
PhaseResult Buffers(size_t n) {
  PhaseResult out;
  out.timings.resize(n);
  out.prev_end.resize(n);
  out.answers.resize(n);
  out.submit_end.resize(n);
  out.futures.resize(n);
  out.stamped.resize(n);
  return out;
}

/// Two generator threads split the schedule (request i goes to thread
/// i % 2); each submits on time and, while it waits for its next due time,
/// polls its outstanding futures, stamping each answer as it becomes ready.
/// A thread sleeps only through idle gaps longer than 2 ms with nothing
/// outstanding, so an answer is never stamped late by a wake-up. `out`
/// comes from Buffers.
void RunPhase(serving::LocalizationServer* server, const ScanPool& scans,
              const Phase& phase, PhaseResult* out) {
  constexpr size_t kThreads = 2;
  constexpr size_t kPollWindow = 256;  // outstanding futures polled per sweep
  const size_t n = phase.due.size();
  std::vector<double> overhead(kThreads, 0.0);
  const int64_t origin = NowNs() + 2000000;

  auto generate = [&](size_t k) {
    PinToCpu(k);
    // This thread's requests are k, k + kThreads, ...: the m-th is
    // k + m * kThreads.
    const size_t count = (n + kThreads - 1 - k) / kThreads;
    size_t collected = 0;  // every request of this thread below this is stamped
    size_t issued = 0;
    auto collect = [&] {
      const size_t end = std::min(issued, collected + kPollWindow);
      for (size_t m = collected; m < end; ++m) {
        const size_t i = k + m * kThreads;
        if (out->stamped[i] != 0 ||
            out->futures[i].wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          continue;
        }
        out->timings[i].end_ns = NowNs() - origin;
        try {
          out->answers[i] = out->futures[i].get();
          out->timings[i].ok = true;
        } catch (const std::runtime_error&) {
          out->timings[i].ok = false;
        }
        out->stamped[i] = 1;
      }
      while (collected < issued && out->stamped[k + collected * kThreads] != 0) {
        ++collected;
      }
    };

    OverheadMeter meter;
    Pacer pacer;
    int64_t prev_end = origin;
    for (size_t m = 0; m < count; ++m) {
      const size_t i = k + m * kThreads;
      std::vector<double> fp;
      scans.Expand(phase.scan[i], &fp);
      const int64_t due = origin + phase.due[i];
      if (collected == issued) pacer.WaitUntil(due);
      while (NowNs() < due) collect();
      meter.BeginCall();
      const int64_t start = NowNs();
      out->futures[i] = server->Submit(std::move(fp));
      const int64_t end = NowNs();
      meter.EndCall();
      out->timings[i].due_ns = phase.due[i];
      out->timings[i].start_ns = start - origin;
      out->submit_end[i] = end - origin;
      out->prev_end[i] = prev_end - origin;
      prev_end = end;
      issued = m + 1;
      collect();
    }
    while (collected < count) collect();
    overhead[k] = meter.OverheadSeconds();
  };
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kThreads; ++k) threads.emplace_back(generate, k);
  for (std::thread& t : threads) t.join();
  for (double o : overhead) out->overhead_cpu_s += o;
  for (const Timing& t : out->timings) out->failed += t.ok ? 0 : 1;
}

/// Times `body` over repeated calls for at least `min_s`; mean seconds/call.
template <typename F>
double TimePerCall(F body, double min_s) {
  body();  // warm caches
  size_t calls = 0;
  const int64_t t0 = NowNs();
  int64_t now = t0;
  while (now - t0 < static_cast<int64_t>(min_s * 1e9) || calls < 5) {
    body();
    ++calls;
    now = NowNs();
  }
  return (now - t0) * 1e-9 / static_cast<double>(calls);
}

}  // namespace

int RunMallBurst(const Args& args) {
  Report report;
  // ---- Inputs (untimed): dataset and a pool of partial scans ----
  const rmi::survey::SurveyDataset ds = rmi::survey::MakeKaideDataset(kScale, kDatasetSeed);
  const rmi::radio::PropagationModel model = ds.Model();
  const size_t dim = ds.venue.aps.size();
  ScanPool scans(dim);
  std::vector<Point> truth;
  {
    Rng rng(rmi::SplitMix64Combine(args.seed, 0x5c));
    std::vector<double> dense;
    while (scans.size() < kUniqueScans) {
      const Point p = ds.venue.rps[rng.Index(ds.venue.rps.size())];
      dense.assign(dim, rmi::kNull);
      bool heard = false;
      for (size_t ap = 0; ap < dim; ++ap) {
        if (!model.IsObservable(ap, p) || rng.Bernoulli(kDropout)) continue;
        dense[ap] = model.SampleRssi(ap, p, rng);
        heard = true;
      }
      if (!heard) continue;
      scans.Add(dense);
      truth.push_back(p);
    }
  }
  const double window_s = args.seconds;
  Rng arrival_rng(rmi::SplitMix64Combine(args.seed, 0xa7));
  const Phase warmup = MakePhase(kRateQps, kWarmupS, scans.size(), true, arrival_rng);
  const Phase window = MakePhase(kRateQps, window_s, scans.size(), true, arrival_rng);
  PhaseResult warmup_result = Buffers(warmup.due.size());
  PhaseResult win = Buffers(window.due.size());
  const double rss0_mb = TrimmedRssMb();

  // ---- Set-up: paper pipeline through server start, repeated ----
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_cpu_s, setup_wall_s;
  Pipeline pipeline;
  for (size_t rep = 0; rep < repeats; ++rep) {
    BuildPipeline(ds, &pipeline);
    setup_cpu_s.push_back(pipeline.setup_cpu_s);
    setup_wall_s.push_back(pipeline.setup_wall_s);
  }
  report.Set("setup_s", rmi::Percentile(setup_cpu_s, 50.0), "s");
  report.Note("setup_s: median process CPU time of " + std::to_string(repeats) +
              " paper pipelines (DasaKM -> FillMnar -> D-BiSIM -> WKNN snapshot "
              "-> server start); median wall time " +
              std::to_string(rmi::Percentile(setup_wall_s, 50.0)) + " s");
  serving::LocalizationServer* server = pipeline.server.get();

  // ---- Serve ----
  RunPhase(server, scans, warmup, &warmup_result);
  // The server's own stage histograms (process-wide obs registry).
  rmi::obs::Histogram& queue_hist = rmi::obs::GetHistogram("rmi_server_stage_queue_us", "");
  rmi::obs::Histogram& rank_hist = rmi::obs::GetHistogram("rmi_server_stage_rank_us", "");
  rmi::obs::Histogram& fulfill_hist = rmi::obs::GetHistogram("rmi_server_fulfill_us", "");
  const double queue_sum0 = queue_hist.Sum(), rank_sum0 = rank_hist.Sum();
  const uint64_t queue_n0 = queue_hist.Count(), rank_n0 = rank_hist.Count();
  const double fulfill_sum0 = fulfill_hist.Sum();
  const uint64_t fulfill_n0 = fulfill_hist.Count();
  const serving::ServerStats stats0 = server->Stats();
  const ProcessSample before = ProcessSample::Take();
  RunPhase(server, scans, window, &win);
  const ProcessSample after = ProcessSample::Take();
  const serving::ServerStats stats1 = server->Stats();
  const double queue_us = (queue_hist.Sum() - queue_sum0) /
                          static_cast<double>(std::max<uint64_t>(1, queue_hist.Count() - queue_n0));
  const double rank_us = (rank_hist.Sum() - rank_sum0) /
                         static_cast<double>(std::max<uint64_t>(1, rank_hist.Count() - rank_n0));
  const double fulfill_us =
      (fulfill_hist.Sum() - fulfill_sum0) /
      static_cast<double>(std::max<uint64_t>(1, fulfill_hist.Count() - fulfill_n0));
  const double rss_mb = TrimmedRssMb() - rss0_mb;
  const ProcessWindow pw = ProcessWindow::Between(before, after);
  const LatencySummary lat = Summarize(win.timings, win.prev_end, window_s, kTrialS);

  double err_sum = 0.0;
  for (size_t i = 0; i < win.timings.size(); ++i) {
    if (!win.timings[i].ok) continue;
    const Point& t = truth[window.scan[i]];
    err_sum += std::hypot(win.answers[i].x - t.x, win.answers[i].y - t.y);
  }
  const double answered = static_cast<double>(std::max<size_t>(1, lat.answered));
  report.Set("query_p50_ms", lat.p50_ms, "ms");
  report.Set("query_p99_ms", lat.p99_ms, "ms");
  report.Set("error_rate",
             static_cast<double>(lat.failed) /
                 static_cast<double>(std::max<size_t>(1, window.due.size())),
             "ratio");
  report.Set("ape_m", err_sum / answered, "m");
  report.Set("cpu_us_per_query", (pw.cpu_s - win.overhead_cpu_s) * 1e6 / answered,
             "us");
  report.Note("cpu_us_per_query excludes " + std::to_string(win.overhead_cpu_s) +
              " s of benchmark CPU (pacing, scan expansion, future polling)");
  report.Set("rss_mb", rss_mb, "MB");
  report.Note("rss_mb excludes the " + std::to_string(rss0_mb) +
              " MB resident before set-up (inputs and result buffers)");
  report.Note("query latency: open loop, ON/OFF bursts averaging " +
              std::to_string(kRateQps) + " qps, from each request's due time, "
              "pooled over " + std::to_string(window.due.size()) + " requests");
  report.Note("mean service " + std::to_string(lat.mean_service_us) +
              " us, pacing lateness p99 " + std::to_string(lat.lateness_p99_ms) +
              " ms, steal " + std::to_string(pw.steal_share) + ", CPU user " +
              std::to_string(pw.user_s) + " s sys " + std::to_string(pw.sys_s) + " s");

  NoteTrials(&report, lat);

  // ---- Answer check: scalar Estimate on the served snapshot ----
  {
    const std::shared_ptr<const serving::MapSnapshot> snap = pipeline.store->Current();
    size_t checks = 0, mismatches = 0;
    std::vector<double> fp;
    for (size_t i = 0; i < win.timings.size(); i += kCheckEvery) {
      if (!win.timings[i].ok) continue;
      scans.Expand(window.scan[i], &fp);
      ++checks;
      if (!SamePoint(snap->estimator->Estimate(fp), win.answers[i])) ++mismatches;
    }
    report.Note(std::to_string(checks) +
                " answers re-derived with scalar Estimate on the served snapshot");
    if (mismatches > 0) {
      report.Fail(std::to_string(mismatches) +
                  " answers differ from scalar Estimate on the same snapshot");
    }
    if (checks == 0) report.Fail("no answer was checked");
  }

  if (!args.trace) {
    return report.Print("mall_burst", EndToEndMetrics(), false, window.due.size(),
                        lat.failed)
               ? 0
               : 1;
  }

  // ---- Saturation ladder (traced run only) ----
  std::vector<Rung> ladder;
  size_t ladder_sent = 0, ladder_failed = 0;
  double submit_lag_p99_ms = 0.0;
  for (double rate : LadderQps()) {
    const Phase phase = MakePhase(rate, kRungS, scans.size(), true, arrival_rng);
    PhaseResult r = Buffers(phase.due.size());
    RunPhase(server, scans, phase, &r);
    // A rung's p99 is the median over its quarters (see the router ladder).
    const LatencySummary rl = Summarize(r.timings, r.prev_end, kRungS, kRungS / 4.0);
    std::vector<double> lag;
    for (const Timing& t : r.timings) lag.push_back((t.start_ns - t.due_ns) * 1e-6);
    if (!lag.empty()) submit_lag_p99_ms = rmi::Percentile(lag, 99.0);
    ladder.push_back(Rung{rate, rl.median_trial_p99_ms});
    ladder_sent += r.timings.size();
    ladder_failed += r.failed;
    if (!(rl.median_trial_p99_ms <= kSloMs)) break;
  }
  SetKnee(&report, ladder, kSloMs);
  // During an ON phase the offered rate is four times the mean, so near the
  // knee the two generators themselves fall behind: the knee bounds Submit
  // plus the clients, not the dispatchers alone.
  report.Note("submit lag p99 at the last rung " + std::to_string(submit_lag_p99_ms) +
              " ms");

  // ---- Per-layer metrics ----
  // Every request of this workload is already timed at its only boundary
  // the benchmark can see (Submit and the future), so the traced run adds
  // no span and the window above is also the traced one.
  std::vector<double> submit_us, sojourn_us;
  for (size_t i = 0; i < win.timings.size(); ++i) {
    if (!win.timings[i].ok) continue;
    submit_us.push_back((win.submit_end[i] - win.timings[i].start_ns) * 1e-3);
    sojourn_us.push_back((win.timings[i].end_ns - win.timings[i].start_ns) * 1e-3);
  }
  const double submit = rmi::Mean(submit_us);
  const double sojourn = rmi::Mean(sojourn_us);
  const double batches = static_cast<double>(stats1.batches - stats0.batches);
  const double batched =
      stats1.mean_batch_size * static_cast<double>(stats1.batches) -
      stats0.mean_batch_size * static_cast<double>(stats0.batches);
  const double batch_mean = batches > 0.0 ? batched / batches : 0.0;

  // Replay the rank stage at the observed mean batch size on the pinned
  // snapshot: EstimateBatch, and the int8 kernels inside it.
  const serving::PinnedSnapshot snap = pipeline.store->PinnedRead();
  const size_t b = std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
  rmi::la::Matrix batch(b, dim);
  {
    std::vector<double> fp;
    for (size_t r = 0; r < b; ++r) {
      scans.Expand(window.scan[r % window.scan.size()], &fp);
      std::copy(fp.begin(), fp.end(), batch.data().begin() + static_cast<long>(r * dim));
    }
  }
  const double estimate_batch_s =
      TimePerCall([&] { snap->estimator->EstimateBatch(batch); }, 0.3);
  const rmi::la::QuantizedRefs& quant = *snap->quantized;
  std::vector<int8_t> qvalues(b * dim), qmask(b * dim);
  std::vector<int32_t> cross(b * quant.padded), norms(b * quant.padded);
  const double kernel_s = TimePerCall(
      [&] {
        double err = 0.0;
        for (size_t r = 0; r < b; ++r) {
          rmi::la::QuantizeQueryRow(quant, batch.data().data() + r * dim,
                                    qvalues.data() + r * dim, qmask.data() + r * dim,
                                    &err);
        }
        rmi::la::GemmQuantNN(qvalues.data(), quant.values.data(), cross.data(), b,
                             dim, quant.padded);
        rmi::la::MaskedQuantRowNorms(qmask.data(), quant.squares.data(), norms.data(),
                                     b, dim, quant.padded);
      },
      0.3);
  const double padded = static_cast<double>(quant.padded);
  const double d = static_cast<double>(dim);

  report.Set("serving.server.submit_us", submit, "us");
  report.Set("serving.server.sojourn_us", sojourn, "us");
  report.Set("serving.server.batch_size_mean", batch_mean, "count");
  report.Set("serving.server.wait_share", (sojourn - rank_us) / sojourn, "ratio");
  report.Set("positioning.estimate_batch_us_per_query", estimate_batch_s * 1e6 / b,
             "us");
  report.Set("la.quant.kernel_us_per_query", kernel_s * 1e6 / b, "us");
  report.Set("la.quant.ops_per_query", 4.0 * d * padded, "count");
  report.Set("la.quant.bytes_per_query",
             3.0 * d * padded / static_cast<double>(b) + 2.0 * d + 8.0 * padded,
             "bytes");
  report.Set("clustering.differentiate_s", pipeline.differentiate_s, "s");
  report.Set("imputers.fill_mnar_ms", pipeline.fill_ms, "ms");
  report.Set("bisim.impute_s", pipeline.impute_s, "s");
  report.Set("bisim.sequences", static_cast<double>(pipeline.sequences), "count");
  report.Set("serving.snapshot.build_ms", pipeline.build_ms, "ms");
  report.Set("setup_wall_s", rmi::Percentile(setup_wall_s, 50.0), "s");
  report.Set("generator.lateness_p99_ms", lat.lateness_p99_ms, "ms");
  SetProcessMetrics(&report, pw, after.max_rss_mb);
  report.Set("trace.overhead_share", 0.0, "ratio");
  // Ledger: Submit (timed here) plus the server's own enqueue -> fulfil
  // time, split into its queue wait, its rank stage (every request waits
  // for its whole batch) and the rest (validation, batch copy, fulfilling
  // the batch in order), against the mean send -> answer time.
  const double ledger_us = submit + fulfill_us;
  const double coverage = ledger_us / sojourn;
  report.Set("trace.ledger_coverage", coverage, "ratio");
  report.Note("ledger: submit " + std::to_string(submit) + " us + queue " +
              std::to_string(queue_us) + " us + rank " + std::to_string(rank_us) +
              " us + fulfil rest " + std::to_string(fulfill_us - queue_us - rank_us) +
              " us (mean batch " + std::to_string(batch_mean) + ") vs sojourn " +
              std::to_string(sojourn) + " us");
  if (coverage < 0.9) report.Fail("layer spans explain less than 90% of the request");
  return report.Print("mall_burst", PerLayerMetrics(), true,
                      win.timings.size() + ladder_sent, lat.failed + ladder_failed)
             ? 0
             : 1;
}

}  // namespace repobench
