#include "serving/map_updater.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serving/snapshot_persist.h"

namespace rmi::serving {

namespace {

/// Deterministic per-shard stream seed: splitmix64 finalizer over the root
/// seed mixed with the shard coordinates. Every shard's stream is a pure
/// function of (seed, shard), never of registration or scheduling order.
uint64_t ShardSeed(uint64_t seed, const rmap::ShardId& id) {
  return SplitMix64(seed ^ ((uint64_t(uint32_t(id.building)) << 32) |
                            uint64_t(uint32_t(id.floor))));
}

/// Process-wide updater series. Per-instance exact numbers stay in
/// MapUpdater::stats_ (tests assert them per updater); these aggregate
/// across every updater for the scrape.
struct UpdaterMetrics {
  obs::Counter& ingested = obs::GetCounter(
      "rmi_updater_ingested_total", "Survey observations accepted by Ingest");
  obs::Counter& started = obs::GetCounter(
      "rmi_updater_rebuilds_started_total", "Shard rebuilds started");
  obs::Counter& completed = obs::GetCounter(
      "rmi_updater_rebuilds_completed_total",
      "Shard rebuilds completed (each published a snapshot)");
  obs::Counter& warm = obs::GetCounter(
      "rmi_updater_rebuilds_warm_total",
      "Rebuilds that offered the imputer a warm-start context");
  obs::Counter& failed = obs::GetCounter(
      "rmi_updater_rebuild_failures_total",
      "Rebuilds whose impute/fit/publish pipeline threw (nothing "
      "published; the shard keeps serving its previous snapshot)");
  obs::Histogram& staleness_us = obs::GetHistogram(
      "rmi_updater_staleness_us",
      "Age of the oldest pending delta at snapshot publish, microseconds");
  obs::Histogram& stage_queue_us = obs::GetHistogram(
      "rmi_updater_stage_queue_wait_us",
      "Trip detection to worker pickup per rebuild, microseconds");
  obs::Histogram& stage_impute_us = obs::GetHistogram(
      "rmi_updater_stage_impute_us",
      "Differentiate + MNAR fill + impute per rebuild, microseconds");
  obs::Histogram& stage_fit_us = obs::GetHistogram(
      "rmi_updater_stage_fit_us",
      "Estimator fit + snapshot freeze per rebuild, microseconds");
  obs::Histogram& stage_publish_us = obs::GetHistogram(
      "rmi_updater_stage_publish_us",
      "Store hot-swap per rebuild, microseconds");
  obs::Counter& persisted = obs::GetCounter(
      "rmi_updater_snapshots_persisted_total",
      "Snapshot files durably renamed in after a publish");
  obs::Counter& persist_failures = obs::GetCounter(
      "rmi_updater_persist_failures_total",
      "Snapshot persist attempts that failed on I/O (the publish itself "
      "survived; WAL segments were retained)");
  obs::Counter& wal_append_failures = obs::GetCounter(
      "rmi_updater_wal_append_failures_total",
      "Ingest WAL appends that failed on I/O (the observation stayed "
      "buffered in memory)");
  obs::Counter& wal_records_rejected = obs::GetCounter(
      "rmi_store_wal_records_rejected_total",
      "Replayed WAL records that failed the record rule (width, +-inf "
      "RSSI, non-finite RP) and were dropped instead of folded in");
  obs::Counter& restores = obs::GetCounter(
      "rmi_updater_shards_restored_total",
      "Fresh registrations served by a snapshot restore instead of a cold "
      "impute cycle");
  obs::Histogram& stage_persist_us = obs::GetHistogram(
      "rmi_updater_stage_persist_us",
      "Snapshot file write + WAL trim per rebuild, microseconds");

  static UpdaterMetrics& Get() {
    static UpdaterMetrics* m = new UpdaterMetrics();
    return *m;
  }
};

}  // namespace

MapUpdater::MapUpdater(ShardedSnapshotStore* store,
                       const cluster::Differentiator* differentiator,
                       const imputers::Imputer* imputer,
                       EstimatorFactory estimator_factory,
                       const MapUpdaterOptions& options)
    : store_(store),
      differentiator_(differentiator),
      imputer_(imputer),
      estimator_factory_(std::move(estimator_factory)),
      options_(options) {
  RMI_CHECK(store_ != nullptr);
  RMI_CHECK(differentiator_ != nullptr);
  RMI_CHECK(imputer_ != nullptr);
  RMI_CHECK(estimator_factory_ != nullptr);
}

MapUpdater::~MapUpdater() { Stop(); }

MapUpdater::ShardState* MapUpdater::Find(const rmap::ShardId& id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  const auto it = shards_.find(id);
  return it == shards_.end() ? nullptr : it->second.get();
}

std::string MapUpdater::ShardDir(const rmap::ShardId& id) const {
  if (options_.persist_dir.empty()) return "";
  return (std::filesystem::path(options_.persist_dir) /
          ("b" + std::to_string(id.building) + "_f" +
           std::to_string(id.floor)))
      .string();
}

void MapUpdater::OpenShardWal(ShardState* state, uint64_t watermark) {
  store::Wal::Options wal_options;
  wal_options.sync_every = options_.wal_sync_every;
  store::Wal::ReplayResult replay;
  std::string error;
  auto wal = store::Wal::Open(
      (std::filesystem::path(state->shard_dir) / "wal").string(), watermark,
      wal_options, &replay, &error);
  if (wal == nullptr) {
    // Persistence degrades for this shard; serving is unaffected.
    UpdaterMetrics::Get().persist_failures.Add();
    return;
  }
  size_t replayed = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->wal = std::move(wal);
    // The CRC vouches for the bytes, not for the record: replay applies
    // the same rule Ingest does, and a record that fails it is dropped.
    for (rmap::Record& r : replay.records) {
      if (rmap::RecordValidationError(r, state->base.num_aps()) != nullptr) {
        UpdaterMetrics::Get().wal_records_rejected.Add();
        continue;
      }
      state->deltas.push_back(std::move(r));
      ++replayed;
    }
    if (replayed > 0 && !state->delta_pending) {
      state->first_delta_us = obs::MonotonicUs();
      state->delta_pending = true;
    }
  }
  if (replayed > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.wal_records_replayed += replayed;
  }
}

bool MapUpdater::TryRestoreShard(const rmap::ShardId& id, ShardState* state) {
  // Scratch stream for the restore-time BuildSnapshot (KNN's Fit is
  // deterministic and ignores it): the shard's own stream must stay
  // aligned with the uninterrupted run — forks are discarded below, one
  // per persisted snapshot version.
  Rng restore_rng(SplitMix64(ShardSeed(options_.seed, id)));
  LoadedSnapshot loaded;
  std::string error;
  size_t num_aps = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    num_aps = state->base.num_aps();
  }
  if (!LoadNewestSnapshot(state->shard_dir, id, num_aps, estimator_factory_,
                          restore_rng, options_.snapshot_cell_size_m, &loaded,
                          &error)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> rebuild_lock(state->rebuild_mu);
    std::lock_guard<std::mutex> lock(state->mu);
    state->base = std::move(loaded.base);
    state->base.set_shard(id);
    state->deltas.clear();
    state->delta_pending = false;
    state->last_imputed.reset();
    state->imputer_state.reset();
    state->last_mask.reset();
    // Resume the version sequence and RNG stream where the persisted run
    // left off: rebuild V consumes fork V, so discard one fork per
    // persisted version. (Caveat: *failed* rebuild attempts after the last
    // persisted publish also consumed forks the file cannot know about;
    // determinism across a crash is exact when rebuilds succeed.)
    state->next_version = loaded.snapshot_version + 1;
    state->rng = Rng(ShardSeed(options_.seed, id));
    for (uint64_t v = 1; v <= loaded.snapshot_version; ++v) {
      state->rng.Fork();
    }
    state->since_rebuild.Reset();
  }
  // Replays only segments at or above the snapshot's watermark — the ones
  // below are inside the base section just adopted.
  OpenShardWal(state, loaded.wal_watermark);
  store_->Publish(id, loaded.snapshot);
  UpdaterMetrics::Get().restores.Add();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shards_restored;
  }
  return true;
}

void MapUpdater::RegisterShard(const rmap::ShardId& id, rmap::RadioMap base) {
  RMI_CHECK(!base.empty());
  RMI_CHECK_GT(base.num_aps(), 0u);
  base.set_shard(id);
  ShardState* state = nullptr;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    std::unique_ptr<ShardState>& slot = shards_[id];
    if (slot == nullptr) {
      // A fresh shard is fully initialized (base in place) before it
      // becomes visible in shards_: a concurrent Ingest that wins the
      // Find race must see the real width, never an empty base.
      slot = std::make_unique<ShardState>();
      slot->base = std::move(base);
      slot->rng = Rng(ShardSeed(options_.seed, id));
      slot->shard_dir = ShardDir(id);
      fresh = true;
    }
    state = slot.get();
  }
  if (!fresh) {
    // Same lock order as Rebuild (rebuild_mu, then mu): a re-registration
    // waits out any in-flight rebuild of the old base instead of pulling
    // its survey state from under it.
    std::lock_guard<std::mutex> rebuild_lock(state->rebuild_mu);
    std::lock_guard<std::mutex> lock(state->mu);
    state->base = std::move(base);
    state->deltas.clear();
    state->delta_pending = false;
    state->last_imputed.reset();
    state->imputer_state.reset();
    state->last_mask.reset();
    state->next_version = 1;
    state->rng = Rng(ShardSeed(options_.seed, id));
    // Registration replaces the survey lineage: the persisted state of the
    // old lineage must not shadow the new one (its snapshot versions are
    // higher), so wipe it and start a fresh WAL.
    if (!state->shard_dir.empty()) {
      state->wal.reset();
      std::error_code ec;
      std::filesystem::remove_all(state->shard_dir, ec);
    }
  }
  size_t num_shards = 0;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    num_shards = shards_.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shards = num_shards;
  }
  if (!state->shard_dir.empty()) {
    if (fresh && TryRestoreShard(id, state)) {
      // Restored and published; replayed deltas rebuild when triggers trip.
      return;
    }
    if (fresh) {
      // Cold start with persistence: whatever survives on disk belongs to
      // a lineage we could not (or chose not to) restore — replaying its
      // WAL against the caller's base would splice deltas onto the wrong
      // survey state. Clean slate instead.
      std::error_code ec;
      std::filesystem::remove_all(state->shard_dir, ec);
    }
    OpenShardWal(state, 0);
  }
  Rebuild(id, state);  // first impute + fit + publish, synchronous
}

void MapUpdater::Ingest(const rmap::ShardId& id, rmap::Record observation) {
  ShardState* state = Find(id);
  if (state == nullptr) {
    throw std::runtime_error("ingest into unregistered shard " +
                             rmap::ToString(id));
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    // Under mu: a re-registration may change the shard's width.
    if (const char* why =
            rmap::RecordValidationError(observation, state->base.num_aps())) {
      throw std::runtime_error(std::string("ingest into shard ") +
                               rmap::ToString(id) + ": " + why);
    }
    if (!state->delta_pending) {
      state->first_delta_us = obs::MonotonicUs();
      state->delta_pending = true;
    }
    state->deltas.push_back(std::move(observation));
    if (state->wal != nullptr) {
      // Group-commit durability for the delta, under the same mutex that
      // ordered it into the buffer — WAL order is fold order. An append
      // failure is contained: the observation stays buffered in memory.
      std::string wal_error;
      if (!state->wal->Append(state->deltas.back(), &wal_error)) {
        UpdaterMetrics::Get().wal_append_failures.Add();
      }
    }
  }
  UpdaterMetrics::Get().ingested.Add();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.ingested;
}

bool MapUpdater::RebuildNow(const rmap::ShardId& id) {
  ShardState* state = Find(id);
  if (state == nullptr) return false;
  Rebuild(id, state);
  return true;
}

void MapUpdater::Rebuild(const rmap::ShardId& id, ShardState* state,
                         double queue_wait_seconds) {
  // One rebuild at a time per shard; the delta mutex is only held for the
  // cheap fold/copy below, never during the impute/fit phase, so Ingest
  // keeps flowing while the pipeline runs.
  std::lock_guard<std::mutex> rebuild_lock(state->rebuild_mu);
  UpdaterMetrics& metrics = UpdaterMetrics::Get();
  metrics.started.Add();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rebuilds_started;
  }
  Timer timer;

  rmap::RadioMap working;
  std::shared_ptr<const rmap::RadioMap> previous;
  std::shared_ptr<const imputers::ImputerState> warm_state;
  std::shared_ptr<const rmap::MaskMatrix> previous_mask;
  size_t pre_delta_rows = 0;
  uint64_t version = 0;
  double first_delta_us = 0.0;
  bool drained_deltas = false;
  uint64_t wal_watermark = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    pre_delta_rows = state->base.size();
    for (rmap::Record& r : state->deltas) state->base.Add(std::move(r));
    state->deltas.clear();
    if (state->wal != nullptr) {
      // Seal the segments whose records were just folded; the new active
      // seq is the watermark the snapshot file will carry (a restart
      // replays only segments at or above it). Rotating under the same
      // mutex hold as the fold keeps segment contents aligned with what
      // entered the base. A rotate failure leaves the watermark 0, which
      // skips this rebuild's persist — a snapshot claiming watermark 0
      // would make a restart double-apply the folded deltas.
      std::string wal_error;
      wal_watermark = state->wal->Rotate(&wal_error);
    }
    if (state->delta_pending) {
      // This rebuild drains the pending window; its publish settles the
      // staleness clock even if a new window opens while the pipeline
      // runs (that one is the next rebuild's to settle).
      first_delta_us = state->first_delta_us;
      drained_deltas = true;
      state->delta_pending = false;
    }
    working = state->base;
    if (options_.incremental) {
      previous = state->last_imputed;  // O(1) pointer grab, never a copy
      warm_state = state->imputer_state;
      previous_mask = state->last_mask;
    }
    version = state->next_version++;
  }

  // The shard's private stream (rebuild_mu serializes access): fork N of
  // shard S is the same generator on every run with this root seed, no
  // matter which pool worker executes the rebuild.
  Rng rebuild_rng = state->rng.Fork();

  // The paper pipeline, online: differentiate -> MNAR fill -> (re-)impute
  // -> fit -> freeze -> hot-swap. The whole pipeline is containment-
  // wrapped: a throwing differentiator/imputer/estimator publishes
  // nothing, the shard keeps serving its previous snapshot (the folded
  // deltas stay in the base for the next attempt), and the trigger
  // thread — which may be running this rebuild directly — survives.
  try {
    Timer impute_timer;
    rmap::MaskMatrix mask =
        previous_mask != nullptr
            ? differentiator_->DifferentiateDelta(working, *previous_mask,
                                                  pre_delta_rows, rebuild_rng)
            : differentiator_->Differentiate(working, rebuild_rng);
    // Saved pre-fill: FillMnar flips kMnar cells to observed values in
    // place, and delta-aware reuse needs the labels as differentiated.
    std::shared_ptr<const rmap::MaskMatrix> mask_for_next;
    if (options_.incremental) {
      mask_for_next = std::make_shared<const rmap::MaskMatrix>(mask);
    }
    imputers::FillMnar(&working, &mask);
    imputers::IncrementalContext ctx;
    std::shared_ptr<const imputers::ImputerState> new_state;
    const bool warm = previous != nullptr;
    if (warm) {
      ctx.previous_imputed = previous.get();
      // The *merged-map* row count the previous imputation claims to cover
      // — not previous.size(): a record-dropping backend (CaseDeletion)
      // makes them differ, and the base implementation's alignment guard
      // must see that and fall back to a cold rebuild instead of splicing
      // from misaligned rows.
      ctx.num_previous_records = pre_delta_rows;
      ctx.previous_state = std::move(warm_state);
    }
    if (options_.incremental) {
      ctx.dirty_neighbors = options_.dirty_neighbors;
      ctx.max_dirty_fraction = options_.max_dirty_fraction;
      ctx.state_out = &new_state;
    }
    rmap::RadioMap imputed =
        imputer_->ImputeIncremental(working, mask, ctx, rebuild_rng);
    imputed.set_shard(id);
    const double impute_seconds = impute_timer.ElapsedSeconds();

    Timer fit_timer;
    std::shared_ptr<const MapSnapshot> snapshot = BuildSnapshot(
        imputed, estimator_factory_(), rebuild_rng,
        SnapshotOptions{version, options_.snapshot_cell_size_m});
    const double fit_seconds = fit_timer.ElapsedSeconds();

    Timer publish_timer;
    store_->Publish(id, snapshot);
    const double publish_seconds = publish_timer.ElapsedSeconds();
    if (drained_deltas) {
      // Freshness SLO input: the oldest observation of the drained window
      // waited this long to be reflected in a served snapshot.
      metrics.staleness_us.Observe(obs::MonotonicUs() - first_delta_us);
    }

    {
      std::lock_guard<std::mutex> lock(state->mu);
      // The imputed copy and warm-start blob only feed the next
      // incremental rebuild; in cold mode retaining them would just
      // double every shard's resident map for nothing.
      if (options_.incremental) {
        state->last_imputed =
            std::make_shared<const rmap::RadioMap>(std::move(imputed));
        state->imputer_state = std::move(new_state);
        state->last_mask = std::move(mask_for_next);
      }
      state->since_rebuild.Reset();
    }

    // Durable side of the publish. state->base is stable here: only the
    // rebuild path mutates it (serialized by rebuild_mu — re-registration
    // takes it too), so persisting reads it without holding mu and never
    // stalls Ingest. A persist failure (or the rotate failure above) skips
    // the file and the WAL trim — the retained segments keep the deltas
    // recoverable — and serving continues on the published snapshot.
    double persist_seconds = 0.0;
    bool persisted_file = false;
    if (!state->shard_dir.empty()) {
      Timer persist_timer;
      const bool watermark_ok = state->wal == nullptr || wal_watermark != 0;
      std::string persist_error;
      if (watermark_ok &&
          PersistMapSnapshot(*snapshot, id, state->base, wal_watermark,
                             state->shard_dir, &persist_error)) {
        persisted_file = true;
        PruneSnapshotFiles(state->shard_dir, options_.keep_snapshot_files);
        if (state->wal != nullptr) {
          state->wal->DeleteSegmentsBelow(wal_watermark);
        }
        metrics.persisted.Add();
      } else {
        metrics.persist_failures.Add();
      }
      persist_seconds = persist_timer.ElapsedSeconds();
      metrics.stage_persist_us.Observe(persist_seconds * 1e6);
    }

    // Registry side: aggregate counters + stage histograms, plus this
    // shard's labeled last-rebuild gauges (resolved once; rebuild_mu makes
    // this shard's Set single-writer).
    metrics.completed.Add();
    if (warm) metrics.warm.Add();
    metrics.stage_queue_us.Observe(queue_wait_seconds * 1e6);
    metrics.stage_impute_us.Observe(impute_seconds * 1e6);
    metrics.stage_fit_us.Observe(fit_seconds * 1e6);
    metrics.stage_publish_us.Observe(publish_seconds * 1e6);
    if (state->rebuilds_counter == nullptr) {
      const std::string label = "shard=\"" + rmap::ToString(id) + "\"";
      state->last_impute_gauge = &obs::GetGauge(
          "rmi_updater_last_impute_seconds",
          "Impute phase of the shard's most recent rebuild, seconds", label);
      state->last_fit_gauge = &obs::GetGauge(
          "rmi_updater_last_fit_seconds",
          "Fit phase of the shard's most recent rebuild, seconds", label);
      state->last_publish_gauge = &obs::GetGauge(
          "rmi_updater_last_publish_seconds",
          "Publish phase of the shard's most recent rebuild, seconds",
          label);
      state->rebuilds_counter = &obs::GetCounter(
          "rmi_updater_shard_rebuilds_total", "Completed rebuilds per shard",
          label);
    }
    state->last_impute_gauge->Set(impute_seconds);
    state->last_fit_gauge->Set(fit_seconds);
    state->last_publish_gauge->Set(publish_seconds);
    state->rebuilds_counter->Add();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rebuilds_completed;
      stats_.last_rebuild_seconds = timer.ElapsedSeconds();
      if (persisted_file) {
        ++stats_.snapshots_persisted;
      } else if (!state->shard_dir.empty()) {
        ++stats_.snapshot_persist_failures;
      }
      RebuildStats& shard_stats = stats_.per_shard[id];
      ++shard_stats.completed;
      if (warm) ++shard_stats.warm;
      if (persisted_file) ++shard_stats.persisted;
      shard_stats.last_queue_wait_seconds = queue_wait_seconds;
      shard_stats.last_impute_seconds = impute_seconds;
      shard_stats.last_fit_seconds = fit_seconds;
      shard_stats.last_publish_seconds = publish_seconds;
      shard_stats.last_persist_seconds = persist_seconds;
      shard_stats.last_total_seconds =
          impute_seconds + fit_seconds + publish_seconds;
      shard_stats.total_busy_seconds += shard_stats.last_total_seconds;
    }
  } catch (const std::exception&) {
    metrics.failed.Add();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rebuilds_failed;
    ++stats_.per_shard[id].failed;
  }
}

void MapUpdater::Start() {
  // lifecycle_mu_ serializes Start/Stop against each other (the loop
  // thread never takes it, so Stop can join while holding it). Without
  // it, a Start racing a Stop could reset stop_ before the old loop
  // thread observed it — stranding that thread and blocking Stop's join
  // forever.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_.joinable()) return;
  stop_ = false;
  loop_ = std::thread([this] { TriggerLoop(); });
}

void MapUpdater::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_.joinable()) return;
    stop_ = true;
    to_join = std::move(loop_);
  }
  loop_cv_.notify_all();
  to_join.join();
}

void MapUpdater::TriggerLoop() {
  const auto poll = std::chrono::duration<double, std::milli>(
      options_.poll_interval_ms);
  // The bounded rebuild pool lives for the whole loop: its workers (and
  // their thread_local autodiff Workspaces) persist across trigger
  // batches, so consecutive rebuilds of same-shaped shards reuse the
  // arena instead of re-allocating tape buffers.
  ThreadPool pool(options_.rebuild_threads);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(loop_mu_);
      loop_cv_.wait_for(lock, poll, [this] { return stop_; });
      if (stop_) return;
    }
    std::vector<rmap::ShardId> ids;
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      ids.reserve(shards_.size());
      for (const auto& [id, state] : shards_) ids.push_back(id);
    }
    // Collect every tripped shard first, then fan the batch out over the
    // pool: independent shards rebuild concurrently (bounded by
    // rebuild_threads), and per-shard ordering holds because a shard
    // appears at most once per batch and rebuild_mu serializes across
    // batches.
    std::vector<std::pair<rmap::ShardId, ShardState*>> tripped;
    for (const rmap::ShardId& id : ids) {
      ShardState* state = Find(id);
      if (state == nullptr) continue;
      bool trip = false;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        const size_t pending = state->deltas.size();
        trip = pending >= options_.min_new_observations ||
               (pending > 0 && state->since_rebuild.ElapsedSeconds() >
                                   options_.max_staleness_seconds);
      }
      if (trip) tripped.emplace_back(id, state);
    }
    if (tripped.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(loop_mu_);
      if (stop_) return;
    }
    if (tripped.size() == 1) {
      // A single tripped shard runs directly on the trigger thread — not
      // through ParallelFor, whose worker context would force an imputer's
      // *nested* training pool inline (ThreadPool's oversubscription
      // guard) and serialize training that RebuildNow/RegisterShard would
      // run parallel. Matches the pre-pool behavior exactly.
      Rebuild(tripped[0].first, tripped[0].second, 0.0);
      continue;
    }
    Timer queue_timer;
    pool.ParallelFor(tripped.size(), [&](size_t /*worker*/, size_t i) {
      {
        // A Stop() mid-batch skips the rebuilds not yet started (their
        // deltas stay buffered for the next Start); every *started*
        // rebuild still runs to completion and publishes.
        std::lock_guard<std::mutex> lock(loop_mu_);
        if (stop_) return;
      }
      // Time from trip detection to this worker picking the shard up —
      // under a saturated pool this is the serialization backlog the
      // rebuild bench measures.
      const double queue_wait = queue_timer.ElapsedSeconds();
      Rebuild(tripped[i].first, tripped[i].second, queue_wait);
    });
  }
}

size_t MapUpdater::PendingObservations(const rmap::ShardId& id) const {
  ShardState* state = Find(id);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->mu);
  return state->deltas.size();
}

MapUpdaterStats MapUpdater::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace rmi::serving
