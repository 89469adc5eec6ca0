#include "bisim/bisim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/missing.h"
#include "common/thread_pool.h"
#include "la/kernels.h"

namespace rmi::bisim {

using ad::Tensor;

namespace {

/// RSSI normalization: [-100, 0] dBm -> [0, 1].
double NormRssi(double v) { return (v + 100.0) / 100.0; }
double DenormRssi(double v) { return v * 100.0 - 100.0; }

}  // namespace

std::vector<Sequence> BuildSequences(const rmap::RadioMap& map,
                                     const rmap::MaskMatrix& amended_mask,
                                     const BiSimConfig& config) {
  RMI_CHECK_GT(config.seq_len, 0u);  // a zero stride would slice forever
  const size_t d = map.num_aps();
  std::vector<Sequence> out;
  for (const std::vector<size_t>& path : map.PathSequences()) {
    // Build the full path sequence, then slice into chunks of seq_len.
    for (size_t start = 0; start < path.size(); start += config.seq_len) {
      const size_t end = std::min(start + config.seq_len, path.size());
      Sequence seq;
      seq.reserve(end - start);
      for (size_t t = start; t < end; ++t) {
        const rmap::Record& r = map.record(path[t]);
        StepFeatures sf;
        sf.record_index = path[t];
        sf.time = r.time * config.time_scale;
        sf.f = la::Matrix(1, d);
        sf.m = la::Matrix(1, d);
        sf.m_att = la::Matrix(1, d);
        for (size_t j = 0; j < d; ++j) {
          const bool observed =
              amended_mask.at(path[t], j) == rmap::MaskValue::kObserved;
          RMI_CHECK(!observed || !IsNull(r.rssi[j]));
          sf.m(0, j) = observed ? 1.0 : 0.0;
          sf.f(0, j) = observed ? NormRssi(r.rssi[j]) : 0.0;
          // Genuine measurements are clamped to >= -99 dBm; the exact -100
          // value only arises from the MNAR fill.
          sf.m_att(0, j) =
              (observed && r.rssi[j] > kMnarFillDbm + 0.5) ? 1.0 : 0.0;
        }
        sf.l = la::Matrix(1, 2);
        sf.k = la::Matrix(1, 2);
        if (r.has_rp) {
          sf.l(0, 0) = r.rp.x * config.loc_scale;
          sf.l(0, 1) = r.rp.y * config.loc_scale;
          sf.k(0, 0) = sf.k(0, 1) = 1.0;
        }
        seq.push_back(std::move(sf));
      }
      if (!seq.empty()) out.push_back(std::move(seq));
    }
  }
  return out;
}

std::vector<la::Matrix> TimeLags(const Sequence& seq, bool reversed,
                                 la::Matrix StepFeatures::*mask) {
  const size_t t_len = seq.size();
  std::vector<la::Matrix> lags;
  lags.reserve(t_len);
  for (size_t t = 0; t < t_len; ++t) {
    const StepFeatures& sf = seq[reversed ? t_len - 1 - t : t];
    const size_t width = (sf.*mask).cols();
    la::Matrix lag(1, width);  // Eq. 1, first unit: 0
    if (t > 0) {
      const StepFeatures& prev = seq[reversed ? t_len - t : t - 1];
      const double dt = std::fabs(sf.time - prev.time);
      for (size_t j = 0; j < width; ++j) {
        lag(0, j) = (prev.*mask)(0, j) == 1.0 ? dt : lags.back()(0, j) + dt;
      }
    }
    lags.push_back(std::move(lag));
  }
  return lags;
}

BiSimModel::BiSimModel(size_t num_aps, const BiSimConfig& config, Rng& rng)
    : num_aps_(num_aps), config_(config) {
  const size_t d = num_aps;
  const size_t h = config.hidden;
  w_f_ = Tensor::Param(nn::XavierInit(h, d, rng));
  b_f_ = Tensor::Param(la::Matrix(1, d));
  w_gamma_ = Tensor::Param(nn::XavierInit(d, h, rng));
  b_gamma_ = Tensor::Param(la::Matrix(1, h));
  enc_cell_ = nn::LstmCell(2 * d, h, rng);
  h0_ = Tensor::Param(la::Matrix::Gaussian(1, h, rng, 0.1));
  w_l_ = Tensor::Param(nn::XavierInit(h, 2, rng));
  b_l_ = Tensor::Param(la::Matrix(1, 2));
  dec_cell_ = nn::LstmCell(2 + d, h, rng);
  w_gamma_s_ = Tensor::Param(nn::XavierInit(2, h, rng));
  b_gamma_s_ = Tensor::Param(la::Matrix(1, h));
  w_a_ = Tensor::Param(nn::XavierInit(h, d, rng));
  b_a_ = Tensor::Param(la::Matrix(1, d));
  align_ = nn::Mlp({h + d, config.attention_hidden, 1}, rng);
}

std::vector<Tensor> BiSimModel::Params() const {
  std::vector<Tensor> p = {w_f_, b_f_, w_gamma_, b_gamma_, h0_, w_l_, b_l_,
                           w_gamma_s_, b_gamma_s_, w_a_, b_a_};
  nn::AppendParams(&p, enc_cell_.Params());
  nn::AppendParams(&p, dec_cell_.Params());
  nn::AppendParams(&p, align_.Params());
  return p;
}

BiSimModel::DirectionOutput BiSimModel::RunDirection(const Sequence& seq,
                                                     bool reversed) const {
  const size_t t_len = seq.size();
  const size_t d = num_aps_;
  const bool enc_lag = config_.time_lag == BiSimConfig::TimeLag::kEncoder ||
                       config_.time_lag == BiSimConfig::TimeLag::kBoth;
  const bool dec_lag = config_.time_lag == BiSimConfig::TimeLag::kDecoder ||
                       config_.time_lag == BiSimConfig::TimeLag::kBoth;

  // Order of original positions this direction visits, and Eq. 1's time
  // lags along it (the backward pass sees the sequence reversed, so its
  // lags track the time to the *next* observation in original order).
  std::vector<size_t> order(t_len);
  for (size_t t = 0; t < t_len; ++t) order[t] = reversed ? t_len - 1 - t : t;
  std::vector<la::Matrix> delta, delta_l;
  if (enc_lag) delta = TimeLags(seq, reversed, &StepFeatures::m);
  if (dec_lag) delta_l = TimeLags(seq, reversed, &StepFeatures::k);

  DirectionOutput out;
  out.f_pred.resize(t_len);
  out.f_comb.resize(t_len);
  out.l_pred.resize(t_len);
  out.l_comb.resize(t_len);

  // ---- Encoder over the fingerprint sequence.
  std::vector<Tensor> latents(t_len);  // h_1..h_T
  nn::LstmCell::State enc_state{h0_, enc_cell_.InitialState().c};
  for (size_t t = 0; t < t_len; ++t) {
    const StepFeatures& sf = seq[order[t]];
    Tensor m = Tensor::Constant(sf.m);

    // Eq. 2: f' from the previous latent (fused affine node).
    Tensor f_prime = ad::Affine(enc_state.h, w_f_, b_f_);
    // Eq. 3: combination (fused mask-combine kernel).
    Tensor f_comb = ad::MaskCombine(sf.m, sf.f, f_prime);
    // Eq. 4: temporal decay (vector-valued, applied to h elementwise).
    if (enc_lag) {
      Tensor gamma = ad::Exp(ad::Scale(
          ad::Relu(ad::Affine(Tensor::Constant(delta[t]), w_gamma_, b_gamma_)),
          -1.0));
      enc_state.h = ad::Mul(enc_state.h, gamma);
    }
    // Eq. 5: recurrent update (standard LSTM cell per the paper's text).
    enc_state = enc_cell_.Forward(ad::ConcatCols(f_comb, m), enc_state);
    latents[t] = enc_state.h;
    out.f_pred[order[t]] = f_prime;
    out.f_comb[order[t]] = f_comb;
  }

  // ---- Attention precomputation (Eqs. 9): h''_i per encoder step,
  // stacked into one T x D operand so every decoder step runs the
  // alignment MLP as a single batched pass.
  Tensor h_att_stack;
  if (config_.attention != BiSimConfig::Attention::kNone) {
    for (size_t t = 0; t < t_len; ++t) {
      Tensor h_proj = ad::Affine(latents[t], w_a_, b_a_);
      if (config_.attention == BiSimConfig::Attention::kSparsityFriendly) {
        h_proj = ad::Mul(h_proj, Tensor::Constant(seq[order[t]].m_att));
      }
      h_att_stack =
          (t == 0) ? h_proj : ad::ConcatRows(h_att_stack, h_proj);
    }
  }

  // ---- Decoder over the RP sequence. s_0 = h_T (and the encoder's final
  // cell state seeds the decoder cell).
  nn::LstmCell::State dec_state = enc_state;
  Tensor zero_context;  // shared constant for the no-attention ablation
  if (config_.attention == BiSimConfig::Attention::kNone) {
    zero_context = Tensor::Constant(la::Matrix(1, d));
  }
  for (size_t t = 0; t < t_len; ++t) {
    const StepFeatures& sf = seq[order[t]];

    // Eq. 6 / Eq. 7 (fused affine + mask-combine).
    Tensor l_prime = ad::Affine(dec_state.h, w_l_, b_l_);
    Tensor l_comb = ad::MaskCombine(sf.k, sf.l, l_prime);

    // Context vector (Eqs. 10-12), batched: the alignment MLP runs once
    // over all T [s_j | h''_i] rows, and the weighted sum of Eq. 12 is a
    // single (1 x T) @ (T x D) product.
    Tensor context;
    if (config_.attention == BiSimConfig::Attention::kNone) {
      context = zero_context;
    } else {
      Tensor align_in =
          ad::ConcatCols(ad::RepeatRows(dec_state.h, t_len), h_att_stack);
      Tensor energies = ad::Transpose(align_.Forward(align_in));  // 1 x T
      Tensor alpha = ad::SoftmaxRows(energies);
      context = ad::MatMul(alpha, h_att_stack);
    }

    // Optional decoder time lag (ablation).
    if (dec_lag) {
      Tensor gamma_s = ad::Exp(ad::Scale(
          ad::Relu(
              ad::Affine(Tensor::Constant(delta_l[t]), w_gamma_s_, b_gamma_s_)),
          -1.0));
      dec_state.h = ad::Mul(dec_state.h, gamma_s);
    }

    // Eq. 8 (standard LSTM cell per the paper's text).
    dec_state = dec_cell_.Forward(ad::ConcatCols(l_comb, context), dec_state);

    out.l_pred[order[t]] = l_prime;
    out.l_comb[order[t]] = l_comb;
  }
  return out;
}

BiSimModel::SequenceOutput BiSimModel::Forward(const Sequence& seq,
                                               bool compute_loss) const {
  RMI_CHECK(!seq.empty());
  const size_t t_len = seq.size();
  DirectionOutput fwd = RunDirection(seq, /*reversed=*/false);
  DirectionOutput bwd = RunDirection(seq, /*reversed=*/true);

  SequenceOutput out;
  out.f_hat.reserve(t_len);
  out.l_hat.reserve(t_len);
  for (size_t t = 0; t < t_len; ++t) {
    out.f_hat.push_back(
        (fwd.f_comb[t].value() + bwd.f_comb[t].value()) * 0.5);  // Eq. 13
    out.l_hat.push_back((fwd.l_comb[t].value() + bwd.l_comb[t].value()) * 0.5);
  }

  if (compute_loss) {
    Tensor loss;
    const double inv_t = 1.0 / static_cast<double>(t_len);
    for (size_t t = 0; t < t_len; ++t) {
      Tensor f_const = Tensor::Constant(seq[t].f);
      Tensor l_const = Tensor::Constant(seq[t].l);
      // L_forward + L_backward.
      Tensor step =
          ad::Add(ad::Add(ad::MaskedMse(fwd.f_pred[t], f_const, seq[t].m),
                          ad::MaskedMse(fwd.l_pred[t], l_const, seq[t].k)),
                  ad::Add(ad::MaskedMse(bwd.f_pred[t], f_const, seq[t].m),
                          ad::MaskedMse(bwd.l_pred[t], l_const, seq[t].k)));
      // L_cross: forward vs backward predictions.
      step = ad::Add(
          step,
          ad::Add(ad::MaskedMse(fwd.f_pred[t], bwd.f_pred[t], seq[t].m),
                  ad::MaskedMse(fwd.l_pred[t], bwd.l_pred[t], seq[t].k)));
      step = ad::Scale(step, inv_t);
      loss = loss.defined() ? ad::Add(loss, step) : step;
    }
    out.loss = loss;
  }
  return out;
}

namespace {

/// Resolved worker count for a config, capped by `cap` — the number of
/// independent work items per fan-out (accumulation batch size for
/// training, sequence count for inference).
size_t ResolveThreads(const BiSimConfig& config, size_t cap) {
  size_t nt = config.num_threads == 0 ? ThreadPool::DefaultThreads()
                                      : config.num_threads;
  nt = std::min(nt, std::max<size_t>(1, cap));
  return std::max<size_t>(1, nt);
}

}  // namespace

double TrainBiSim(const BiSimModel& model, const std::vector<Sequence>& seqs,
                  const BiSimConfig& config, Rng& rng) {
  RMI_CHECK_GT(config.batch_size, 0u);  // an empty batch would never step
  ad::Adam adam(model.Params(), config.lr);
  const std::vector<ad::Tensor>& params = adam.params();
  std::vector<size_t> idx(seqs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  // One gradient sink and one loss per batch position (slot), whichever
  // worker runs it. Each sequence's Backward writes every grad of its slot
  // (nothing zeroes them first); the slots add into the parameter grads and
  // the epoch loss in slot order, so num_threads changes speed only, never
  // bits.
  const size_t num_slots = std::min(config.batch_size, seqs.size());
  std::vector<ad::GradSink> sinks;
  sinks.reserve(num_slots);
  for (size_t i = 0; i < num_slots; ++i) sinks.emplace_back(params);
  std::vector<double> losses(num_slots);
  std::vector<const double*> rows(num_slots);
  ThreadPool pool(ResolveThreads(config, num_slots));
  double last_loss = 0.0;

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&idx);
    double epoch_loss = 0.0;
    for (size_t start = 0; start < idx.size(); start += config.batch_size) {
      const size_t count = std::min(config.batch_size, idx.size() - start);
      pool.ParallelFor(count, [&](size_t /*worker*/, size_t i) {
        ad::ScopedGradSink scoped(&sinks[i]);
        auto out = model.Forward(seqs[idx[start + i]], /*compute_loss=*/true);
        losses[i] = out.loss.value()(0, 0);
        out.loss.Backward();
      });
      for (size_t p = 0; p < params.size(); ++p) {
        la::Matrix& grad = params[p].node()->grad;
        for (size_t i = 0; i < count; ++i) {
          rows[i] = sinks[i].grads()[p].data().data();
        }
        la::AddSlots(rows.data(), count, grad.size(), grad.data().data());
      }
      for (size_t i = 0; i < count; ++i) rows[i] = &losses[i];
      la::AddSlots(rows.data(), count, 1, &epoch_loss);
      ad::ClipGradNorm(params, config.grad_clip);
      adam.Step();
    }
    last_loss = seqs.empty() ? 0.0
                             : epoch_loss / static_cast<double>(seqs.size());
  }
  return last_loss;
}

rmap::RadioMap BiSimImputer::Impute(const rmap::RadioMap& map,
                                    const rmap::MaskMatrix& amended_mask,
                                    Rng& rng) const {
  ad::ScopedTapeRun tape_run;  // first: outlives every tensor of the run
  const BiSimConfig cfg = config_;
  Rng model_rng(cfg.seed ^ rng.engine()());
  BiSimModel model(map.num_aps(), cfg, model_rng);
  std::vector<Sequence> sequences = BuildSequences(map, amended_mask, cfg);
  last_loss_.store(TrainBiSim(model, sequences, cfg, model_rng),
                   std::memory_order_relaxed);

  // Inference: write combined imputations into a copy of the map. The
  // sequences cover disjoint records, so they fan out over the pool (each
  // worker writes only its own sequences' records).
  rmap::RadioMap result = map;
  ThreadPool pool(ResolveThreads(cfg, sequences.size()));
  pool.ParallelFor(sequences.size(), [&](size_t /*worker*/, size_t s) {
    const Sequence& seq = sequences[s];
    auto out = model.Forward(seq, /*compute_loss=*/false);
    for (size_t t = 0; t < seq.size(); ++t) {
      rmap::Record& r = result.record(seq[t].record_index);
      for (size_t j = 0; j < map.num_aps(); ++j) {
        if (seq[t].m(0, j) == 0.0) {  // MAR cell
          r.rssi[j] = ClampImputed(DenormRssi(out.f_hat[t](0, j)));
        } else if (IsNull(r.rssi[j])) {
          // Mask says observed but the map still holds null: the caller
          // skipped the MNAR fill. Be conservative: fill with -100.
          r.rssi[j] = kMnarFillDbm;
        }
      }
      if (!r.has_rp) {
        r.rp = geom::Point{out.l_hat[t](0, 0) / config_.loc_scale,
                           out.l_hat[t](0, 1) / config_.loc_scale};
        r.has_rp = true;
      }
    }
  });
  return result;
}

void OnlineBiSimImputer::Fit(const rmap::RadioMap& map,
                             const rmap::MaskMatrix& amended_mask, Rng& rng) {
  ad::ScopedTapeRun tape_run;  // the model keeps its parameters, not the pool
  Rng model_rng(config_.seed ^ rng.engine()());
  model_ = std::make_unique<BiSimModel>(map.num_aps(), config_, model_rng);
  const auto sequences = BuildSequences(map, amended_mask, config_);
  training_loss_ = TrainBiSim(*model_, sequences, config_, model_rng);
}

std::vector<double> OnlineBiSimImputer::ImputeFingerprint(
    const TimedScan& online, const std::vector<TimedScan>& recent_scans) const {
  RMI_CHECK(model_ != nullptr);
  const size_t d = model_->num_aps();
  RMI_CHECK_EQ(online.rssi.size(), d);

  // Build a one-off sequence: recent scans (context) + the online scan.
  Sequence seq;
  auto to_step = [&](const TimedScan& scan) {
    RMI_CHECK_EQ(scan.rssi.size(), d);
    StepFeatures sf;
    sf.time = scan.time * config_.time_scale;
    sf.f = la::Matrix(1, d);
    sf.m = la::Matrix(1, d);
    sf.m_att = la::Matrix(1, d);
    for (size_t j = 0; j < d; ++j) {
      if (!IsNull(scan.rssi[j])) {
        sf.m(0, j) = 1.0;
        sf.m_att(0, j) = scan.rssi[j] > kMnarFillDbm + 0.5 ? 1.0 : 0.0;
        sf.f(0, j) = NormRssi(scan.rssi[j]);
      }
    }
    sf.l = la::Matrix(1, 2);  // online device location unknown
    sf.k = la::Matrix(1, 2);
    return sf;
  };
  for (const TimedScan& scan : recent_scans) seq.push_back(to_step(scan));
  seq.push_back(to_step(online));

  const auto out = model_->Forward(seq, /*compute_loss=*/false);
  const la::Matrix& f_hat = out.f_hat.back();
  std::vector<double> result = online.rssi;
  for (size_t j = 0; j < d; ++j) {
    if (IsNull(result[j])) {
      result[j] = ClampImputed(DenormRssi(f_hat(0, j)));
    }
  }
  return result;
}

}  // namespace rmi::bisim
