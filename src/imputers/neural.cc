#include "imputers/neural.h"

#include <algorithm>
#include <cmath>

#include "autodiff/optimizer.h"
#include "autodiff/tensor.h"
#include "common/check.h"
#include "common/missing.h"
#include "nn/layers.h"

namespace rmi::imputers {

namespace {

using ad::Tensor;

double NormRssi(double v) { return (v + 100.0) / 100.0; }
double DenormRssi(double v) { return v * 100.0 - 100.0; }

/// Prepared fingerprint-only sequences for the neural baselines (the same
/// slicing as BiSIM, but without RP features).
struct Step {
  la::Matrix x;  ///< 1 x D normalized fingerprint (nulls as 0)
  la::Matrix m;  ///< 1 x D amended mask
  double time = 0.0;
  size_t record_index = 0;
};
using Seq = std::vector<Step>;

std::vector<Seq> BuildSeqs(const rmap::RadioMap& map,
                           const rmap::MaskMatrix& mask, size_t seq_len,
                           double time_scale) {
  const size_t d = map.num_aps();
  std::vector<Seq> out;
  for (const auto& path : map.PathSequences()) {
    for (size_t start = 0; start < path.size(); start += seq_len) {
      const size_t end = std::min(start + seq_len, path.size());
      Seq seq;
      for (size_t t = start; t < end; ++t) {
        const rmap::Record& r = map.record(path[t]);
        Step s;
        s.record_index = path[t];
        s.time = r.time * time_scale;
        s.x = la::Matrix(1, d);
        s.m = la::Matrix(1, d);
        for (size_t j = 0; j < d; ++j) {
          const bool obs = mask.at(path[t], j) == rmap::MaskValue::kObserved;
          s.m(0, j) = obs ? 1.0 : 0.0;
          s.x(0, j) = obs ? NormRssi(r.rssi[j]) : 0.0;
        }
        seq.push_back(std::move(s));
      }
      if (!seq.empty()) out.push_back(std::move(seq));
    }
  }
  return out;
}

/// Time-lag vectors along a visiting order (Eq. 1 of the paper / GRU-D).
la::Matrix StepDelta(const Seq& seq, const std::vector<size_t>& order,
                     size_t t, la::Matrix* prev_delta, la::Matrix* prev_m) {
  const size_t d = seq[0].x.cols();
  la::Matrix delta(1, d);
  if (t > 0) {
    const double dt = std::fabs(seq[order[t]].time - seq[order[t - 1]].time);
    for (size_t j = 0; j < d; ++j) {
      delta(0, j) =
          (*prev_m)(0, j) == 1.0 ? dt : (*prev_delta)(0, j) + dt;
    }
  }
  *prev_delta = delta;
  *prev_m = seq[order[t]].m;
  return delta;
}

/// Fills null RPs by linear interpolation (the BRITS/SSGAN RP strategy) and
/// writes imputed RSSI values.
rmap::RadioMap EmitWithLiRps(
    const rmap::RadioMap& map,
    const std::vector<std::pair<size_t, la::Matrix>>& imputed_rows) {
  rmap::RadioMap out = map;
  const auto rps = map.InterpolatedRps();
  for (size_t i = 0; i < out.size(); ++i) {
    rmap::Record& r = out.record(i);
    if (!r.has_rp) {
      r.rp = rps[i];
      r.has_rp = true;
    }
  }
  for (const auto& [idx, row] : imputed_rows) {
    rmap::Record& r = out.record(idx);
    for (size_t j = 0; j < row.cols(); ++j) {
      if (IsNull(r.rssi[j])) r.rssi[j] = ClampImputed(DenormRssi(row(0, j)));
    }
  }
  // Any record not covered by a sequence (cannot happen with the current
  // slicing, but keep the output contract airtight).
  for (size_t i = 0; i < out.size(); ++i) {
    for (double& v : out.record(i).rssi) {
      if (IsNull(v)) v = kMnarFillDbm;
    }
  }
  return out;
}

/// One-direction recurrent imputation pass used by BRITS.
struct RitsCore {
  nn::LstmCell cell;
  nn::Linear regress;       // hidden -> D
  Tensor w_gamma, b_gamma;  // D -> hidden decay

  RitsCore(size_t d, size_t hidden, Rng& rng)
      : cell(2 * d, hidden, rng), regress(hidden, d, rng),
        w_gamma(Tensor::Param(nn::XavierInit(d, hidden, rng))),
        b_gamma(Tensor::Param(la::Matrix(1, hidden))) {}

  std::vector<Tensor> Params() const {
    std::vector<Tensor> p = cell.Params();
    nn::AppendParams(&p, regress.Params());
    p.push_back(w_gamma);
    p.push_back(b_gamma);
    return p;
  }

  struct Output {
    std::vector<Tensor> x_pred;  ///< x̂ per original position
    std::vector<Tensor> x_comb;  ///< x^c per original position
  };

  Output Run(const Seq& seq, bool reversed) const {
    const size_t t_len = seq.size();
    const size_t d = seq[0].x.cols();
    std::vector<size_t> order(t_len);
    for (size_t t = 0; t < t_len; ++t) order[t] = reversed ? t_len - 1 - t : t;
    Output out;
    out.x_pred.resize(t_len);
    out.x_comb.resize(t_len);
    nn::LstmCell::State st = cell.InitialState();
    la::Matrix prev_delta(1, d), prev_m(1, d, 1.0);
    for (size_t t = 0; t < t_len; ++t) {
      const Step& s = seq[order[t]];
      la::Matrix delta = StepDelta(seq, order, t, &prev_delta, &prev_m);
      Tensor m = Tensor::Constant(s.m);
      Tensor x_pred = regress.Forward(st.h);
      Tensor x_comb = ad::MaskCombine(s.m, s.x, x_pred);
      Tensor gamma = ad::Exp(ad::Scale(
          ad::Relu(ad::Affine(Tensor::Constant(delta), w_gamma, b_gamma)),
          -1.0));
      nn::LstmCell::State decayed{ad::Mul(st.h, gamma), st.c};
      st = cell.Forward(ad::ConcatCols(x_comb, m), decayed);
      out.x_pred[order[t]] = x_pred;
      out.x_comb[order[t]] = x_comb;
    }
    return out;
  }
};

}  // namespace

rmap::RadioMap BritsImputer::Impute(const rmap::RadioMap& map,
                                    const rmap::MaskMatrix& amended_mask,
                                    Rng& rng) const {
  ad::ScopedTapeRun tape_run;  // first: outlives every tensor of the run
  const size_t d = map.num_aps();
  Rng model_rng(params_.seed ^ rng.engine()());
  RitsCore fwd_core(d, params_.hidden, model_rng);
  RitsCore bwd_core(d, params_.hidden, model_rng);
  std::vector<Tensor> params = fwd_core.Params();
  nn::AppendParams(&params, bwd_core.Params());
  ad::Adam adam(params, params_.lr);

  auto seqs = BuildSeqs(map, amended_mask, params_.seq_len, params_.time_scale);
  std::vector<size_t> idx(seqs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  auto loss_of = [&](const Seq& seq) {
    auto f = fwd_core.Run(seq, false);
    auto b = bwd_core.Run(seq, true);
    Tensor loss;
    const double inv_t = 1.0 / static_cast<double>(seq.size());
    for (size_t t = 0; t < seq.size(); ++t) {
      Tensor x_const = Tensor::Constant(seq[t].x);
      Tensor step = ad::Add(ad::MaskedMse(f.x_pred[t], x_const, seq[t].m),
                            ad::MaskedMse(b.x_pred[t], x_const, seq[t].m));
      // Consistency between directions (BRITS' discrepancy term).
      step = ad::Add(step, ad::Scale(ad::Mse(f.x_comb[t], b.x_comb[t]), 0.1));
      loss = loss.defined() ? ad::Add(loss, ad::Scale(step, inv_t))
                            : ad::Scale(step, inv_t);
    }
    return loss;
  };

  size_t in_batch = 0;
  for (size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    model_rng.Shuffle(&idx);
    for (size_t i : idx) {
      loss_of(seqs[i]).Backward();
      if (++in_batch >= params_.batch_size) {
        ad::ClipGradNorm(adam.params(), params_.grad_clip);
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      ad::ClipGradNorm(adam.params(), params_.grad_clip);
      adam.Step();
      in_batch = 0;
    }
  }

  std::vector<std::pair<size_t, la::Matrix>> rows;
  for (const Seq& seq : seqs) {
    auto f = fwd_core.Run(seq, false);
    auto b = bwd_core.Run(seq, true);
    for (size_t t = 0; t < seq.size(); ++t) {
      rows.emplace_back(seq[t].record_index,
                        (f.x_comb[t].value() + b.x_comb[t].value()) * 0.5);
    }
  }
  return EmitWithLiRps(map, rows);
}

rmap::RadioMap SsganImputer::Impute(const rmap::RadioMap& map,
                                    const rmap::MaskMatrix& amended_mask,
                                    Rng& rng) const {
  ad::ScopedTapeRun tape_run;  // first: outlives every tensor of the run
  const size_t d = map.num_aps();
  Rng model_rng(params_.seed ^ rng.engine()());

  // Generator: GRU-based recurrent imputer with temporal decay.
  struct GenCore {
    nn::GruCell cell;
    nn::Linear regress;
    Tensor w_gamma, b_gamma;
    GenCore(size_t dd, size_t hidden, Rng& r)
        : cell(2 * dd, hidden, r), regress(hidden, dd, r),
          w_gamma(Tensor::Param(nn::XavierInit(dd, hidden, r))),
          b_gamma(Tensor::Param(la::Matrix(1, hidden))) {}
    std::vector<Tensor> Params() const {
      std::vector<Tensor> p = cell.Params();
      nn::AppendParams(&p, regress.Params());
      p.push_back(w_gamma);
      p.push_back(b_gamma);
      return p;
    }
  };
  GenCore gen(d, params_.hidden, model_rng);
  nn::Mlp disc({d, params_.disc_hidden, d}, model_rng);

  ad::Adam gen_opt(gen.Params(), params_.lr);
  ad::Adam disc_opt(disc.Params(), params_.lr);

  auto seqs = BuildSeqs(map, amended_mask, params_.seq_len, params_.time_scale);
  std::vector<size_t> idx(seqs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  // Runs the generator over a sequence; returns per-step (x_pred, x_comb).
  auto run_gen = [&](const Seq& seq) {
    std::vector<std::pair<Tensor, Tensor>> out;
    Tensor h = gen.cell.InitialState();
    la::Matrix prev_delta(1, d), prev_m(1, d, 1.0);
    std::vector<size_t> order(seq.size());
    for (size_t t = 0; t < order.size(); ++t) order[t] = t;
    for (size_t t = 0; t < seq.size(); ++t) {
      const Step& s = seq[t];
      la::Matrix delta = StepDelta(seq, order, t, &prev_delta, &prev_m);
      Tensor m = Tensor::Constant(s.m);
      Tensor x_pred = gen.regress.Forward(h);
      Tensor x_comb = ad::MaskCombine(s.m, s.x, x_pred);
      Tensor gamma = ad::Exp(ad::Scale(
          ad::Relu(ad::Affine(Tensor::Constant(delta), gen.w_gamma,
                              gen.b_gamma)),
          -1.0));
      h = gen.cell.Forward(ad::ConcatCols(x_comb, m), ad::Mul(h, gamma));
      out.emplace_back(x_pred, x_comb);
    }
    return out;
  };

  size_t in_batch = 0;
  for (size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    model_rng.Shuffle(&idx);
    for (size_t i : idx) {
      const Seq& seq = seqs[i];
      auto steps = run_gen(seq);

      // --- Discriminator step: classify each cell observed(1)/imputed(0)
      // from the *detached* combined vector.
      Tensor d_loss;
      for (size_t t = 0; t < seq.size(); ++t) {
        Tensor detached = Tensor::Constant(steps[t].second.value());
        Tensor logits = disc.Forward(detached);
        Tensor l = ad::BceWithLogits(logits, seq[t].m);
        d_loss = d_loss.defined() ? ad::Add(d_loss, l) : l;
      }
      d_loss.Backward();
      disc_opt.Step();

      // --- Generator step: reconstruction + fooling the discriminator on
      // imputed cells (gradients reach the generator only through them).
      Tensor g_loss;
      const double inv_t = 1.0 / static_cast<double>(seq.size());
      for (size_t t = 0; t < seq.size(); ++t) {
        Tensor recon = ad::MaskedMse(steps[t].first,
                                     Tensor::Constant(seq[t].x), seq[t].m);
        Tensor logits = disc.Forward(steps[t].second);
        Tensor adv = ad::BceWithLogits(
            logits, la::Matrix(1, d, 1.0));
        Tensor step = ad::Add(recon, ad::Scale(adv, params_.adv_weight));
        g_loss = g_loss.defined() ? ad::Add(g_loss, ad::Scale(step, inv_t))
                                  : ad::Scale(step, inv_t);
      }
      // The adversarial term also backpropagates into the discriminator's
      // parameters; zero them afterwards so only the generator updates.
      g_loss.Backward();
      disc_opt.ZeroGrad();
      if (++in_batch >= params_.batch_size) {
        ad::ClipGradNorm(gen_opt.params(), params_.grad_clip);
        gen_opt.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      ad::ClipGradNorm(gen_opt.params(), params_.grad_clip);
      gen_opt.Step();
      in_batch = 0;
    }
  }

  std::vector<std::pair<size_t, la::Matrix>> rows;
  for (const Seq& seq : seqs) {
    auto steps = run_gen(seq);
    for (size_t t = 0; t < seq.size(); ++t) {
      rows.emplace_back(seq[t].record_index, steps[t].second.value());
    }
  }
  return EmitWithLiRps(map, rows);
}

}  // namespace rmi::imputers
