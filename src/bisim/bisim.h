// BiSIM — Bidirectional Sequence-to-Sequence Imputation Model (paper
// Section IV; the core contribution).
//
// Architecture (per direction): encoder units over the fingerprint sequence
// (Eqs. 2-5, with the time-lag decay of Eq. 1/4), decoder units over the RP
// sequence (Eqs. 6-8), connected by the final encoder latent (s_0 = h_T) and
// a sparsity-friendly Bahdanau attention (Eqs. 9-12). Forward and backward
// passes are averaged (Eq. 13); the loss is
// L_forward + L_backward + L_cross over observed entries of the *predicted*
// vectors f'/l' (Section IV-D).
//
// Dimension note: Eq. 9 multiplies the transformed encoder latent h'_i
// elementwise with the fingerprint mask m_i, which requires the attention
// projection W_a to map the hidden size H to the fingerprint size D; the
// context vector c_j therefore lives in R^D.
#ifndef RMI_BISIM_BISIM_H_
#define RMI_BISIM_BISIM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tensor.h"
#include "common/rng.h"
#include "imputers/imputer.h"
#include "la/matrix.h"
#include "nn/layers.h"
#include "radiomap/radio_map.h"

namespace rmi::bisim {

/// Model/training configuration (paper defaults in Section V-C; scaled-down
/// defaults here keep CPU-only training inside the bench budget).
struct BiSimConfig {
  size_t hidden = 24;            ///< latent size (paper: 64)
  size_t attention_hidden = 24;  ///< alignment-MLP hidden size
  size_t seq_len = 5;            ///< T (paper-tuned optimum; must be > 0)
  size_t epochs = 25;            ///< paper: 500
  /// Sequences accumulated per Adam step (must be > 0). The paper uses 32
  /// with 500 epochs; with the reduced CPU epoch budgets here, smaller
  /// batches give the optimizer enough steps to converge.
  size_t batch_size = 8;
  double lr = 4e-3;
  double grad_clip = 5.0;
  uint64_t seed = 11;
  /// Training/inference worker threads: 0 = all hardware threads. Each
  /// worker runs whole sequences forward/backward; every sequence of an
  /// Adam batch backprops into the gradient sink of its batch position, and
  /// the positions add into the batch gradient in position order. The
  /// trained model and every imputed value therefore have the same bits at
  /// every thread count: this setting changes speed only.
  size_t num_threads = 0;

  /// Attention variants (Fig. 17 ablation).
  enum class Attention {
    kSparsityFriendly,  ///< adapted Bahdanau (ours, Eqs. 9-12)
    kClassicBahdanau,   ///< no mask on h'
    kNone,              ///< zero context vector
  };
  Attention attention = Attention::kSparsityFriendly;

  /// Time-lag variants (Fig. 18 ablation).
  enum class TimeLag {
    kEncoder,  ///< ours: decay on h only
    kDecoder,  ///< decay on s only
    kBoth,
    kNone,
  };
  TimeLag time_lag = TimeLag::kEncoder;

  /// Feature normalization: RSSI -> (v+100)/100, location -> loc * loc_scale,
  /// time lag -> dt * time_scale.
  double loc_scale = 1.0 / 60.0;
  double time_scale = 0.1;
};

/// Prepared input features for one sequence slice (all 1 x K row matrices).
struct StepFeatures {
  la::Matrix f;        ///< 1 x D normalized fingerprint (nulls as 0)
  la::Matrix m;        ///< 1 x D amended mask (1 observed/MNAR-filled, 0 MAR)
  /// 1 x D *observation* mask: 1 only for genuinely measured RSSIs — MNAR
  /// fills (-100 dBm) are synthetic, not observations. This is the mask the
  /// sparsity-friendly attention (Eq. 9) applies: the attention should focus
  /// on what was actually seen, not on the fill value.
  la::Matrix m_att;
  la::Matrix l;        ///< 1 x 2 normalized RP (null as 0)
  la::Matrix k;        ///< 1 x 2 RP mask
  double time = 0.0;   ///< collection time, scaled by time_scale
  size_t record_index = 0;
};
using Sequence = std::vector<StepFeatures>;

/// Builds normalized sequences from a radio map and its amended mask, each
/// path sliced into chunks of config.seq_len steps.
std::vector<Sequence> BuildSequences(const rmap::RadioMap& map,
                                     const rmap::MaskMatrix& amended_mask,
                                     const BiSimConfig& config);

/// Eq. 1's time lags along one direction of `seq` (reversed: last step
/// first), one 1 x W row per visited step: 0 at the first step, then, with
/// dt the time since the previous visited step, dt where that step's mask
/// is 1 and the previous lag + dt where it is 0. `mask` selects the encoder
/// lags (&StepFeatures::m, W = D) or the decoder lags (&StepFeatures::k,
/// W = 2). These are the lags the model reads.
std::vector<la::Matrix> TimeLags(const Sequence& seq, bool reversed,
                                 la::Matrix StepFeatures::*mask);

/// The trainable network.
class BiSimModel {
 public:
  BiSimModel(size_t num_aps, const BiSimConfig& config, Rng& rng);

  struct SequenceOutput {
    /// Combined (f^c / l^c averaged over directions) imputations per step,
    /// in sequence order; plain values, detached from the graph.
    std::vector<la::Matrix> f_hat;
    std::vector<la::Matrix> l_hat;
    /// Scalar training loss node (defined when compute_loss).
    ad::Tensor loss;
  };

  /// Runs the bidirectional model over one sequence.
  SequenceOutput Forward(const Sequence& seq, bool compute_loss) const;

  std::vector<ad::Tensor> Params() const;
  const BiSimConfig& config() const { return config_; }
  size_t num_aps() const { return num_aps_; }

 private:
  struct DirectionOutput {
    std::vector<ad::Tensor> f_pred, f_comb;  // f', f^c per step
    std::vector<ad::Tensor> l_pred, l_comb;  // l', l^c per step
  };
  /// One direction; `reversed` feeds the sequence backwards but reports
  /// outputs re-aligned to original positions.
  DirectionOutput RunDirection(const Sequence& seq, bool reversed) const;

  size_t num_aps_;
  BiSimConfig config_;

  // Encoder (Eqs. 2-5). Eq. 5 writes the recurrence in shorthand; the text
  // specifies the input "is passed to a standard LSTM cell", which is what
  // we use (a plain sigmoid recurrence saturates and cannot carry the
  // positional state the decoder needs).
  ad::Tensor w_f_, b_f_;        ///< H x D, 1 x D — latent -> fingerprint
  ad::Tensor w_gamma_, b_gamma_;///< D x H, 1 x H — time-lag decay (Eq. 4)
  nn::LstmCell enc_cell_;       ///< input f^c ⊕ m (2D), hidden H (Eq. 5)
  ad::Tensor h0_;               ///< 1 x H initial latent (paper: randomized)
  // Decoder (Eqs. 6-8).
  ad::Tensor w_l_, b_l_;        ///< H x 2, 1 x 2
  nn::LstmCell dec_cell_;       ///< input l^c ⊕ c (2 + D), hidden H (Eq. 8)
  ad::Tensor w_gamma_s_, b_gamma_s_;  ///< 2 x H, 1 x H (decoder time lag)
  // Attention (Eqs. 9-12).
  ad::Tensor w_a_, b_a_;        ///< H x D, 1 x D
  nn::Mlp align_;               ///< (H + D) -> A -> 1 alignment MLP (Eq. 10)
};

/// Trains `model` on the prepared sequences with Adam + gradient clipping
/// (reconstruction objective; no held-out ground truth needed). Returns the
/// mean training loss of the final epoch. config.batch_size must be > 0.
double TrainBiSim(const BiSimModel& model, const std::vector<Sequence>& seqs,
                  const BiSimConfig& config, Rng& rng);

/// Trains a BiSIM model on a radio map (reconstruction objective; no
/// held-out ground truth needed) and imputes MAR cells and null RPs. Every
/// call trains from a fresh initialization drawn from `rng`: a
/// serving::MapUpdater rebuild retrains on the whole merged map, exactly as
/// the offline pipeline does. Its tape memory dies with the run.
class BiSimImputer : public imputers::Imputer {
 public:
  explicit BiSimImputer(BiSimConfig config) : config_(config) {}

  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override;

  std::string name() const override { return "BiSIM"; }

  /// Mean training loss of the final epoch of the last Impute call. When
  /// Impute runs concurrently on several threads (e.g. fanned-out bench
  /// repeats sharing one imputer), this reports whichever call finished
  /// last — atomic so concurrent Impute calls stay well-defined.
  double last_training_loss() const {
    return last_loss_.load(std::memory_order_relaxed);
  }

 private:
  BiSimConfig config_;
  mutable std::atomic<double> last_loss_{0.0};
};

/// Online fingerprint imputation — the paper's Section VII future-work
/// item: completing the *online* fingerprint measured by a user's device at
/// location-estimation time, using a BiSIM model trained once on the
/// offline radio map. The online scan is imputed either standalone or in
/// the temporal context of the device's recent scans.
class OnlineBiSimImputer {
 public:
  explicit OnlineBiSimImputer(BiSimConfig config) : config_(config) {}

  /// Trains the model on the offline radio map (amended mask: MNARs already
  /// filled; see imputers::FillMnar). Its tape memory dies with the run.
  void Fit(const rmap::RadioMap& map, const rmap::MaskMatrix& amended_mask,
           Rng& rng);

  /// Completes one online fingerprint (nulls imputed; observed preserved).
  /// `recent_scans` optionally supplies the device's preceding scans
  /// (oldest first, with seconds-ago timestamps) as sequence context.
  /// Runs per query, so it keeps the thread's Workspace pool warm.
  struct TimedScan {
    std::vector<double> rssi;  ///< with nulls
    double time = 0.0;         ///< seconds on the device's clock
  };
  std::vector<double> ImputeFingerprint(
      const TimedScan& online,
      const std::vector<TimedScan>& recent_scans = {}) const;

  bool fitted() const { return model_ != nullptr; }
  double training_loss() const { return training_loss_; }

 private:
  BiSimConfig config_;
  std::unique_ptr<BiSimModel> model_;
  double training_loss_ = 0.0;
};

}  // namespace rmi::bisim

#endif  // RMI_BISIM_BISIM_H_
