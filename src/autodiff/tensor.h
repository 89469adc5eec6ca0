// Reverse-mode automatic differentiation over dense matrices.
//
// Define-by-run tape: every op builds a graph node holding its value, the
// parent handles, and an op tag. Calling Backward() on a scalar node
// topologically sorts the reachable graph and accumulates gradients into
// every node that requires them, dispatching each op's adjoint through a
// switch (no std::function anywhere on the tape). Parameters (leaves
// created with Tensor::Param) persist across steps and borrow nothing from
// the pool: their value, grad and packed transpose are plain allocations
// that die with the model. Op nodes are released when the last handle
// drops, returning their matrix buffers to the calling thread's Workspace
// — steady-state training epochs perform no per-op matrix allocations.
//
// Gradient accumulation is fused: input-gradient adjoints run through
// la::Gemm(beta=1) straight into the parent's grad buffer, elementwise
// adjoints through la::CwiseBinaryAccumulate. Each parameter also keeps a
// packed transposed copy of its value, so the input gradient of x @ w
// streams contiguous rows of w^T (la::GemmNTPacked) with the same bits as
// la::Gemm's NT path on w. A parameter's weight and bias gradients are
// deferred: the adjoints record (x row, g row) pointers in tape order, and
// each parameter's rows land in one la::GemmTNRows pass at the end of
// Backward (or before any other term reaches that parameter), bit for bit
// the rank-1 updates they replace.
//
// The pool and the row log live for one run: see ScopedTapeRun.
//
// Sized for the paper's models: per-step vectors are 1 x K rows, sequences
// of length T=5, latent sizes of tens — graph sizes of a few hundred nodes.
#ifndef RMI_AUTODIFF_TENSOR_H_
#define RMI_AUTODIFF_TENSOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.h"

namespace rmi::ad {

namespace internal {

/// Every differentiable op the tape supports; the backward pass switches
/// on this tag.
enum class OpKind : uint8_t {
  kLeaf,             // Param / Constant
  kAdd,              // a + b
  kSub,              // a - b
  kMul,              // a ⊙ b
  kMatMul,           // a @ b
  kScale,            // a * scalar
  kAffine,           // x @ w + row  (fused Linear)
  kSigmoid,
  kTanh,
  kRelu,
  kExp,
  kConcatCols,   // [a | b], index = a.cols()
  kConcatRows,   // [a ; b], index = a.rows()
  kSliceCols,    // x[:, c0:c1], index = c0
  kRepeatRows,   // 1 x C row tiled to N x C
  kTranspose,    // x^T
  kSoftmaxRows,  // row-wise softmax
  kSum,          // scalar sum of entries
  kLstmGates,      // fused LSTM pointwise block: (gates, c_prev) -> [h | c]
  kMaskCombine,    // m ⊙ obs + (1-m) ⊙ pred, aux = m (obs, m constant)
  kMaskedMse,      // mean((mask ⊙ (a-b))^2), aux = mask
  kBceWithLogits,  // stable BCE vs constant targets, aux = targets
};

/// Marks the end of a chain of deferred rows (GradAccumulator).
inline constexpr uint32_t kNoRow = UINT32_MAX;

/// Where one parameter's gradient lands during Backward: its buffer, and
/// the chain of its weight-gradient rows deferred to the end of the pass in
/// the calling thread's row log. Row r adds the outer product
/// x_r^T g_r (a bias's x row is the single value 1.0). The rows are
/// applied in tape order, in one la::GemmTNRows pass, before the pass ends
/// and before any other term lands in `grad`.
struct GradAccumulator {
  la::Matrix* grad = nullptr;
  uint32_t first_row = kNoRow;  ///< oldest deferred row, kNoRow if none
  uint32_t last_row = kNoRow;   ///< newest deferred row
  /// `grad` holds a sum to add onto. False only for a GradSink slot that
  /// nothing has written since the sink was installed: its stale contents
  /// are never read, the first write starts from 0.0.
  bool written = true;
};

/// A parameter's gradient bookkeeping (Tensor::Param nodes only).
struct ParamState {
  /// Its own accumulator (onto Node::grad), used when no installed GradSink
  /// tracks the parameter.
  GradAccumulator own_grad;
  /// Its position in every GradSink built over it; SIZE_MAX before the
  /// first.
  size_t sink_slot = SIZE_MAX;
};

struct Node {
  la::Matrix value;
  la::Matrix grad;  ///< zero-initialized; plain for a parameter, else pooled
  /// Per-op payload: the constant mask / targets, kLstmGates' stored gate
  /// activations, or a parameter's packed transpose value^T.
  la::Matrix aux;
  OpKind op = OpKind::kLeaf;
  bool requires_grad = false;
  /// A parameter's aux holds value^T as of its last Tensor::Repack();
  /// cleared by Tensor::mutable_value().
  bool packed_current = false;
  uint64_t visit_mark = 0;  ///< topo-sort stamp (thread-confined graphs)
  double scalar = 0.0;      ///< kScale factor / cached multiplier
  size_t index = 0;         ///< kConcatCols split / kSliceCols offset
  std::unique_ptr<ParamState> param;  ///< set for a Tensor::Param leaf
  std::array<std::shared_ptr<Node>, 3> parents;  ///< up to 3 (kAffine)
  size_t num_parents = 0;

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  /// Returns an op node's buffers to the calling thread's Workspace. A
  /// parameter's are plain allocations, freed here.
  ~Node();

  /// True for a Tensor::Param leaf.
  bool is_param() const { return op == OpKind::kLeaf && requires_grad; }

  void EnsureGrad();
  /// Propagates this node's grad into its parents' grads (op switch).
  void Backprop();
};

/// Test hook: heap allocations the calling thread's deferred-row storage
/// has made. Within a run the storage grows to the longest pass and keeps
/// its capacity, so training allocates nothing for the deferral after its
/// first epoch.
size_t DeferredRowAllocationsForTesting();

/// Test hook: bytes of capacity in the calling thread's row log, gather
/// arrays and sort scratch; zero after a ScopedTapeRun ends.
size_t TapeScratchBytesForTesting();

}  // namespace internal

/// Value handle into the autodiff graph (cheap shared-pointer copy).
class Tensor {
 public:
  Tensor() = default;

  /// Trainable leaf (gradient accumulated by Backward, consumed by Adam).
  /// Borrows nothing from the Workspace: it outlives a run's pool. Packs
  /// its transposed copy (see Repack).
  static Tensor Param(la::Matrix value);

  /// Non-trainable leaf (inputs, masks); the value is copied into pooled
  /// storage so per-step constants recycle like any other node.
  static Tensor Constant(const la::Matrix& value);

  bool defined() const { return node_ != nullptr; }
  const la::Matrix& value() const { return node_->value; }
  /// Writable value. Marks a parameter's packed transpose stale: input
  /// gradients then read the row-major value (same bits, slower) until the
  /// next Repack(). Writes through the returned reference must come before
  /// that Repack().
  la::Matrix& mutable_value() {
    node_->packed_current = false;
    return node_->value;
  }
  /// Rewrites a parameter's packed transpose from its value and marks it
  /// current. Adam::Step calls it after every step, in the trainer's
  /// serial section, so workers only ever read the copy.
  void Repack();
  const la::Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }

  size_t rows() const { return node_->value.rows(); }
  size_t cols() const { return node_->value.cols(); }

  /// Zeroes the accumulated gradient (typically on parameters after a step).
  void ZeroGrad();

  /// Runs reverse-mode accumulation from this scalar (1x1) node.
  void Backward() const;

  /// Internal: node access for op construction.
  const std::shared_ptr<internal::Node>& node() const { return node_; }
  explicit Tensor(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}

 private:
  std::shared_ptr<internal::Node> node_;
};

/// Redirects leaf-parameter gradient accumulation into shadow buffers so
/// several workers can run Backward() on graphs sharing the same parameters
/// without racing. Install with ScopedGradSink on the thread that runs
/// Backward(). Installing a sink starts its sums over without touching its
/// buffers: each Backward writes every shadow grad, the first term of each
/// starting from 0.0, so after the first Backward under a ScopedGradSink
/// the grads hold the sum of that scope's passes. TrainBiSim keeps one sink
/// per position in an Adam batch, whichever worker fills it, and adds the
/// sinks into the parameter grads in position order, so the batch gradient
/// has the same bits at every thread count.
class GradSink {
 public:
  /// Every parameter keeps one position in all the sinks built over it
  /// (checked), so the tape finds its slot without a search.
  explicit GradSink(const std::vector<Tensor>& params);
  // Movable but not copyable: the slots point into this sink's own grads.
  GradSink(GradSink&&) = default;
  GradSink(const GradSink&) = delete;
  GradSink& operator=(const GradSink&) = delete;

  /// Shadow grads, parallel to the constructor's params order.
  std::vector<la::Matrix>& grads() { return grads_; }

  /// Internal (the tape): the slot of the parameter `node`, or nullptr if
  /// this sink does not track it.
  internal::GradAccumulator* Slot(const internal::Node* node) {
    const size_t i = node->param->sink_slot;
    return i < nodes_.size() && nodes_[i] == node ? &slots_[i] : nullptr;
  }
  /// Internal (the tape): every slot, parallel to grads().
  std::vector<internal::GradAccumulator>& slots() { return slots_; }

 private:
  std::vector<const internal::Node*> nodes_;
  std::vector<la::Matrix> grads_;
  std::vector<internal::GradAccumulator> slots_;  ///< write into grads_
};

/// RAII installer of the calling thread's active GradSink; installing marks
/// every shadow grad unwritten (see GradSink).
class ScopedGradSink {
 public:
  explicit ScopedGradSink(GradSink* sink);
  ~ScopedGradSink();
  ScopedGradSink(const ScopedGradSink&) = delete;
  ScopedGradSink& operator=(const ScopedGradSink&) = delete;

 private:
  GradSink* previous_;
};

/// Scopes the calling thread's tape memory to one run. Each public trainer
/// entry declares one first, so it outlives every tensor of the run. When
/// the run returns or throws, it frees the thread's pooled Workspace
/// buffers, deferred-row log, gather arrays and Backward's sort scratch;
/// the next run warms them again. Safe anywhere outside Backward.
class ScopedTapeRun {
 public:
  ScopedTapeRun() = default;
  ~ScopedTapeRun();
  ScopedTapeRun(const ScopedTapeRun&) = delete;
  ScopedTapeRun& operator=(const ScopedTapeRun&) = delete;
};

/// --- Ops (shape-checked; broadcast rules documented per op). -------------

/// Elementwise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) a * b.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Matrix product (r x k) * (k x c).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// x * s for a compile-time-known scalar s.
Tensor Scale(const Tensor& x, double s);
/// Affine map x @ w + bias, the 1 x C bias row added to every row of x @ w
/// (one node; the adjoint accumulates via Gemm(beta=1)).
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias);

Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Relu(const Tensor& x);
/// exp(x), elementwise.
Tensor Exp(const Tensor& x);

/// Horizontal concatenation [a | b] of two single-row (or same-row) tensors.
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation [a ; b] (equal column counts) — used to stack
/// per-step latents into one batched operand.
Tensor ConcatRows(const Tensor& a, const Tensor& b);
/// Columns [c0, c1) of x.
Tensor SliceCols(const Tensor& x, size_t c0, size_t c1);
/// The 1 x C row x tiled to n x C (broadcast over a batch dimension).
Tensor RepeatRows(const Tensor& x, size_t n);
/// Matrix transpose.
Tensor Transpose(const Tensor& x);

/// Row-wise softmax (each row normalized independently).
Tensor SoftmaxRows(const Tensor& x);

/// Fused LSTM pointwise block. `gates` is the N x 4H pre-activation
/// [i, f, g, o] block, c_prev the N x H previous cell state; returns
/// [h | c] (N x 2H) where c = sigmoid(f)*c_prev + sigmoid(i)*tanh(g) and
/// h = sigmoid(o)*tanh(c). One node instead of the 11-node slice/
/// activation/combine chain. The forward pass keeps the five activations
/// (i, f, g, o, tanh c) in the node's pooled aux, and the adjoint reads
/// them instead of recomputing them.
Tensor LstmGates(const Tensor& gates, const Tensor& c_prev);

/// Scalar sum of all entries.
Tensor Sum(const Tensor& x);
/// Mean of all entries (scalar).
Tensor Mean(const Tensor& x);
/// Fused missing-data combine (paper Eqs. 3/7) with constant mask m and
/// observation vector obs:  m ⊙ obs + (1-m) ⊙ pred. One node instead of
/// two Mul + one Add + two Constant nodes.
Tensor MaskCombine(const la::Matrix& m, const la::Matrix& obs,
                   const Tensor& pred);
/// Mean squared error between same-shape tensors (scalar).
Tensor Mse(const Tensor& a, const Tensor& b);
/// Masked MSE: mean over all entries of (mask*(a-b))^2 — the paper's
/// L(a, a', mask) with a constant 0/1 mask. Fused single node.
Tensor MaskedMse(const Tensor& a, const Tensor& b, const la::Matrix& mask);
/// Numerically stable binary cross-entropy with logits against constant
/// targets in [0,1]; returns the scalar mean.
Tensor BceWithLogits(const Tensor& logits, const la::Matrix& targets);

}  // namespace rmi::ad

#endif  // RMI_AUTODIFF_TENSOR_H_
