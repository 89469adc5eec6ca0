#include "autodiff/tensor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autodiff/workspace.h"
#include "common/check.h"
#include "la/gemm_repro.h"
#include "la/kernels.h"

namespace rmi::ad {

using internal::Node;
using internal::OpKind;

namespace {

using internal::GradAccumulator;
using internal::kNoRow;

/// Active gradient sink of the calling thread (see GradSink).
thread_local GradSink* tls_grad_sink = nullptr;

/// One deferred weight-gradient row: grad += x^T g, for the x and g rows
/// starting here. `next` chains a parameter's rows in tape order.
struct DeferredRow {
  const double* x;
  const double* g;
  uint32_t next;
};

/// This thread's deferred rows in tape order, and the accumulators that
/// hold a chain of them; Backward applies and clears both before it
/// returns. Both keep their capacity until the run ends (ScopedTapeRun),
/// so after a run's first pass the deferral allocates nothing.
thread_local std::vector<DeferredRow> tls_rows;
thread_local std::vector<GradAccumulator*> tls_pending;
/// One parameter's chain, gathered into the kernel's row-pointer arrays.
thread_local std::vector<const double*> tls_x_rows;
thread_local std::vector<const double*> tls_g_rows;
/// Heap allocations the four vectors above have made on this thread.
thread_local size_t tls_row_allocations = 0;

/// Backward's topological-sort scratch: the post-order and the DFS stack.
thread_local std::vector<Node*> tls_order;
thread_local std::vector<std::pair<Node*, size_t>> tls_stack;

/// Frees v's storage (clear() keeps the capacity).
template <typename T>
void FreeStorage(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

/// v->push_back(x), counting the allocation when v is full.
template <typename T>
void Append(std::vector<T>* v, const T& x) {
  if (v->size() == v->capacity()) ++tls_row_allocations;
  v->push_back(x);
}

/// A bias's x row: its gradient adds 1.0 * g(r, :), which is g(r, :).
constexpr double kOne = 1.0;

/// Where parameter p's gradient accumulates on this thread: its slot in
/// the installed sink, else its own accumulator onto p->grad.
GradAccumulator* AccumulatorOf(Node* p) {
  if (tls_grad_sink != nullptr) {
    if (GradAccumulator* slot = tls_grad_sink->Slot(p)) return slot;
  }
  p->EnsureGrad();
  return &p->param->own_grad;
}

/// Applies acc's deferred rows to its grad in one pass, in tape order:
/// from 0.0 into an unwritten sink slot, onto the grad otherwise.
void Flush(GradAccumulator* acc) {
  if (acc->first_row == kNoRow) return;
  tls_x_rows.clear();
  tls_g_rows.clear();
  for (uint32_t r = acc->first_row; r != kNoRow;
       r = tls_rows[r].next) {
    Append(&tls_x_rows, tls_rows[r].x);
    Append(&tls_g_rows, tls_rows[r].g);
  }
  la::Matrix& grad = *acc->grad;
  la::GemmTNRows(1.0, tls_x_rows.data(), tls_g_rows.data(),
                 grad.data().data(), grad.rows(), tls_x_rows.size(),
                 grad.cols(), /*from_zero=*/!acc->written);
  acc->written = true;
  acc->first_row = acc->last_row = kNoRow;
}

/// Where a parent's gradient should accumulate now: a parameter's
/// accumulator (its deferred rows applied first, an unwritten sink slot
/// zeroed), the node's own grad otherwise. Returns nullptr when the parent
/// does not participate in training.
la::Matrix* GradTarget(Node* p) {
  if (!p->requires_grad) return nullptr;
  if (p->is_param()) {
    GradAccumulator* acc = AccumulatorOf(p);
    Flush(acc);
    if (!acc->written) {
      la::Fill(acc->grad, 0.0);
      acc->written = true;
    }
    return acc->grad;
  }
  p->EnsureGrad();
  return &p->grad;
}

/// Defers parameter w's gradient x^T g: chains the row pointers
/// x + r * x_stride and g(r, :), for every row r of g in order, onto w's
/// accumulator.
void DeferRows(Node* w, const double* x, size_t x_stride, const la::Matrix& g) {
  GradAccumulator* acc = AccumulatorOf(w);
  if (acc->first_row == kNoRow) Append(&tls_pending, acc);
  const double* pg = g.data().data();
  for (size_t r = 0; r < g.rows(); ++r) {
    RMI_CHECK_LT(tls_rows.size(), size_t{kNoRow});
    const auto row = static_cast<uint32_t>(tls_rows.size());
    Append(&tls_rows,
           DeferredRow{x + r * x_stride, pg + r * g.cols(), kNoRow});
    if (acc->first_row == kNoRow) {
      acc->first_row = row;
    } else {
      tls_rows[acc->last_row].next = row;
    }
    acc->last_row = row;
  }
}

std::shared_ptr<Node> NewNode(OpKind op, la::Matrix value,
                              const std::shared_ptr<Node>& p0,
                              const std::shared_ptr<Node>& p1 = nullptr,
                              const std::shared_ptr<Node>& p2 = nullptr) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->value = std::move(value);
  if (p0) n->parents[n->num_parents++] = p0;
  if (p1) n->parents[n->num_parents++] = p1;
  if (p2) n->parents[n->num_parents++] = p2;
  for (size_t i = 0; i < n->num_parents; ++i) {
    if (n->parents[i]->requires_grad) {
      n->requires_grad = true;
      break;
    }
  }
  return n;
}

/// Numerically stable logistic function. exp(v) is evaluated once: under
/// -fmath-errno GCC does not merge two calls.
inline double StableSigmoid(double v) {
  if (v >= 0) return 1.0 / (1.0 + std::exp(-v));
  const double e = std::exp(v);
  return e / (1.0 + e);
}

/// The weight gradient x^T g of x @ w (Affine, MatMul): deferred for a
/// parameter, added now through la::Gemm's TN path for any other operand.
void AccumulateWeightGrad(const la::Matrix& x, const la::Matrix& g, Node* w) {
  if (w->is_param()) {
    DeferRows(w, x.data().data(), x.cols(), g);
  } else if (la::Matrix* t = GradTarget(w)) {
    la::Gemm(1.0, x, true, g, false, 1.0, t);
  }
}

/// The gradient of a 1 x C row broadcast over g's rows (a bias; also
/// RepeatRows' input): g's column sums, deferred for a parameter like a
/// weight gradient over x rows of 1.0.
void AccumulateBiasGrad(const la::Matrix& g, Node* bias) {
  if (bias->is_param()) {
    DeferRows(bias, &kOne, 0, g);
  } else if (la::Matrix* t = GradTarget(bias)) {
    la::AccumulateColSums(g, t);
  }
}

/// t += g * w^T, the input gradient of x @ w (Affine, MatMul). A parameter
/// whose packed transpose is current goes through it (la::GemmNTPacked);
/// any other operand — an activation, or a parameter written through
/// mutable_value() since its last Repack() — through la::Gemm's NT path on
/// the row-major value. The two give the same bits.
void AccumulateInputGrad(const la::Matrix& g, const Node& w, la::Matrix* t) {
  if (w.packed_current) {
    la::GemmNTPacked(1.0, g, w.aux, t);
  } else {
    la::Gemm(1.0, g, false, w.value, true, 1.0, t);
  }
}

}  // namespace

namespace internal {

size_t DeferredRowAllocationsForTesting() { return tls_row_allocations; }

size_t TapeScratchBytesForTesting() {
  return tls_rows.capacity() * sizeof(DeferredRow) +
         tls_pending.capacity() * sizeof(GradAccumulator*) +
         (tls_x_rows.capacity() + tls_g_rows.capacity()) *
             sizeof(const double*) +
         tls_order.capacity() * sizeof(Node*) +
         tls_stack.capacity() * sizeof(std::pair<Node*, size_t>);
}

Node::~Node() {
  if (is_param()) return;  // plain allocations, freed with the node
  Workspace& ws = Workspace::Get();
  if (value.size() != 0) ws.Recycle(std::move(value));
  if (grad.size() != 0) ws.Recycle(std::move(grad));
  if (aux.size() != 0) ws.Recycle(std::move(aux));
}

void Node::EnsureGrad() {
  if (grad.rows() == value.rows() && grad.cols() == value.cols()) return;
  if (is_param()) {
    grad = la::Matrix(value.rows(), value.cols());
    return;
  }
  Workspace& ws = Workspace::Get();
  if (grad.size() != 0) ws.Recycle(std::move(grad));
  grad = ws.AcquireZero(value.rows(), value.cols());
}

void Node::Backprop() {
  Node* p0 = num_parents > 0 ? parents[0].get() : nullptr;
  Node* p1 = num_parents > 1 ? parents[1].get() : nullptr;
  Node* p2 = num_parents > 2 ? parents[2].get() : nullptr;
  const la::Matrix& g = grad;
  switch (op) {
    case OpKind::kLeaf:
      break;
    case OpKind::kAdd: {
      if (la::Matrix* t = GradTarget(p0)) la::Axpy(1.0, g, t);
      if (la::Matrix* t = GradTarget(p1)) la::Axpy(1.0, g, t);
      break;
    }
    case OpKind::kSub: {
      if (la::Matrix* t = GradTarget(p0)) la::Axpy(1.0, g, t);
      if (la::Matrix* t = GradTarget(p1)) la::Axpy(-1.0, g, t);
      break;
    }
    case OpKind::kMul: {
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, p1->value, t,
                                  [](double gi, double v) { return gi * v; });
      }
      if (la::Matrix* t = GradTarget(p1)) {
        la::CwiseBinaryAccumulate(g, p0->value, t,
                                  [](double gi, double v) { return gi * v; });
      }
      break;
    }
    case OpKind::kMatMul: {
      if (la::Matrix* t = GradTarget(p0)) AccumulateInputGrad(g, *p1, t);
      if (p1->requires_grad) AccumulateWeightGrad(p0->value, g, p1);
      break;
    }
    case OpKind::kScale: {
      if (la::Matrix* t = GradTarget(p0)) la::Axpy(scalar, g, t);
      break;
    }
    case OpKind::kAffine: {
      // value = x @ w + bias; parents: [x, w, bias].
      if (la::Matrix* t = GradTarget(p0)) AccumulateInputGrad(g, *p1, t);
      if (p1->requires_grad) AccumulateWeightGrad(p0->value, g, p1);
      if (p2->requires_grad) AccumulateBiasGrad(g, p2);
      break;
    }
    case OpKind::kSigmoid: {
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, value, t, [](double gi, double v) {
          return gi * (v * (1.0 - v));
        });
      }
      break;
    }
    case OpKind::kTanh: {
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, value, t, [](double gi, double v) {
          return gi * (1.0 - v * v);
        });
      }
      break;
    }
    case OpKind::kRelu: {
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, p0->value, t, [](double gi, double x) {
          return x > 0 ? gi : 0.0;
        });
      }
      break;
    }
    case OpKind::kExp: {
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, value, t, [](double gi, double v) {
          return gi * v;
        });
      }
      break;
    }
    case OpKind::kConcatCols: {
      const size_t ca = index;
      const size_t cols = g.cols();
      if (la::Matrix* t = GradTarget(p0)) {
        for (size_t i = 0; i < g.rows(); ++i) {
          const double* grow = g.data().data() + i * cols;
          double* trow = t->data().data() + i * ca;
          for (size_t j = 0; j < ca; ++j) trow[j] += grow[j];
        }
      }
      if (la::Matrix* t = GradTarget(p1)) {
        const size_t cb = cols - ca;
        for (size_t i = 0; i < g.rows(); ++i) {
          const double* grow = g.data().data() + i * cols + ca;
          double* trow = t->data().data() + i * cb;
          for (size_t j = 0; j < cb; ++j) trow[j] += grow[j];
        }
      }
      break;
    }
    case OpKind::kConcatRows: {
      const size_t ra = index;
      const size_t cols = g.cols();
      if (la::Matrix* t = GradTarget(p0)) {
        const double* src = g.data().data();
        double* dst = t->data().data();
        for (size_t i = 0; i < ra * cols; ++i) dst[i] += src[i];
      }
      if (la::Matrix* t = GradTarget(p1)) {
        const double* src = g.data().data() + ra * cols;
        double* dst = t->data().data();
        const size_t n = (g.rows() - ra) * cols;
        for (size_t i = 0; i < n; ++i) dst[i] += src[i];
      }
      break;
    }
    case OpKind::kRepeatRows: {
      if (p0->requires_grad) AccumulateBiasGrad(g, p0);
      break;
    }
    case OpKind::kTranspose: {
      if (la::Matrix* t = GradTarget(p0)) {
        for (size_t i = 0; i < g.rows(); ++i) {
          for (size_t j = 0; j < g.cols(); ++j) (*t)(j, i) += g(i, j);
        }
      }
      break;
    }
    case OpKind::kSliceCols: {
      const size_t c0 = index;
      if (la::Matrix* t = GradTarget(p0)) {
        const size_t w = g.cols();
        const size_t pcols = t->cols();
        for (size_t i = 0; i < g.rows(); ++i) {
          const double* grow = g.data().data() + i * w;
          double* trow = t->data().data() + i * pcols + c0;
          for (size_t j = 0; j < w; ++j) trow[j] += grow[j];
        }
      }
      break;
    }
    case OpKind::kSoftmaxRows: {
      if (la::Matrix* t = GradTarget(p0)) {
        for (size_t i = 0; i < value.rows(); ++i) {
          double dot = 0.0;
          for (size_t j = 0; j < value.cols(); ++j) {
            dot += g(i, j) * value(i, j);
          }
          for (size_t j = 0; j < value.cols(); ++j) {
            (*t)(i, j) += value(i, j) * (g(i, j) - dot);
          }
        }
      }
      break;
    }
    case OpKind::kSum: {
      if (la::Matrix* t = GradTarget(p0)) {
        const double gs = g(0, 0);
        double* pt = t->data().data();
        for (size_t i = 0; i < t->size(); ++i) pt[i] += gs;
      }
      break;
    }
    case OpKind::kLstmGates: {
      // value = [h | c]; parents [gates (N x 4H), c_prev (N x H)];
      // aux = the forward pass's activations [i | f | g | o | tanh c].
      const size_t h_dim = value.cols() / 2;
      la::Matrix* tg = GradTarget(p0);
      la::Matrix* tc = GradTarget(p1);
      if (tg == nullptr && tc == nullptr) break;
      for (size_t r = 0; r < value.rows(); ++r) {
        const double* grow = g.data().data() + r * 2 * h_dim;     // [Gh|Gc]
        const double* act = aux.data().data() + r * 5 * h_dim;
        const double* cprow = p1->value.data().data() + r * h_dim;
        double* tgrow =
            tg != nullptr ? tg->data().data() + r * 4 * h_dim : nullptr;
        double* tcrow =
            tc != nullptr ? tc->data().data() + r * h_dim : nullptr;
        for (size_t j = 0; j < h_dim; ++j) {
          const double iv = act[j];
          const double fv = act[h_dim + j];
          const double gv = act[2 * h_dim + j];
          const double ov = act[3 * h_dim + j];
          const double tanh_c = act[4 * h_dim + j];
          const double gh = grow[j];
          const double gc = grow[h_dim + j];
          const double dc = gc + gh * ov * (1.0 - tanh_c * tanh_c);
          if (tgrow != nullptr) {
            tgrow[j] += dc * gv * (iv * (1.0 - iv));
            tgrow[h_dim + j] += dc * cprow[j] * (fv * (1.0 - fv));
            tgrow[2 * h_dim + j] += dc * iv * (1.0 - gv * gv);
            tgrow[3 * h_dim + j] += gh * tanh_c * (ov * (1.0 - ov));
          }
          if (tcrow != nullptr) tcrow[j] += dc * fv;
        }
      }
      break;
    }
    case OpKind::kMaskCombine: {
      // value = m ⊙ obs + (1-m) ⊙ pred; parent: [pred]; aux = m.
      if (la::Matrix* t = GradTarget(p0)) {
        la::CwiseBinaryAccumulate(g, aux, t, [](double gi, double m) {
          return gi * (1.0 - m);
        });
      }
      break;
    }
    case OpKind::kMaskedMse: {
      // value = mean((mask ⊙ (a-b))^2); parents [a, b]; aux = mask;
      // scalar = 1/N. Accumulation order mirrors the unfused
      // Sub/Mul/Mean chain so results match it bit-for-bit.
      const double inv = scalar;
      const double gs = g(0, 0) * inv;
      la::Matrix* ta = GradTarget(p0);
      la::Matrix* tb = GradTarget(p1);
      if (ta == nullptr && tb == nullptr) break;
      const double* pa = p0->value.data().data();
      const double* pb = p1->value.data().data();
      const double* pm = aux.data().data();
      for (size_t i = 0; i < aux.size(); ++i) {
        const double d = (pa[i] - pb[i]) * pm[i];
        const double gd = gs * d;
        const double gm = (gd + gd) * pm[i];
        if (ta != nullptr) ta->data()[i] += gm;
        if (tb != nullptr) tb->data()[i] += gm * -1.0;
      }
      break;
    }
    case OpKind::kBceWithLogits: {
      if (la::Matrix* t = GradTarget(p0)) {
        const double gs = g(0, 0) / static_cast<double>(p0->value.size());
        const double* px = p0->value.data().data();
        const double* pt = aux.data().data();
        double* dst = t->data().data();
        for (size_t i = 0; i < p0->value.size(); ++i) {
          dst[i] += gs * (StableSigmoid(px[i]) - pt[i]);
        }
      }
      break;
    }
  }
}

}  // namespace internal

GradSink::GradSink(const std::vector<Tensor>& params) {
  nodes_.reserve(params.size());
  grads_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Node* n = params[i].node().get();
    RMI_CHECK(n->is_param());
    size_t& slot = n->param->sink_slot;
    RMI_CHECK(slot == SIZE_MAX || slot == i);
    slot = i;
    nodes_.push_back(n);
    grads_.emplace_back(n->value.rows(), n->value.cols());
  }
  slots_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) slots_[i].grad = &grads_[i];
}

ScopedGradSink::ScopedGradSink(GradSink* sink) : previous_(tls_grad_sink) {
  for (GradAccumulator& slot : sink->slots()) slot.written = false;
  tls_grad_sink = sink;
}

ScopedGradSink::~ScopedGradSink() { tls_grad_sink = previous_; }

ScopedTapeRun::~ScopedTapeRun() {
  Workspace::Get().Release();
  FreeStorage(&tls_rows);
  FreeStorage(&tls_pending);
  FreeStorage(&tls_x_rows);
  FreeStorage(&tls_g_rows);
  FreeStorage(&tls_order);
  FreeStorage(&tls_stack);
}

Tensor Tensor::Param(la::Matrix value) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->requires_grad = true;
  n->EnsureGrad();  // is_param() already: a plain allocation
  n->param = std::make_unique<internal::ParamState>();
  n->param->own_grad.grad = &n->grad;
  Tensor p(std::move(n));
  p.Repack();
  return p;
}

void Tensor::Repack() {
  Node& n = *node_;
  RMI_CHECK(n.is_param());  // an op node's aux belongs to the pool
  const size_t rows = n.value.rows(), cols = n.value.cols();
  n.aux.Reshape(cols, rows);
  const double* src = n.value.data().data();
  double* dst = n.aux.data().data();
  for (size_t j = 0; j < cols; ++j) {  // contiguous writes, row by row
    for (size_t i = 0; i < rows; ++i) dst[j * rows + i] = src[i * cols + j];
  }
  n.packed_current = true;
}

Tensor Tensor::Constant(const la::Matrix& value) {
  auto n = std::make_shared<Node>();
  n->value = Workspace::Get().Acquire(value.rows(), value.cols());
  std::copy(value.data().begin(), value.data().end(), n->value.data().begin());
  return Tensor(std::move(n));
}

void Tensor::ZeroGrad() {
  node_->EnsureGrad();
  la::Fill(&node_->grad, 0.0);
}

void Tensor::Backward() const {
  RMI_CHECK(node_ != nullptr);
  RMI_CHECK_EQ(node_->value.rows(), 1u);
  RMI_CHECK_EQ(node_->value.cols(), 1u);
  // Iterative post-order topological sort (graphs can be deep for long
  // sequences; avoid recursion). The scratch vectors and the visit counter
  // are thread-local, and leaves (shared parameters) are never stamped. No
  // run resets the counter: a live node may keep an old stamp.
  thread_local uint64_t mark_counter = 0;
  std::vector<Node*>& order = tls_order;
  std::vector<std::pair<Node*, size_t>>& stack = tls_stack;
  const uint64_t mark = ++mark_counter;
  order.clear();
  stack.clear();

  Node* root = node_.get();
  root->EnsureGrad();
  la::Fill(&root->grad, 1.0);
  if (root->num_parents > 0) {
    root->visit_mark = mark;
    stack.emplace_back(root, 0);
  }
  while (!stack.empty()) {
    auto& [n, idx] = stack.back();
    if (idx < n->num_parents) {
      Node* p = n->parents[idx].get();
      ++idx;
      if (p->requires_grad && p->num_parents > 0 && p->visit_mark != mark) {
        p->visit_mark = mark;
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  // Propagate in reverse topological order. Each node's grad buffer is
  // acquired (zeroed) on first accumulation by its consumers, which all
  // run before the node itself.
  for (auto it = order.rbegin(); it != order.rend(); ++it) (*it)->Backprop();
  // Then the deferred parameter rows, each parameter's in one pass; they
  // point into this graph's values and grads, which are still alive. A
  // sink slot the pass never reached reads as zero.
  for (GradAccumulator* acc : tls_pending) Flush(acc);
  tls_pending.clear();
  tls_rows.clear();
  if (tls_grad_sink != nullptr) {
    for (GradAccumulator& slot : tls_grad_sink->slots()) {
      if (!slot.written) {
        la::Fill(slot.grad, 0.0);
        slot.written = true;
      }
    }
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  RMI_CHECK(a.value().SameShape(b.value()));
  la::Matrix v = Workspace::Get().Acquire(a.rows(), a.cols());
  la::CwiseBinaryInto(a.value(), b.value(), &v,
                      [](double x, double y) { return x + y; });
  return Tensor(NewNode(OpKind::kAdd, std::move(v), a.node(), b.node()));
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  RMI_CHECK(a.value().SameShape(b.value()));
  la::Matrix v = Workspace::Get().Acquire(a.rows(), a.cols());
  la::CwiseBinaryInto(a.value(), b.value(), &v,
                      [](double x, double y) { return x - y; });
  return Tensor(NewNode(OpKind::kSub, std::move(v), a.node(), b.node()));
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  RMI_CHECK(a.value().SameShape(b.value()));
  la::Matrix v = Workspace::Get().Acquire(a.rows(), a.cols());
  la::CwiseBinaryInto(a.value(), b.value(), &v,
                      [](double x, double y) { return x * y; });
  return Tensor(NewNode(OpKind::kMul, std::move(v), a.node(), b.node()));
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  la::Matrix v = Workspace::Get().Acquire(a.rows(), b.cols());
  la::Gemm(1.0, a.value(), false, b.value(), false, 0.0, &v);
  return Tensor(NewNode(OpKind::kMatMul, std::move(v), a.node(), b.node()));
}

Tensor Scale(const Tensor& x, double s) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), x.cols());
  la::CwiseUnaryInto(x.value(), &v, [s](double xv) { return xv * s; });
  auto n = NewNode(OpKind::kScale, std::move(v), x.node());
  n->scalar = s;
  return Tensor(std::move(n));
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& bias) {
  RMI_CHECK_EQ(x.cols(), w.rows());
  RMI_CHECK_EQ(bias.rows(), 1u);
  RMI_CHECK_EQ(bias.cols(), w.cols());
  la::Matrix v = Workspace::Get().Acquire(x.rows(), w.cols());
  la::Gemm(1.0, x.value(), false, w.value(), false, 0.0, &v);
  la::AddRowBroadcastInPlace(&v, bias.value());
  return Tensor(NewNode(OpKind::kAffine, std::move(v), x.node(), w.node(),
                        bias.node()));
}

Tensor Sigmoid(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), x.cols());
  la::CwiseUnaryInto(x.value(), &v,
                     [](double xv) { return StableSigmoid(xv); });
  return Tensor(NewNode(OpKind::kSigmoid, std::move(v), x.node()));
}

Tensor Tanh(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), x.cols());
  la::CwiseUnaryInto(x.value(), &v, [](double xv) { return std::tanh(xv); });
  return Tensor(NewNode(OpKind::kTanh, std::move(v), x.node()));
}

Tensor Relu(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), x.cols());
  la::CwiseUnaryInto(x.value(), &v,
                     [](double xv) { return xv > 0 ? xv : 0.0; });
  return Tensor(NewNode(OpKind::kRelu, std::move(v), x.node()));
}

Tensor Exp(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), x.cols());
  la::CwiseUnaryInto(x.value(), &v, [](double xv) { return std::exp(xv); });
  return Tensor(NewNode(OpKind::kExp, std::move(v), x.node()));
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  RMI_CHECK_EQ(a.rows(), b.rows());
  la::Matrix v = Workspace::Get().Acquire(a.rows(), a.cols() + b.cols());
  la::ConcatColsInto(a.value(), b.value(), &v);
  auto n = NewNode(OpKind::kConcatCols, std::move(v), a.node(), b.node());
  n->index = a.cols();
  return Tensor(std::move(n));
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  RMI_CHECK_EQ(a.cols(), b.cols());
  la::Matrix v = Workspace::Get().Acquire(a.rows() + b.rows(), a.cols());
  std::copy(a.value().data().begin(), a.value().data().end(),
            v.data().begin());
  std::copy(b.value().data().begin(), b.value().data().end(),
            v.data().begin() + a.value().size());
  auto n = NewNode(OpKind::kConcatRows, std::move(v), a.node(), b.node());
  n->index = a.rows();
  return Tensor(std::move(n));
}

Tensor RepeatRows(const Tensor& x, size_t n_rows) {
  RMI_CHECK_EQ(x.rows(), 1u);
  const size_t cols = x.cols();
  la::Matrix v = Workspace::Get().Acquire(n_rows, cols);
  for (size_t i = 0; i < n_rows; ++i) {
    std::copy(x.value().data().begin(), x.value().data().end(),
              v.data().begin() + i * cols);
  }
  return Tensor(NewNode(OpKind::kRepeatRows, std::move(v), x.node()));
}

Tensor Transpose(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(x.cols(), x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) v(j, i) = x.value()(i, j);
  }
  return Tensor(NewNode(OpKind::kTranspose, std::move(v), x.node()));
}

Tensor SliceCols(const Tensor& x, size_t c0, size_t c1) {
  la::Matrix v = Workspace::Get().Acquire(x.rows(), c1 - c0);
  la::SliceColsInto(x.value(), c0, c1, &v);
  auto n = NewNode(OpKind::kSliceCols, std::move(v), x.node());
  n->index = c0;
  return Tensor(std::move(n));
}

Tensor SoftmaxRows(const Tensor& x) {
  la::Matrix y = Workspace::Get().Acquire(x.rows(), x.cols());
  std::copy(x.value().data().begin(), x.value().data().end(),
            y.data().begin());
  for (size_t i = 0; i < y.rows(); ++i) {
    double mx = -1e300;
    for (size_t j = 0; j < y.cols(); ++j) mx = std::max(mx, y(i, j));
    double sum = 0.0;
    for (size_t j = 0; j < y.cols(); ++j) {
      y(i, j) = std::exp(y(i, j) - mx);
      sum += y(i, j);
    }
    for (size_t j = 0; j < y.cols(); ++j) y(i, j) /= sum;
  }
  return Tensor(NewNode(OpKind::kSoftmaxRows, std::move(y), x.node()));
}

Tensor LstmGates(const Tensor& gates, const Tensor& c_prev) {
  RMI_CHECK_EQ(gates.cols() % 4, 0u);
  const size_t h_dim = gates.cols() / 4;
  RMI_CHECK_EQ(c_prev.cols(), h_dim);
  RMI_CHECK_EQ(c_prev.rows(), gates.rows());
  Workspace& ws = Workspace::Get();
  la::Matrix v = ws.Acquire(gates.rows(), 2 * h_dim);
  la::Matrix act = ws.Acquire(gates.rows(), 5 * h_dim);
  for (size_t r = 0; r < gates.rows(); ++r) {
    const double* gate = gates.value().data().data() + r * 4 * h_dim;
    const double* cprow = c_prev.value().data().data() + r * h_dim;
    double* vrow = v.data().data() + r * 2 * h_dim;
    double* arow = act.data().data() + r * 5 * h_dim;
    for (size_t j = 0; j < h_dim; ++j) {
      const double iv = StableSigmoid(gate[j]);
      const double fv = StableSigmoid(gate[h_dim + j]);
      const double gv = std::tanh(gate[2 * h_dim + j]);
      const double ov = StableSigmoid(gate[3 * h_dim + j]);
      const double c = fv * cprow[j] + iv * gv;
      const double tanh_c = std::tanh(c);
      vrow[h_dim + j] = c;
      vrow[j] = ov * tanh_c;
      arow[j] = iv;
      arow[h_dim + j] = fv;
      arow[2 * h_dim + j] = gv;
      arow[3 * h_dim + j] = ov;
      arow[4 * h_dim + j] = tanh_c;
    }
  }
  auto n =
      NewNode(OpKind::kLstmGates, std::move(v), gates.node(), c_prev.node());
  n->aux = std::move(act);
  return Tensor(std::move(n));
}

Tensor Sum(const Tensor& x) {
  la::Matrix v = Workspace::Get().Acquire(1, 1);
  v(0, 0) = x.value().Sum();
  return Tensor(NewNode(OpKind::kSum, std::move(v), x.node()));
}

Tensor Mean(const Tensor& x) {
  const double inv = 1.0 / static_cast<double>(x.value().size());
  return Scale(Sum(x), inv);
}

Tensor MaskCombine(const la::Matrix& m, const la::Matrix& obs,
                   const Tensor& pred) {
  RMI_CHECK(m.SameShape(obs));
  RMI_CHECK(m.SameShape(pred.value()));
  Workspace& ws = Workspace::Get();
  la::Matrix v = ws.Acquire(m.rows(), m.cols());
  la::MaskCombineInto(m, obs, pred.value(), &v);
  auto n = NewNode(OpKind::kMaskCombine, std::move(v), pred.node());
  n->aux = ws.Acquire(m.rows(), m.cols());
  std::copy(m.data().begin(), m.data().end(), n->aux.data().begin());
  return Tensor(std::move(n));
}

Tensor Mse(const Tensor& a, const Tensor& b) {
  Tensor d = Sub(a, b);
  return Mean(Mul(d, d));
}

Tensor MaskedMse(const Tensor& a, const Tensor& b, const la::Matrix& mask) {
  RMI_CHECK(a.value().SameShape(mask));
  RMI_CHECK(a.value().SameShape(b.value()));
  Workspace& ws = Workspace::Get();
  const double inv = 1.0 / static_cast<double>(mask.size());
  const double* pa = a.value().data().data();
  const double* pb = b.value().data().data();
  const double* pm = mask.data().data();
  double sum = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) {
    const double d = (pa[i] - pb[i]) * pm[i];
    sum += d * d;
  }
  la::Matrix v = ws.Acquire(1, 1);
  v(0, 0) = sum * inv;
  auto n = NewNode(OpKind::kMaskedMse, std::move(v), a.node(), b.node());
  n->scalar = inv;
  n->aux = ws.Acquire(mask.rows(), mask.cols());
  std::copy(mask.data().begin(), mask.data().end(), n->aux.data().begin());
  return Tensor(std::move(n));
}

Tensor BceWithLogits(const Tensor& logits, const la::Matrix& targets) {
  RMI_CHECK(logits.value().SameShape(targets));
  Workspace& ws = Workspace::Get();
  const la::Matrix& x = logits.value();
  double loss = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double v = x.data()[i];
    const double t = targets.data()[i];
    // log(1+exp(v)) - t*v, computed stably.
    loss += std::max(v, 0.0) - t * v + std::log1p(std::exp(-std::fabs(v)));
  }
  loss /= static_cast<double>(x.size());
  la::Matrix v = ws.Acquire(1, 1);
  v(0, 0) = loss;
  auto n = NewNode(OpKind::kBceWithLogits, std::move(v), logits.node());
  n->aux = ws.Acquire(targets.rows(), targets.cols());
  std::copy(targets.data().begin(), targets.data().end(),
            n->aux.data().begin());
  return Tensor(std::move(n));
}

}  // namespace rmi::ad
