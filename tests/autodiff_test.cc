#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tensor.h"
#include "la/gemm_repro.h"
#include "la/kernels.h"

namespace rmi::ad {
namespace {

/// Central-difference gradient check: perturbs every entry of `param` and
/// compares numeric gradients of `scalar_fn` with the analytic ones.
void CheckGradient(Tensor param,
                   const std::function<Tensor()>& scalar_fn,
                   double tol = 1e-6) {
  Tensor loss = scalar_fn();
  param.ZeroGrad();
  loss.Backward();
  const la::Matrix analytic = param.grad();

  const double eps = 1e-6;
  la::Matrix& w = param.mutable_value();
  for (size_t i = 0; i < w.size(); ++i) {
    const double orig = w.data()[i];
    w.data()[i] = orig + eps;
    const double up = scalar_fn().value()(0, 0);
    w.data()[i] = orig - eps;
    const double down = scalar_fn().value()(0, 0);
    w.data()[i] = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i;
  }
}

TEST(TensorTest, ConstantAndParamFlags) {
  Tensor c = Tensor::Constant(la::Matrix{{1, 2}});
  Tensor p = Tensor::Param(la::Matrix{{3, 4}});
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(p.requires_grad());
  Tensor sum = Add(c, p);
  EXPECT_TRUE(sum.requires_grad());
  Tensor cc = Add(c, c);
  EXPECT_FALSE(cc.requires_grad());
}

TEST(TensorTest, ForwardValues) {
  Tensor a = Tensor::Constant(la::Matrix{{1, 2}});
  Tensor b = Tensor::Constant(la::Matrix{{3, 4}});
  EXPECT_DOUBLE_EQ(Add(a, b).value()(0, 1), 6);
  EXPECT_DOUBLE_EQ(Sub(a, b).value()(0, 0), -2);
  EXPECT_DOUBLE_EQ(Mul(a, b).value()(0, 1), 8);
  EXPECT_DOUBLE_EQ(Scale(a, 3).value()(0, 0), 3);
  EXPECT_DOUBLE_EQ(Sum(a).value()(0, 0), 3);
  EXPECT_DOUBLE_EQ(Mean(b).value()(0, 0), 3.5);
}

TEST(TensorTest, SigmoidTanhReluExpValues) {
  Tensor x = Tensor::Constant(la::Matrix{{0.0, -1.0, 2.0}});
  EXPECT_DOUBLE_EQ(Sigmoid(x).value()(0, 0), 0.5);
  EXPECT_NEAR(Tanh(x).value()(0, 1), std::tanh(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(Relu(x).value()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(Relu(x).value()(0, 2), 2.0);
  EXPECT_NEAR(Exp(x).value()(0, 2), std::exp(2.0), 1e-12);
}

TEST(TensorTest, SoftmaxRowsSumsToOne) {
  Tensor x = Tensor::Constant(la::Matrix{{1, 2, 3}, {-5, 0, 5}});
  const la::Matrix y = SoftmaxRows(x).value();
  for (size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (size_t j = 0; j < 3; ++j) {
      s += y(i, j);
      EXPECT_GT(y(i, j), 0.0);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
  EXPECT_GT(y(0, 2), y(0, 0));
}

TEST(TensorTest, SoftmaxNumericallyStable) {
  Tensor x = Tensor::Constant(la::Matrix{{1000.0, 1000.0}});
  const la::Matrix y = SoftmaxRows(x).value();
  EXPECT_NEAR(y(0, 0), 0.5, 1e-12);
}

TEST(TensorTest, MatMulChainGradientFlow) {
  Rng rng(1);
  Tensor w = Tensor::Param(la::Matrix::Random(3, 2, rng));
  Tensor x = Tensor::Constant(la::Matrix::Random(1, 3, rng));
  Tensor loss = Sum(MatMul(x, w));
  loss.Backward();
  // d(sum(xW))/dW = x^T 1.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(w.grad()(i, j), x.value()(0, i), 1e-12);
    }
  }
}

TEST(TensorTest, GradientAccumulatesAcrossBackwards) {
  Tensor p = Tensor::Param(la::Matrix{{2.0}});
  Tensor l1 = Sum(Mul(p, p));
  l1.Backward();
  const double g1 = p.grad()(0, 0);
  Tensor l2 = Sum(Mul(p, p));
  l2.Backward();
  EXPECT_NEAR(p.grad()(0, 0), 2 * g1, 1e-12);
  p.ZeroGrad();
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 0.0);
}

// --- Parameterized gradient checks over ops. -----------------------------

struct OpCase {
  const char* name;
  std::function<Tensor(const Tensor&)> op;
};

class GradCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(GradCheckTest, UnaryOps) {
  static const std::vector<OpCase> kCases = {
      {"sigmoid", [](const Tensor& x) { return Mean(Sigmoid(x)); }},
      {"tanh", [](const Tensor& x) { return Mean(Tanh(x)); }},
      {"exp", [](const Tensor& x) { return Mean(Exp(x)); }},
      {"scale", [](const Tensor& x) { return Mean(Scale(x, -2.5)); }},
      {"sum", [](const Tensor& x) { return Sum(x); }},
      {"softmax",
       [](const Tensor& x) { return Mean(Mul(SoftmaxRows(x), SoftmaxRows(x))); }},
      {"slice", [](const Tensor& x) { return Mean(SliceCols(x, 1, 3)); }},
      {"mse_self",
       [](const Tensor& x) {
         return Mse(x, Tensor::Constant(la::Matrix(1, 4, 0.3)));
       }},
  };
  Rng rng(40 + GetParam());
  for (const OpCase& c : kCases) {
    Tensor x = Tensor::Param(la::Matrix::Random(1, 4, rng, -1.5, 1.5));
    CheckGradient(x, [&]() { return c.op(x); });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradCheckTest, ::testing::Range(0, 3));

TEST(GradCheckBinaryTest, AddSubMul) {
  Rng rng(7);
  Tensor a = Tensor::Param(la::Matrix::Random(2, 3, rng));
  Tensor b = Tensor::Param(la::Matrix::Random(2, 3, rng));
  CheckGradient(a, [&]() { return Mean(Mul(Add(a, b), Sub(a, b))); });
  CheckGradient(b, [&]() { return Mean(Mul(Add(a, b), Sub(a, b))); });
}

TEST(GradCheckBinaryTest, MatMulBothSides) {
  Rng rng(8);
  Tensor a = Tensor::Param(la::Matrix::Random(2, 3, rng));
  Tensor b = Tensor::Param(la::Matrix::Random(3, 4, rng));
  CheckGradient(a, [&]() { return Mean(MatMul(a, b)); });
  CheckGradient(b, [&]() { return Mean(Mul(MatMul(a, b), MatMul(a, b))); });
}

TEST(GradCheckBinaryTest, ConcatCols) {
  Rng rng(9);
  Tensor a = Tensor::Param(la::Matrix::Random(1, 2, rng));
  Tensor b = Tensor::Param(la::Matrix::Random(1, 3, rng));
  auto fn = [&]() {
    Tensor c = ConcatCols(a, b);
    return Mean(Mul(c, c));
  };
  CheckGradient(a, fn);
  CheckGradient(b, fn);
}

TEST(GradCheckBinaryTest, ReluAtNonKink) {
  Rng rng(12);
  // Keep values away from the kink for finite differencing.
  la::Matrix v = la::Matrix::Random(1, 4, rng);
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::fabs(v.data()[i]) < 0.1) v.data()[i] = 0.5;
  }
  Tensor x = Tensor::Param(v);
  CheckGradient(x, [&]() { return Mean(Relu(x)); });
}

TEST(GradCheckBinaryTest, MaskedMse) {
  Rng rng(13);
  Tensor a = Tensor::Param(la::Matrix::Random(1, 5, rng));
  Tensor b = Tensor::Param(la::Matrix::Random(1, 5, rng));
  la::Matrix mask{{1, 0, 1, 0, 1}};
  auto fn = [&]() { return MaskedMse(a, b, mask); };
  CheckGradient(a, fn);
  CheckGradient(b, fn);
  // Masked-out entries get zero gradient.
  Tensor loss = fn();
  a.ZeroGrad();
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.grad()(0, 3), 0.0);
}

TEST(GradCheckBinaryTest, LstmGates) {
  // The fused gate node's adjoint reads the activations its forward pass
  // stored; both inputs against central differences, with upstream weights
  // on [h | c] so both halves of the output gradient are non-trivial.
  Rng rng(14);
  Tensor gates = Tensor::Param(la::Matrix::Random(2, 12, rng, -2.0, 2.0));
  Tensor c_prev = Tensor::Param(la::Matrix::Random(2, 3, rng));
  const la::Matrix up = la::Matrix::Random(2, 6, rng);
  auto fn = [&]() {
    return Sum(Mul(LstmGates(gates, c_prev), Tensor::Constant(up)));
  };
  CheckGradient(gates, fn);
  CheckGradient(c_prev, fn);
}

TEST(PackedWeightTest, InputGradientIsBitIdenticalFreshOrStale) {
  // An Affine input gradient reads the weight's packed transpose while it
  // is current, and the row-major weight once mutable_value() has marked it
  // stale (until the next Repack). Either way it must be GemmReproNT's
  // result, bit for bit, on the weight's current value — a stale copy is
  // never read. x is 3 x 45, so the packed kernel runs a group of four
  // strips, one strip and a five-column tail.
  Rng rng(15);
  Tensor x = Tensor::Param(la::Matrix::Random(3, 45, rng));
  Tensor w = Tensor::Param(la::Matrix::Random(45, 19, rng));
  Tensor bias = Tensor::Param(la::Matrix::Random(1, 19, rng));
  const la::Matrix up = la::Matrix::Random(3, 19, rng);  // = dLoss/dy
  auto input_grad = [&]() {
    x.ZeroGrad();
    Sum(Mul(Affine(x, w, bias), Tensor::Constant(up))).Backward();
    return x.grad();
  };
  auto reference = [&]() {
    la::Matrix want(3, 45);
    la::internal::GemmReproNT(1.0, up.data().data(),
                              w.value().data().data(), want.data().data(), 3,
                              19, 45);
    return want;
  };
  auto expect_bits = [](const la::Matrix& got, const la::Matrix& want,
                        const char* what) {
    ASSERT_TRUE(got.SameShape(want));
    EXPECT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                             got.size() * sizeof(double)))
        << what;
  };

  expect_bits(input_grad(), reference(), "fresh copy");
  w.mutable_value()(7, 3) += 0.5;  // the copy is now stale
  expect_bits(input_grad(), reference(), "stale copy, new weight");
  w.Repack();
  expect_bits(input_grad(), reference(), "repacked");
  // Adam repacks after writing, so the next pass reads a fresh copy of the
  // updated weight.
  Adam adam({w}, 0.1);
  w.ZeroGrad();
  Sum(Mul(Affine(x, w, bias), Tensor::Constant(up))).Backward();
  adam.Step();
  expect_bits(input_grad(), reference(), "after an optimizer step");
}

/// True when a and b have the same shape and bits.
bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.SameShape(b) && std::memcmp(a.data().data(), b.data().data(),
                                       a.size() * sizeof(double)) == 0;
}

/// grad += x^T g as rank-1 GemmReproTN updates, one per row of x and g in
/// order: the weight-gradient terms a tape adds, in the tape's order.
void AddRankOneRows(const la::Matrix& x, const la::Matrix& g,
                    la::Matrix* grad) {
  for (size_t r = 0; r < x.rows(); ++r) {
    la::internal::GemmReproTN(1.0, x.data().data() + r * x.cols(),
                              g.data().data() + r * g.cols(),
                              grad->data().data(), x.cols(), 1, g.cols());
  }
}

TEST(DeferredWeightGradTest, MatchesRankOneUpdatesInTapeOrder) {
  // Weight and bias gradients are deferred to the end of Backward and
  // applied per parameter in one la::GemmTNRows pass. They must equal the
  // rank-1 updates applied in tape order, bit for bit. The graph reuses W
  // and b over a two-step recurrence and runs two 3-row Affines with weight
  // V and bias c; V also takes a direct elementwise term between them in
  // tape order, so its earlier rows must land before that term and its
  // later rows after it. Inputs hold exact zeros of both signs, so TN's
  // zero skip decides terms.
  Rng rng(16);
  la::Matrix u0 = la::Matrix::Random(1, 3, rng);
  u0(0, 1) = -0.0;
  la::Matrix q = la::Matrix::Random(3, 3, rng);
  q(1, 1) = 0.0;
  q(2, 0) = -0.0;
  const la::Matrix up = la::Matrix::Random(3, 3, rng);
  Tensor w = Tensor::Param(la::Matrix::Random(3, 3, rng));
  Tensor b = Tensor::Param(la::Matrix::Random(1, 3, rng));
  Tensor v = Tensor::Param(la::Matrix::Random(3, 3, rng));
  Tensor c = Tensor::Param(la::Matrix::Random(1, 3, rng));
  Tensor unused = Tensor::Param(la::Matrix::Random(2, 2, rng));
  const std::vector<Tensor> params = {w, b, v, c, unused};

  struct Pass {
    Tensor loss, a1, s1, a2, aq, d, e;
  };
  auto forward = [&]() {
    Pass p;
    p.a1 = Affine(Tensor::Constant(u0), w, b);
    p.s1 = Tanh(p.a1);
    p.a2 = Affine(p.s1, w, b);
    p.aq = Affine(Tensor::Constant(q), v, c);
    p.d = Mul(p.aq, v);
    p.e = Affine(p.d, v, c);
    p.loss = Sum(Mul(Add(p.e, RepeatRows(Tanh(p.a2), 3)),
                     Tensor::Constant(up)));
    return p;
  };
  // The grads the tape must produce onto `start` (one per parameter).
  // Backward reaches a2, a1, e, d and aq in that order.
  auto reference = [&](const Pass& p, std::vector<la::Matrix> start) {
    const la::Matrix one{{1.0}};
    AddRankOneRows(p.s1.value(), p.a2.grad(), &start[0]);
    AddRankOneRows(u0, p.a1.grad(), &start[0]);
    AddRankOneRows(one, p.a2.grad(), &start[1]);
    AddRankOneRows(one, p.a1.grad(), &start[1]);
    AddRankOneRows(p.d.value(), p.e.grad(), &start[2]);
    for (size_t i = 0; i < q.size(); ++i) {
      start[2].data()[i] += p.d.grad().data()[i] * p.aq.value().data()[i];
    }
    AddRankOneRows(q, p.aq.grad(), &start[2]);
    const la::Matrix ones(3, 1, 1.0);
    AddRankOneRows(ones, p.e.grad(), &start[3]);
    AddRankOneRows(ones, p.aq.grad(), &start[3]);
    return start;
  };

  // Without a sink: onto the parameters' own, non-zero grads.
  std::vector<la::Matrix> start;
  for (const Tensor& p : params) {
    p.node()->grad = la::Matrix::Random(p.rows(), p.cols(), rng);
    start.push_back(p.grad());
  }
  Pass p = forward();
  p.loss.Backward();
  const std::vector<la::Matrix> own = reference(p, start);
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(params[i].grad(), own[i])) << "own grad " << i;
  }

  // Under a sink: every shadow grad is written from 0.0, whatever it held
  // (the unreached parameter's reads as zero), and the parameters' own
  // grads are left alone.
  GradSink sink(params);
  for (la::Matrix& g : sink.grads()) la::Fill(&g, 1e300);
  {
    ScopedGradSink scoped(&sink);
    p = forward();
    p.loss.Backward();
  }
  std::vector<la::Matrix> zeros;
  for (const Tensor& param : params) {
    zeros.emplace_back(param.rows(), param.cols());
  }
  const std::vector<la::Matrix> slots = reference(p, zeros);
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(sink.grads()[i], slots[i])) << "sink slot " << i;
    EXPECT_TRUE(SameBits(params[i].grad(), own[i])) << "own grad " << i;
  }
}

TEST(GradCheckBinaryTest, BceWithLogits) {
  Rng rng(14);
  Tensor x = Tensor::Param(la::Matrix::Random(1, 4, rng, -2, 2));
  la::Matrix targets{{1, 0, 1, 0}};
  CheckGradient(x, [&]() { return BceWithLogits(x, targets); }, 1e-5);
}

TEST(BceTest, StableForExtremeLogits) {
  Tensor x = Tensor::Param(la::Matrix{{500.0, -500.0}});
  la::Matrix t{{1.0, 0.0}};
  Tensor loss = BceWithLogits(x, t);
  EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));
  EXPECT_NEAR(loss.value()(0, 0), 0.0, 1e-9);
  loss.Backward();
  EXPECT_TRUE(x.grad().AllFinite());
}

TEST(TensorTest, DiamondGraphAccumulates) {
  // y = x*x + x*x reuses x twice; gradient must be 4x.
  Tensor x = Tensor::Param(la::Matrix{{3.0}});
  Tensor sq = Mul(x, x);
  Tensor loss = Sum(Add(sq, sq));
  loss.Backward();
  EXPECT_NEAR(x.grad()(0, 0), 12.0, 1e-12);
}

TEST(AdamTest, MinimizesQuadratic) {
  Tensor x = Tensor::Param(la::Matrix{{5.0, -3.0}});
  Adam opt({x}, 0.1);
  for (int i = 0; i < 500; ++i) {
    Tensor target = Tensor::Constant(la::Matrix{{1.0, 2.0}});
    Tensor loss = Mse(x, target);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value()(0, 0), 1.0, 1e-2);
  EXPECT_NEAR(x.value()(0, 1), 2.0, 1e-2);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor x = Tensor::Param(la::Matrix{{3.0, 4.0}});
  Tensor loss = Scale(Sum(Mul(x, x)), 10.0);
  loss.Backward();
  ClipGradNorm({x}, 1.0);
  double norm = 0;
  for (size_t i = 0; i < 2; ++i) norm += x.grad()(0, i) * x.grad()(0, i);
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::Param(la::Matrix{{0.1}});
  Tensor loss = Sum(x);
  loss.Backward();
  ClipGradNorm({x}, 10.0);
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 1.0);
}

TEST(AdamTest, ZeroGradDropsAccumulation) {
  Tensor x = Tensor::Param(la::Matrix{{1.0}});
  Adam opt({x}, 0.1);
  Sum(x).Backward();
  opt.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 0.0);
}

}  // namespace
}  // namespace rmi::ad
