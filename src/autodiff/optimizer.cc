#include "autodiff/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "la/gemm_repro.h"

namespace rmi::ad {

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  for (const Tensor& p : params_) {
    RMI_CHECK(p.requires_grad());
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void Adam::Step() {
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    la::Matrix& w = p.mutable_value();
    RMI_CHECK(p.grad().SameShape(w) && m_[i].SameShape(w));
    la::AdamUpdate(p.grad().data().data(), m_[i].data().data(),
                   v_[i].data().data(), w.data().data(), w.size(), lr_, beta1_,
                   beta2_, bc1, bc2, eps_);
    p.Repack();
    p.ZeroGrad();
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void ClipGradNorm(const std::vector<Tensor>& params, double max_norm) {
  double total = 0.0;
  for (const Tensor& p : params) {
    const la::Matrix& g = p.grad();
    for (size_t j = 0; j < g.size(); ++j) total += g.data()[j] * g.data()[j];
  }
  total = std::sqrt(total);
  if (total <= max_norm || total == 0.0) return;
  const double scale = max_norm / total;
  for (const Tensor& p : params) {
    const_cast<la::Matrix&>(p.grad()) *= scale;
  }
}

}  // namespace rmi::ad
