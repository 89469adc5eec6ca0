// Adam and gradient clipping over autodiff parameters.
#ifndef RMI_AUTODIFF_OPTIMIZER_H_
#define RMI_AUTODIFF_OPTIMIZER_H_

#include <vector>

#include "autodiff/tensor.h"

namespace rmi::ad {

/// Adam (Kingma & Ba) — the paper trains all neural imputers with Adam at
/// learning rate 1e-3.
class Adam {
 public:
  explicit Adam(std::vector<Tensor> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  /// Zeroes gradients without updating (e.g., to drop a diverged batch).
  void ZeroGrad();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }
  const std::vector<Tensor>& params() const { return params_; }

 private:
  std::vector<Tensor> params_;
  std::vector<la::Matrix> m_;
  std::vector<la::Matrix> v_;
  double lr_, beta1_, beta2_, eps_;
  long step_ = 0;
};

/// Gradient clipping by global L2 norm (applied before Step when training
/// recurrent models).
void ClipGradNorm(const std::vector<Tensor>& params, double max_norm);

}  // namespace rmi::ad

#endif  // RMI_AUTODIFF_OPTIMIZER_H_
