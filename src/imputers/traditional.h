// Traditional radio-map imputers used in fingerprinting systems
// (paper Section V-C baselines 3-5):
//  * CD — Case Deletion [32]: drop null-RP records, -100 dBm for nulls;
//  * LI — Linear Interpolation [37]: interpolate RPs along the path;
//  * SL — Semi-supervised Learning [49]: iterative label propagation of
//         RPs over a fingerprint k-NN graph.
// All three fill every remaining missing RSSI with -100 dBm (they predate
// MAR/MNAR differentiation).
#ifndef RMI_IMPUTERS_TRADITIONAL_H_
#define RMI_IMPUTERS_TRADITIONAL_H_

#include "imputers/imputer.h"

namespace rmi::imputers {

/// CD: removes records with null RPs; fills missing RSSIs with -100 dBm.
class CaseDeletionImputer : public Imputer {
 public:
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override;
  std::string name() const override { return "CD"; }
};

/// LI: linear interpolation of null RPs along each survey path; -100 dBm
/// for missing RSSIs.
class LinearInterpolationImputer : public Imputer {
 public:
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override;
  std::string name() const override { return "LI"; }
};

/// SL: semi-supervised RP inference — records with observed RPs seed an
/// iterative weighted k-NN regression in fingerprint space; inferred RPs
/// join the labeled pool in later rounds. -100 dBm for missing RSSIs.
class SemiSupervisedImputer : public Imputer {
 public:
  SemiSupervisedImputer(size_t k = 5, size_t rounds = 3)
      : k_(k), rounds_(rounds) {}

  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override;
  std::string name() const override { return "SL"; }

 private:
  size_t k_;
  size_t rounds_;
};

/// Shared helper: fills every remaining null RSSI with -100 dBm.
void FillMissingRssiWithFloor(rmap::RadioMap* map);

}  // namespace rmi::imputers

#endif  // RMI_IMPUTERS_TRADITIONAL_H_
