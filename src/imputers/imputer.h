// Common interface of all data imputers (module B of the framework).
//
// Contract: Impute() receives the sparse radio map together with the
// *amended* mask M' (paper Section IV): MNAR cells have already been filled
// with -100 dBm and flipped to "observed" in the mask, so the only 0-cells
// left are MARs. The returned radio map must be complete — no null RSSIs
// and no null RPs (CaseDeletion instead drops the null-RP records).
#ifndef RMI_IMPUTERS_IMPUTER_H_
#define RMI_IMPUTERS_IMPUTER_H_

#include <string>

#include "common/rng.h"
#include "radiomap/radio_map.h"

namespace rmi::imputers {

/// Common interface of all data imputers.
///
/// Thread-safety: implementations are stateless after construction —
/// Impute() is const and safe to call concurrently from multiple threads
/// (all mutable state lives in locals and the caller-provided Rng; callers
/// must not share one Rng across threads). serving::MapUpdater relies on
/// this: every rebuild calls Impute on the whole merged map, and shards
/// rebuild concurrently against one shared imputer.
/// Ownership: imputers never retain references to the input map or mask.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Produces a fully imputed radio map: no null RSSIs, no null RPs
  /// (CaseDeletion instead drops the null-RP records).
  virtual rmap::RadioMap Impute(const rmap::RadioMap& map,
                                const rmap::MaskMatrix& amended_mask,
                                Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

/// First step of the Data Imputer module: fills every MNAR cell with
/// -100 dBm in `map` and amends `mask` (MNAR -> observed), leaving 0s only
/// for MARs. Returns the number of cells filled.
size_t FillMnar(rmap::RadioMap* map, rmap::MaskMatrix* mask);

}  // namespace rmi::imputers

#endif  // RMI_IMPUTERS_IMPUTER_H_
