#include "imputers/imputer.h"

#include "common/check.h"
#include "common/missing.h"

namespace rmi::imputers {

size_t FillMnar(rmap::RadioMap* map, rmap::MaskMatrix* mask) {
  RMI_CHECK(map != nullptr);
  RMI_CHECK(mask != nullptr);
  RMI_CHECK_EQ(mask->rows(), map->size());
  RMI_CHECK_EQ(mask->cols(), map->num_aps());
  size_t filled = 0;
  for (size_t i = 0; i < map->size(); ++i) {
    rmap::Record& r = map->record(i);
    for (size_t j = 0; j < map->num_aps(); ++j) {
      if (mask->at(i, j) == rmap::MaskValue::kMnar) {
        RMI_CHECK(IsNull(r.rssi[j]));
        r.rssi[j] = kMnarFillDbm;
        mask->set(i, j, rmap::MaskValue::kObserved);
        ++filled;
      }
    }
  }
  return filled;
}

}  // namespace rmi::imputers
