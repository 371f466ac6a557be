#include "workload/job_spec.h"

#include <cmath>

#include "common/check.h"

namespace cosched {

void JobSpec::validate() const {
  COSCHED_CHECK(id.valid());
  COSCHED_CHECK(user.valid());
  COSCHED_CHECK(num_maps >= 1);
  COSCHED_CHECK(num_reduces >= 0);
  COSCHED_CHECK_MSG(std::isfinite(arrival.sec()),
                    "job " << id << ": arrival is not finite");
  COSCHED_CHECK(input_size > DataSize::zero());
  COSCHED_CHECK_MSG(std::isfinite(sir), "job " << id << ": sir is not finite");
  COSCHED_CHECK(sir >= 0.0);
  COSCHED_CHECK_MSG(map_durations.size() ==
                        static_cast<std::size_t>(num_maps),
                    "job " << id << ": map duration count mismatch");
  COSCHED_CHECK_MSG(reduce_durations.size() ==
                        static_cast<std::size_t>(num_reduces),
                    "job " << id << ": reduce duration count mismatch");
  for (const Duration& d : map_durations) COSCHED_CHECK(d > Duration::zero());
  for (const Duration& d : reduce_durations) {
    COSCHED_CHECK(d > Duration::zero());
  }
}

}  // namespace cosched
