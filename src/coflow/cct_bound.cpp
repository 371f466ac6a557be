#include "coflow/cct_bound.h"

#include <algorithm>

namespace cosched {

Duration ocs_flow_time(DataSize size, Bandwidth bw, Duration delta) {
  if (size.is_zero()) return Duration::zero();
  return transfer_time(size, bw) + delta;
}

Duration cct_lower_bound(const TrafficMatrix& matrix, Bandwidth bw,
                         Duration delta) {
  Duration bound = Duration::zero();
  for (const TrafficMatrix::Line& line : matrix.lines()) {
    bound = std::max(bound, transfer_time(line.sum, bw) +
                                delta * static_cast<double>(line.degree));
  }
  return bound;
}

}  // namespace cosched
