#include "coflow/traffic_matrix.h"

#include <algorithm>

#include "common/check.h"

namespace cosched {

void TrafficMatrix::add(RackId src, RackId dst, DataSize size) {
  COSCHED_CHECK(src.valid() && dst.valid());
  COSCHED_CHECK(size >= DataSize::zero());
  if (size.is_zero()) return;
  const Key key{src, dst};
  if (entries_.empty() || entries_.back().first < key) {
    entries_.emplace_back(key, size);
    return;
  }
  // Stored sizes are positive, so {key, 0} sorts just before key's entry.
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             Entry{key, DataSize::zero()});
  if (it->first != key) it = entries_.insert(it, {key, DataSize::zero()});
  it->second += size;
}

DataSize TrafficMatrix::at(RackId src, RackId dst) const {
  const Key key{src, dst};
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             Entry{key, DataSize::zero()});
  return it != entries_.end() && it->first == key ? it->second
                                                  : DataSize::zero();
}

DataSize TrafficMatrix::total() const {
  DataSize t = DataSize::zero();
  for (const auto& [key, size] : entries_) t += size;
  return t;
}

std::vector<TrafficMatrix::Line> TrafficMatrix::lines() const {
  std::vector<Line> out;
  out.reserve(2 * entries_.size());
  // Rows: entries are source-major, so each row is one contiguous run.
  for (const auto& [key, size] : entries_) {
    if (out.empty() || out.back().rack != key.first) {
      out.push_back({true, key.first, DataSize::zero(), 0});
    }
    out.back().sum += size;
    ++out.back().degree;
  }
  if (out.empty()) return out;
  // Columns: one slot per entry, sorted by destination and merged in place.
  // Byte sums are exact integers, so the merge order cannot change them.
  const auto cols = static_cast<std::ptrdiff_t>(out.size());
  for (const auto& [key, size] : entries_) {
    out.push_back({false, key.second, size, 1});
  }
  std::sort(out.begin() + cols, out.end(),
            [](const Line& a, const Line& b) { return a.rack < b.rack; });
  auto last = out.begin() + cols;
  for (auto it = last + 1; it != out.end(); ++it) {
    if (it->rack == last->rack) {
      last->sum += it->sum;
      ++last->degree;
    } else {
      *++last = *it;
    }
  }
  out.erase(last + 1, out.end());
  return out;
}

}  // namespace cosched
