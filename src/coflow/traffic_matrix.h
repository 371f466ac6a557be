// Sparse rack-to-rack traffic matrix C = (C_ij) describing one Coflow.
//
// Entries are keyed (source rack, destination rack) and held in a flat
// vector sorted by key, so iteration is source-major and deterministic.
// Builders that add in key order only append. Only cross-rack demand
// belongs in the matrix — intra-rack bytes never touch the OCS and are
// excluded by callers.
#pragma once

#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace cosched {

class TrafficMatrix {
 public:
  using Key = std::pair<RackId, RackId>;
  using Entry = std::pair<Key, DataSize>;

  /// One row (a source rack's output port) or column (a destination
  /// rack's input port): the bytes it carries and its non-zero entries.
  struct Line {
    bool is_row = true;
    RackId rack;
    DataSize sum;
    std::size_t degree = 0;

    friend bool operator==(const Line&, const Line&) = default;
  };

  /// Add demand from src to dst (accumulates into an existing entry).
  /// Appends in O(1) when (src, dst) sorts after every existing key.
  void add(RackId src, RackId dst, DataSize size);
  /// Drop every entry, keeping the storage for reuse.
  void clear() { entries_.clear(); }

  [[nodiscard]] DataSize at(RackId src, RackId dst) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t num_entries() const { return entries_.size(); }
  [[nodiscard]] DataSize total() const;

  /// Every row, then every column, each in ascending rack order, from one
  /// pass over the entries (the columns via one sort of their slots).
  [[nodiscard]] std::vector<Line> lines() const;

  /// Strictly increasing in key, every size non-zero.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace cosched
