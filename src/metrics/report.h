// Reporting helpers on top of RunMetrics: percentile digests, per-user
// fairness, and a CSV timeline export for offline analysis/plotting.
#pragma once

#include <iosfwd>
#include <vector>

#include "metrics/metrics.h"

namespace cosched {

struct Observability;

struct PercentileDigest {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

/// Digest of JCTs (all jobs) in seconds.
[[nodiscard]] PercentileDigest jct_percentiles(const RunMetrics& run);
/// Digest of CCTs (jobs with shuffle) in seconds.
[[nodiscard]] PercentileDigest cct_percentiles(const RunMetrics& run);

/// Jain's fairness index over per-user mean JCT slowdown — 1.0 means every
/// user experienced the same average JCT; lower means skew.
[[nodiscard]] double jain_fairness_index(const RunMetrics& run);

/// CSV export: one line per job
/// (job_id,user,heavy,arrival,completion,jct,cct,shuffle_gb).
void write_job_timeline_csv(std::ostream& os, const RunMetrics& run);

/// Human-readable one-run summary.
void print_summary(std::ostream& os, const RunMetrics& run);

/// Trace-aware addendum: per-kind trace event counts, decision tallies,
/// last counter samples, and the per-phase wall-clock table when the run
/// was monitored.
void print_obs_summary(std::ostream& os, const Observability& obs);

}  // namespace cosched
