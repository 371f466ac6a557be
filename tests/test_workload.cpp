// Unit tests for the workload generator and trace serialization.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "workload/generator.h"
#include "workload/job_spec.h"
#include "workload/trace_io.h"

namespace cosched {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig cfg;
  cfg.num_jobs = 200;
  cfg.num_users = 10;
  cfg.arrival_window = Duration::minutes(10);
  return cfg;
}

TEST(JobSpec, DerivedQuantities) {
  JobSpec j;
  j.id = JobId{1};
  j.user = UserId{0};
  j.num_maps = 4;
  j.num_reduces = 2;
  j.input_size = DataSize::gigabytes(4);
  j.sir = 0.5;
  j.map_durations.assign(4, Duration::seconds(10));
  j.reduce_durations.assign(2, Duration::seconds(20));
  EXPECT_NO_THROW(j.validate());
  EXPECT_NEAR(j.block_size().in_gigabytes(), 1.0, 1e-9);
  EXPECT_NEAR(j.shuffle_size().in_gigabytes(), 2.0, 1e-9);
  EXPECT_NEAR(j.map_output_size().in_gigabytes(), 0.5, 1e-9);
  EXPECT_TRUE(j.shuffle_heavy(DataSize::gigabytes(1.125)));
  EXPECT_FALSE(j.shuffle_heavy(DataSize::gigabytes(3)));
}

TEST(JobSpec, MapOnlyJobIsNeverShuffleHeavy) {
  JobSpec j;
  j.id = JobId{1};
  j.user = UserId{0};
  j.num_maps = 1;
  j.num_reduces = 0;
  j.input_size = DataSize::gigabytes(100);
  j.sir = 1.0;
  j.map_durations.assign(1, Duration::seconds(10));
  EXPECT_FALSE(j.shuffle_heavy(DataSize::gigabytes(1.125)));
}

TEST(JobSpec, ValidateCatchesMismatchedDurations) {
  JobSpec j;
  j.id = JobId{1};
  j.user = UserId{0};
  j.num_maps = 2;
  j.num_reduces = 0;
  j.input_size = DataSize::gigabytes(1);
  j.map_durations.assign(1, Duration::seconds(10));  // should be 2
  EXPECT_THROW(j.validate(), CheckFailure);
}

TEST(JobSpec, ValidateRejectsNonFiniteArrivalAndSir) {
  JobSpec j;
  j.id = JobId{1};
  j.user = UserId{0};
  j.num_maps = 1;
  j.num_reduces = 0;
  j.input_size = DataSize::gigabytes(1);
  j.map_durations.assign(1, Duration::seconds(10));
  j.validate();
  JobSpec bad_arrival = j;
  bad_arrival.arrival =
      SimTime::seconds(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(bad_arrival.validate(), CheckFailure);
  JobSpec bad_sir = j;
  bad_sir.sir = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad_sir.validate(), CheckFailure);
}

TEST(Generator, ProducesRequestedJobCountSortedByArrival) {
  Rng rng(1);
  const auto jobs = generate_workload(small_config(), rng);
  ASSERT_EQ(jobs.size(), 200u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].arrival.sec(), jobs[i].arrival.sec());
  }
  for (const auto& j : jobs) {
    EXPECT_NO_THROW(j.validate());
    EXPECT_LE(j.arrival.sec(), Duration::minutes(10).sec());
    EXPECT_LT(j.user.value(), 10);
  }
}

TEST(Generator, HeavyFractionRoughlyMatchesTarget) {
  WorkloadConfig cfg = small_config();
  cfg.num_jobs = 2000;
  cfg.shuffle_heavy_fraction = 0.2;
  Rng rng(7);
  const auto jobs = generate_workload(cfg, rng);
  const WorkloadStats stats = compute_stats(jobs, cfg.elephant_threshold);
  const double frac = static_cast<double>(stats.num_shuffle_heavy) /
                      static_cast<double>(stats.num_jobs);
  EXPECT_NEAR(frac, 0.2, 0.04);
}

TEST(Generator, HeavyJobsExceedThresholdLightJobsDoNot) {
  WorkloadConfig cfg = small_config();
  cfg.num_jobs = 500;
  Rng rng(3);
  const auto jobs = generate_workload(cfg, rng);
  for (const auto& j : jobs) {
    if (j.shuffle_heavy(cfg.elephant_threshold)) {
      EXPECT_GE(j.shuffle_size().in_bytes(),
                cfg.elephant_threshold.in_bytes());
    } else {
      EXPECT_TRUE(j.num_reduces == 0 ||
                  j.shuffle_size() < cfg.elephant_threshold);
    }
  }
}

TEST(Generator, MapCountTracksBlocks) {
  WorkloadConfig cfg = small_config();
  Rng rng(9);
  const auto jobs = generate_workload(cfg, rng);
  for (const auto& j : jobs) {
    const auto blocks =
        (j.input_size.in_bytes() + cfg.block_size.in_bytes() - 1) /
        cfg.block_size.in_bytes();
    EXPECT_EQ(j.num_maps, std::clamp<std::int64_t>(blocks, 1, cfg.max_maps));
  }
}

TEST(Generator, DeterministicGivenSeed) {
  Rng a(42), b(42);
  const auto ja = generate_workload(small_config(), a);
  const auto jb = generate_workload(small_config(), b);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].id, jb[i].id);
    EXPECT_EQ(ja[i].input_size, jb[i].input_size);
    EXPECT_DOUBLE_EQ(ja[i].sir, jb[i].sir);
    EXPECT_EQ(ja[i].num_maps, jb[i].num_maps);
  }
}

TEST(Generator, HonorsTaskCaps) {
  WorkloadConfig cfg = small_config();
  cfg.num_jobs = 1000;
  Rng rng(5);
  const auto jobs = generate_workload(cfg, rng);
  for (const auto& j : jobs) {
    EXPECT_LE(j.num_maps, cfg.max_maps);
    EXPECT_LE(j.num_reduces, cfg.max_reduces);
    for (const auto& d : j.map_durations) EXPECT_GE(d.sec(), 1.0);
  }
}

TEST(Generator, RejectsBadConfig) {
  WorkloadConfig cfg = small_config();
  cfg.shuffle_heavy_fraction = 1.5;
  Rng rng(1);
  EXPECT_THROW((void)generate_workload(cfg, rng), CheckFailure);
}

TEST(Stats, ComputeStatsAggregates) {
  WorkloadConfig cfg = small_config();
  Rng rng(11);
  const auto jobs = generate_workload(cfg, rng);
  const WorkloadStats s = compute_stats(jobs, cfg.elephant_threshold);
  EXPECT_EQ(s.num_jobs, 200);
  EXPECT_GT(s.total_map_tasks, 0);
  EXPECT_GT(s.total_input.in_bytes(), 0);
  EXPECT_LE(s.first_arrival.sec(), s.last_arrival.sec());
}

TEST(TraceIo, RoundTripsExactly) {
  WorkloadConfig cfg = small_config();
  cfg.num_jobs = 50;
  Rng rng(13);
  const auto jobs = generate_workload(cfg, rng);

  std::stringstream ss;
  write_trace(ss, jobs);
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_EQ(parsed[i].user, jobs[i].user);
    EXPECT_DOUBLE_EQ(parsed[i].arrival.sec(), jobs[i].arrival.sec());
    EXPECT_EQ(parsed[i].num_maps, jobs[i].num_maps);
    EXPECT_EQ(parsed[i].num_reduces, jobs[i].num_reduces);
    EXPECT_EQ(parsed[i].input_size, jobs[i].input_size);
    EXPECT_DOUBLE_EQ(parsed[i].sir, jobs[i].sir);
    ASSERT_EQ(parsed[i].map_durations.size(), jobs[i].map_durations.size());
    for (std::size_t t = 0; t < jobs[i].map_durations.size(); ++t) {
      EXPECT_DOUBLE_EQ(parsed[i].map_durations[t].sec(),
                       jobs[i].map_durations[t].sec());
    }
  }
}

TEST(TraceIo, MapOnlyJobRoundTrips) {
  JobSpec j;
  j.id = JobId{0};
  j.user = UserId{0};
  j.num_maps = 2;
  j.num_reduces = 0;
  j.input_size = DataSize::gigabytes(1);
  j.sir = 0.0;
  j.map_durations.assign(2, Duration::seconds(5));

  std::stringstream ss;
  write_trace(ss, {j});
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].num_reduces, 0);
  EXPECT_TRUE(parsed[0].reduce_durations.empty());
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream ss("not,a,trace\n");
  EXPECT_THROW((void)read_trace(ss), CheckFailure);
}

TEST(TraceIo, RejectsTruncatedLine) {
  std::stringstream ss;
  ss << "job_id,user_id,arrival_sec,num_maps,num_reduces,input_bytes,sir,"
        "map_durations_sec,reduce_durations_sec\n";
  ss << "0,0,1.0,2\n";
  EXPECT_THROW((void)read_trace(ss), CheckFailure);
}

/// A three-job trace whose third job (file line 4) is `bad`. Reading it
/// must fail with a CheckFailure naming line 4 and `field`.
void expect_line4_rejected(const std::string& bad, const std::string& field) {
  std::stringstream ss;
  ss << "job_id,user_id,arrival_sec,num_maps,num_reduces,input_bytes,sir,"
        "map_durations_sec,reduce_durations_sec\n";
  ss << "0,0,0,2,1,1000000000,1,5;5,7\n";
  ss << "1,1,10,1,0,1000000000,0,5,\n";
  ss << bad << "\n";
  try {
    (void)read_trace(ss);
    ADD_FAILURE() << "accepted: " << bad;
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(TraceIo, RejectsTrailingGarbageAndOutOfRangeCounts) {
  // "0xyz" used to parse as job 0, and 2^32 + 2 maps wrapped to 2 through
  // the int32 cast.
  expect_line4_rejected("0xyz,2,20,2,0,1000000000,0,5;5,", "job_id");
  expect_line4_rejected("2,2,20,4294967298,0,1000000000,0,5;5,", "num_maps");
  expect_line4_rejected("2,2,20,2,-2147483649,1000000000,0,5;5,",
                        "num_reduces");
  expect_line4_rejected("2,2,20,2,0,1e9,0,5;5,", "input_bytes");
  expect_line4_rejected("2,2,20,2,0,1000000000,0,5;5x,", "map_durations_sec");
}

TEST(TraceIo, RejectsNonFiniteNumbers) {
  // A nan arrival and an inf SIR used to replay, printing a negative total
  // shuffle size.
  expect_line4_rejected("2,2,nan,2,0,1000000000,0,5;5,", "arrival_sec");
  expect_line4_rejected("2,2,20,2,0,1000000000,inf,5;5,", "sir");
  expect_line4_rejected("2,2,1e999,2,0,1000000000,0,5;5,", "arrival_sec");
  expect_line4_rejected("2,2,20,2,0,1000000000,0,5;-inf,",
                        "map_durations_sec");
}

TEST(TraceIo, RejectsNonNumericFieldsWithTheLineNumber) {
  // "abc" used to escape as a bare std::invalid_argument ("stol").
  expect_line4_rejected("2,2,20,abc,0,1000000000,0,5;5,", "num_maps");
  expect_line4_rejected("2,abc,20,2,0,1000000000,0,5;5,", "user_id");
  expect_line4_rejected("2,2,20,2,0,1000000000, 1,5;5,", "sir");
  expect_line4_rejected("2,2,+20,2,0,1000000000,0,5;5,", "arrival_sec");
}

}  // namespace
}  // namespace cosched
