// Co-scheduler — the paper's contribution (Section IV).
//
// Four cooperating mechanisms:
//
//   MTS  (Section IV-C): at submission, a shuffle-heavy job gets a guideline
//        R_map = floor(sqrt(Input * SIR / T_e)) and its input blocks are
//        placed on `replication` disjoint sets of R_map racks, so that maps
//        can run data-locally on R_map racks and every map-rack's output can
//        cross the elephant threshold toward every reduce rack.
//
//   PSRT (Section IV-D): when the job's maps finish, enumerate every
//        feasible reduce-rack count R_red in [1, floor(SM_1/T_e)] and, for
//        each, the reduce-task distribution D that (a) pushes every flow
//        over T_e and (b) minimizes the CCT lower bound T(C) — start every
//        rack at the minimum aggregation count, then add remaining tasks to
//        the least-loaded rack.
//
//   SBS  (Section IV-E, Algorithm 1): ExploreSchedule greedily matches the
//        sorted (descending) D to the racks whose containers free earliest
//        (per the T_rem estimator), which is optimal for the given D; the
//        best schedule minimizes CCT + t_max.
//
//   OCAS (Section IV-F, Algorithm 2): at container-grant time, serve the
//        most under-served user and pick, in priority order: planned
//        shuffle-heavy reduce → guideline shuffle-heavy map → light reduce →
//        light map → any reduce → any map.
//
// Reduce semantics follow Section IV-A: reduces are placed only after all
// maps finish, and the shuffle coflow is released only after every reduce
// container is granted.
//
// The ablation modes of the paper's Figure 5 are flags: OCAS-only disables
// everything but the grant policy (degenerating to Fair-with-deferred-
// reduces), MTS+OCAS disables the reduce planning.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "coflow/cct_bound.h"
#include "sched/scheduler.h"

namespace cosched {

/// One PSRT candidate: run the job's reduces on `d.size()` racks, `d[i]`
/// tasks on the i-th, for a CCT lower bound of `cct`.
struct PossibleSchedule {
  std::vector<std::int32_t> d;
  Duration cct;
};

/// PSRT: all possible schedules for a map-output distribution `sm`
/// (per-rack output sizes, each >= elephant_threshold, any order); `bound`
/// is the active fabric's Fabric::placement_cost. For every feasible R_red
/// the distribution D starts every rack at the aggregation floor and feeds
/// the remaining tasks round-robin, and the candidate's T(C) is `bound`
/// over the m x R_red matrix c_ij = SM_i * d_j / R (m = map racks).
///
/// The matrix is never built: every entry is the exact integer
/// llround(SM_i * d_j / R), weakly monotone in both SM_i and d_j, and every
/// fabric bound is weakly monotone per row/column in (sum, degree), so the
/// binding row is always the largest map rack's and the binding column is
/// always one receiving d_max = d[0] tasks. A surrogate of exactly those
/// two lines (shared corner entry added once, O(m + R_red) entries) has
/// dominated extra degree-1 lines, so `bound` over it equals the bound over
/// the full matrix bit for bit (DESIGN.md §11; the full-matrix reference
/// lives with the tests, tests/oracles/).
[[nodiscard]] std::vector<PossibleSchedule>
possible_reduce_schedules_incremental(const std::vector<DataSize>& sm,
                                      std::int32_t num_reduces,
                                      DataSize elephant_threshold,
                                      const CctBoundFn& bound,
                                      std::int32_t max_racks);

/// MTS's map-rack guideline (Section IV-C), before clamping to the cluster:
/// R_map = floor(sqrt(Input * SIR / T_e)), at least 1. Monotone
/// non-decreasing in Input (and in SIR) — a property the test suite checks.
[[nodiscard]] std::int32_t mts_map_rack_guideline(DataSize input, double sir,
                                                  DataSize elephant_threshold);

/// One SBS exploration (Algorithm 1): a PSRT candidate's D greedily matched
/// to the racks whose containers free earliest.
struct ExploredSchedule {
  /// Chosen reduce racks with their task counts (sums to the job's reduces).
  std::map<RackId, std::int32_t> plan;
  /// The candidate's distribution, sorted descending (assignment order).
  std::vector<std::int32_t> d;
  /// The candidate's CCT lower bound T(C).
  Duration cct;
  /// Worst container wait over the chosen racks.
  Duration t_max;
  /// SBS's objective: CCT + t_max (Section IV-E).
  [[nodiscard]] double score_sec() const { return (cct + t_max).sec(); }
};

/// SBS's ExploreSchedule (Algorithm 1) over every PSRT candidate: assign
/// the descending D to the earliest-available unselected racks; candidates
/// with no feasible assignment are dropped. Every distinct (rack, count)
/// pair is estimated at most once per pass and the answers are memoized;
/// the clean path (availability_noisy == false) additionally replaces the
/// per-candidate O(racks) min-scans with BestRackHeap rank orders built
/// once per distinct count. When `availability_noisy` is set the memoized
/// pass keeps the plain per-candidate scan's exact query order (same loop,
/// memo lookups), because noisy T_rem estimates draw lazily from one RNG
/// stream and reordering first touches would change the drawn values (see
/// SchedContext::availability_noisy).
[[nodiscard]] std::vector<ExploredSchedule> explore_schedules_incremental(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability, bool availability_noisy);

/// Index of the minimum-score exploration; nullopt when `explored` is
/// empty. Ties break toward the earliest candidate (enumeration order).
[[nodiscard]] std::optional<std::size_t> best_schedule_index(
    const std::vector<ExploredSchedule>& explored);

class CoScheduler : public JobScheduler {
 public:
  struct Options {
    /// MTS: guideline input placement + map-rack cap.
    bool enable_mts = true;
    /// PSRT + SBS: reduce planning (requires MTS to be meaningful, as the
    /// paper notes, but the flag is independent for the ablation study).
    bool enable_reduce_planning = true;
    std::int32_t replication = 3;
    /// Multiplicative noise applied to the predicted SIR at submission
    /// (0 = the paper's recurring-job assumption of accurate prediction).
    double sir_prediction_error = 0.0;
  };

  CoScheduler() : CoScheduler(Options{}) {}
  explicit CoScheduler(Options opts) : opts_(opts) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool defers_reduces() const override { return true; }

  void on_job_submitted(Job& job, SchedContext& ctx) override;
  void on_maps_completed(Job& job, SchedContext& ctx) override;
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  /// pick_task declines are outcome-pure: the decline-time mutations
  /// (candidate pruning, the no-grant memo) never change a future pick
  /// result.
  [[nodiscard]] bool declines_are_stable() const override { return true; }
  /// True only when the last decline fell out of an empty candidate index:
  /// no user had a single map or reduce candidate, a condition that
  /// mentions no rack, so every rack's pick at this state is the same pure
  /// nullopt.
  [[nodiscard]] bool last_decline_was_global() const override {
    return last_decline_global_;
  }

  void on_task_placed(Job& job, Task& task, RackId rack) override;
  void on_task_completed(Job& job, Task& task, RackId rack) override;
  void on_task_requeued(Job& job, Task& task, RackId rack) override;
  void on_job_completed(Job& job) override;
  void on_reduce_plan_cleared(Job& job) override;

  [[nodiscard]] std::string audit_invariants(
      const std::vector<Job*>& active_jobs) const override;

 protected:
  // Building blocks shared with the reference engine the tests check this
  // one against (tests/oracles/reference_coscheduler.h).

  /// MTS input placement (and the R_map guideline) for a submitted job.
  void place_input(Job& job, SchedContext& ctx);
  /// PSRT's input: the job's per-rack map output at or above T_e, or empty
  /// when the job gets no reduce plan (planning off, not shuffle-heavy, no
  /// reduces, or no map rack reaching T_e).
  [[nodiscard]] std::vector<DataSize> planning_input(
      const Job& job, const SchedContext& ctx) const;
  /// The T(C) PSRT charges: the fabric's placement_cost, or the legacy
  /// ocs:1 bound when the context has no fabric.
  [[nodiscard]] static CctBoundFn planner_bound(const SchedContext& ctx);
  /// SBS's choice: install the best of `explored` (out of `candidates`
  /// PSRT schedules) as the job's reduce plan and log the decision.
  void install_best_plan(Job& job, std::size_t candidates,
                         const std::vector<ExploredSchedule>& explored,
                         SchedContext& ctx);
  /// Class-6 gate: a guided shuffle-heavy job may run maps off-guideline
  /// only when no guideline rack has both a free container and a pending
  /// local map.
  [[nodiscard]] static bool map_overflow_allowed(Job& job,
                                                 const SchedContext& ctx);

 private:
  // ----- incremental OCAS state ---------------------------------------------
  //
  // A plain OCAS pick scans every active job per container offer —
  // O(active_jobs) even when almost all of them are network-bound with
  // nothing pending. This engine keeps, per user, the jobs that can still
  // receive a container:
  //
  //   * map_candidates: jobs with (possibly) pending maps. Keyed by an
  //     arrival sequence number so iteration reproduces the plain
  //     arrival-order scan even after a killed attempt re-inserts a job.
  //     Lazily pruned: a job whose next_pending_map_any() is null is
  //     dropped mid-scan and re-inserted by on_task_requeued if a kill
  //     makes a map pending again.
  //   * reduce_candidates: jobs past all_maps_done with reduces still to
  //     place (membership only begins at on_maps_completed, because
  //     CoScheduler defers reduces). Same keying and pruning.
  //
  // Candidate membership is a strict superset of every OCAS class's match
  // condition, so the filtered scans return exactly the plain scan's first
  // match. The per-user running-task counters reproduce fair_user_order
  // without touching the active-job list.
  struct UserState {
    /// Running (placed, not completed) tasks over the user's active jobs —
    /// the fair-share key, maintained by the placement/completion hooks.
    std::int64_t running = 0;
    /// Active (arrived, not completed) jobs; the UserState is erased when
    /// this drops to zero, matching fair_user_order's user set.
    std::int64_t active = 0;
    std::map<std::int64_t, Job*> map_candidates;
    std::map<std::int64_t, Job*> reduce_candidates;
  };

  /// SBS over the possible schedules; installs the best plan on the job.
  void select_best_schedule(Job& job,
                            const std::vector<PossibleSchedule>& schedules,
                            SchedContext& ctx);

  /// One user's six OCAS class scans over their candidate lists, pruning
  /// exhausted candidates along the way.
  std::optional<TaskChoice> scan_user(UserState& u, RackId rack,
                                      SchedContext& ctx);

  /// Erase one candidate-list entry, keeping candidates_ in step.
  std::map<std::int64_t, Job*>::iterator erase_candidate(
      std::map<std::int64_t, Job*>& list,
      std::map<std::int64_t, Job*>::iterator it) {
    --candidates_;
    return list.erase(it);
  }
  /// Drop every candidate with nothing left to place, exactly as a full
  /// declining scan does.
  void prune_exhausted_candidates();
  /// Whether some map candidate with a pending map has an open class-6
  /// gate: the one way a grant can turn a decline into a grant.
  [[nodiscard]] bool map_overflow_open(const SchedContext& ctx) const;

  /// A state change that could turn a cached "no grant on this rack"
  /// answer into a grant invalidates every cached answer. Bumped on every
  /// notification hook except on_task_placed, which defers to the class-6
  /// check in pick_task: over-bumping costs one extra scan per rack,
  /// staleness would silently change a grant.
  void invalidate_no_grant_cache() { ++epoch_; }

  Options opts_;

  // uid-ascending so iterating + stable-sorting by (running, uid)
  // reproduces fair_user_order exactly.
  std::map<UserId, UserState> users_;
  /// Arrival sequence per live tracked job (candidate-map key).
  std::unordered_map<JobId, std::int64_t> seq_;
  std::int64_t next_seq_ = 0;
  /// Per-rack memo of "pick_task returned nullopt at epoch E": a dispatch
  /// wave re-offers idle racks many times; once nothing is grantable on a
  /// rack, it stays ungrantable until some hook bumps epoch_. `placements`
  /// counts the grants the decline has survived, so a memo hit can tell
  /// whether a memo that forgot at every grant would have rescanned.
  struct NoGrantMemo {
    std::uint64_t epoch = 0;
    std::uint64_t placements = 0;
  };
  std::vector<NoGrantMemo> no_grant_;
  std::uint64_t epoch_ = 1;
  /// Grants so far (on_task_placed calls).
  std::uint64_t placements_ = 0;
  /// Entries over every user's two candidate lists.
  std::size_t candidates_ = 0;
  /// A grant happened since the last class-6 gate check.
  bool overflow_check_due_ = false;
  /// A grant happened since every exhausted candidate was last pruned.
  bool prune_due_ = false;
  /// pick_task's fair user order, reused across calls.
  std::vector<std::pair<std::int64_t, UserState*>> user_order_;
  /// Whether the most recent pick_task nullopt was rack-independent (the
  /// candidate index was empty). Cleared on every grant and on memo hits
  /// with no grant since the decline, which prove nothing about other
  /// racks.
  bool last_decline_global_ = false;
};

}  // namespace cosched
