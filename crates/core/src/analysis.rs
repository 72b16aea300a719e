//! Schedulability analysis for EDF and RM, with frequency scaling.
//!
//! Scaling the operating frequency by a factor `α ∈ (0, 1]` multiplies every
//! worst-case computation time by `1/α` while periods and deadlines are
//! unchanged (§2.3). Each test below therefore takes `α` and evaluates the
//! classical condition on the scaled WCETs:
//!
//! * **EDF** — the necessary and sufficient utilization bound
//!   `Σ C_i/(α·P_i) ≤ 1` (Liu & Layland).
//! * **RM, Liu–Layland** — the sufficient bound
//!   `Σ C_i/(α·P_i) ≤ n(2^{1/n} − 1)`.
//! * **RM, scheduling points** — the exact (necessary and sufficient for
//!   synchronous release) Lehoczky–Sha–Ding test: every task must have some
//!   scheduling point `t ≤ P_i` at which the level-i workload fits.
//! * **RM, response time** — the equivalent iterative response-time
//!   analysis, kept as an independent cross-check of the scheduling-point
//!   test.
//!
//! # The scheduling-point sweep
//!
//! [`rm_lowest_feasible`] decides every frequency of a machine in one pass
//! per RM level. Passing at `α` implies passing at any higher frequency, so
//! the set's lowest point is the highest of its levels' lowest points.
//! Levels go in RM order, carrying `c`, the highest point an earlier level
//! needs; a level is done as soon as it fits at `c`, and a level that fits
//! at no frequency makes the set infeasible.
//!
//! 1. A level first tries `t = P_i` with the term-by-term workload sum.
//!    Most levels fit at `c` there, for O(i) work.
//! 2. Otherwise it sweeps `S_i` in ascending order. A binary heap yields
//!    the multiples `k·P_j` exactly as the per-frequency test generates
//!    them (the same `⌊P_i/P_j + 10⁻⁹⌋` bound, the same `k as f64 * P_j`
//!    products), and a running sum keeps `W = Σ n_j·C_j`. `W(t)` is the sum
//!    before the tasks whose multiple is `t` move on. A task whose last
//!    passed multiple lies within `10⁻⁷·t` below `t` takes its count from
//!    `ceil_tolerant` instead, which is what float noise in colliding
//!    multiples needs. Each point costs O(log i) instead of O(i).
//! 3. Every frequency from `c` up is decided from the same `W`, comparing
//!    `W/α` with `t + EPS`. The running sum drifts from the term-by-term
//!    sum by far less than 10⁻⁹ relative, so inside a guard band
//!    `|W/α − (t + EPS)| ≤ 10⁻⁷·max(t, 1)` the term-by-term sum decides and
//!    outside it the two agree. Every verdict is the one a separate
//!    per-frequency test gives (`tests/rm_oracle.rs` checks this against a
//!    frozen copy of that test).
//!
//! Computing the critical scaling factor `α* = max_i min_{t ∈ S_i} W_i(t)/t`
//! once and comparing frequencies against it was rejected: `α*` needs the
//! minimum over every point of every level with no early exit, which costs
//! more than the per-frequency tests it would replace, while the sweep is
//! cheap enough to rerun at every admission without a cache.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::machine::{Machine, PointIdx};
use crate::task::{Task, TaskSet};
use crate::time::EPS;

/// Which RM schedulability test to use.
///
/// The paper's static-scaling algorithm (Fig. 1) uses a test from the
/// real-time literature whose cost it describes as roughly quadratic in the
/// number of tasks, which matches the scheduling-point test; the O(n)
/// Liu–Layland bound is provided for comparison and ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RmTest {
    /// Sufficient-only utilization bound `n(2^{1/n} − 1)`.
    LiuLayland,
    /// Exact scheduling-point (Lehoczky–Sha–Ding) test. The default.
    #[default]
    SchedulingPoints,
    /// Exact iterative response-time analysis.
    ResponseTime,
}

/// The Liu–Layland RM utilization bound `n(2^{1/n} − 1)` for `n` tasks.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "bound undefined for zero tasks");
    let n = n as f64;
    n * (2.0_f64.powf(1.0 / n) - 1.0)
}

/// EDF feasibility of `tasks` at frequency factor `alpha`:
/// `Σ C_i/P_i ≤ α`.
#[must_use]
pub fn edf_feasible_at(tasks: &TaskSet, alpha: f64) -> bool {
    tasks.total_utilization() <= alpha + EPS
}

/// RM feasibility of `tasks` at frequency factor `alpha` under the chosen
/// test.
#[must_use]
pub fn rm_feasible_at(tasks: &TaskSet, alpha: f64, test: RmTest) -> bool {
    match test {
        RmTest::LiuLayland => {
            tasks.total_utilization() <= alpha * liu_layland_bound(tasks.len()) + EPS
        }
        RmTest::SchedulingPoints => rm_lowest_feasible(tasks, &[alpha]).is_some(),
        RmTest::ResponseTime => rm_response_time_feasible(tasks, alpha),
    }
}

/// Ceiling of `t / p` that tolerates float round-off: values within a
/// relative hair of an integer are treated as that integer.
fn ceil_tolerant(t: f64, p: f64) -> f64 {
    let q = t / p;
    let r = q.round();
    if (q - r).abs() <= 1e-9 * r.max(1.0) {
        r
    } else {
        q.ceil()
    }
}

/// Index of the lowest frequency in `freqs` at which `tasks` passes the
/// exact scheduling-point RM test, or `None` if it passes at none.
///
/// `freqs` must be positive and ascending, as a machine's points are. The
/// answer is the one a separate test at every frequency would give: for each
/// task `i` in priority order, some scheduling point
/// `t ∈ S_i = { k·P_j : j ≤ i, k = 1..⌊P_i/P_j⌋ } ∪ {P_i}` must satisfy
/// `Σ_{j ≤ i} ⌈t/P_j⌉ · C_j/α ≤ t`. The module documentation describes the
/// one sweep per level that decides all of `freqs` at once.
#[must_use]
pub fn rm_lowest_feasible(tasks: &TaskSet, freqs: &[f64]) -> Option<usize> {
    debug_assert!(freqs.iter().all(|&f| f > 0.0));
    let rm: Vec<(f64, f64)> = tasks
        .rm_order()
        .iter()
        .map(|&id| {
            let task = tasks.task(id);
            (task.period().as_ms(), task.wcet().as_ms())
        })
        .collect();
    let mut need = 0;
    for i in 1..=rm.len() {
        need = level_lowest_feasible(rm.get(..i)?, freqs, need)?;
    }
    Some(need)
}

/// Whether the level whose tasks are `level` (`(P_j, C_j)` in RM order)
/// fits at scheduling point `t` at frequency factor `alpha`, summed term by
/// term exactly as the per-frequency test always has.
fn level_fits(level: &[(f64, f64)], t: f64, alpha: f64) -> bool {
    let workload: f64 = level
        .iter()
        .map(|&(p, c)| ceil_tolerant(t, p) * c / alpha)
        .sum();
    workload <= t + EPS
}

/// The first index in `from..upto` whose frequency `fits`, or `upto`.
fn first_fit(freqs: &[f64], from: usize, upto: usize, fits: impl Fn(f64) -> bool) -> usize {
    freqs
        .iter()
        .enumerate()
        .take(upto)
        .skip(from)
        .find(|&(_, &f)| fits(f))
        .map_or(upto, |(p, _)| p)
}

/// The next multiple `k·P_j` of one task's period in a level sweep; the
/// heap orders multiples by value, smallest first.
#[derive(Debug, Clone, Copy)]
struct Multiple {
    at: f64,
    k: u64,
    /// `⌊P_i/P_j⌋`: multiples up to this one are scheduling points.
    kmax: u64,
    period: f64,
    wcet: f64,
    task: usize,
}

impl Multiple {
    fn is_point(&self) -> bool {
        self.k <= self.kmax
    }
}

impl Ord for Multiple {
    /// Smallest value first; at equal values scheduling points come first,
    /// so a sweep never passes a point while moving a later multiple on.
    fn cmp(&self, other: &Multiple) -> Ordering {
        other
            .at
            .total_cmp(&self.at)
            .then(self.is_point().cmp(&other.is_point()))
            .then(other.task.cmp(&self.task))
    }
}

impl PartialOrd for Multiple {
    fn partial_cmp(&self, other: &Multiple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Multiple {
    fn eq(&self, other: &Multiple) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Multiple {}

/// Relative width of the window below a scheduling point in which a task's
/// last passed multiple may still count as that point's multiple (see
/// [`ceil_tolerant`]), and of the guard band around the fit threshold in
/// which the running workload sum defers to the term-by-term one.
const SWEEP_TOLERANCE: f64 = 1e-7;

/// The lowest index `p ≥ from` at which the last task of `level` fits at
/// some scheduling point at frequency `freqs[p]`, or `None`.
fn level_lowest_feasible(level: &[(f64, f64)], freqs: &[f64], from: usize) -> Option<usize> {
    let &(p_i, _) = level.last()?;
    let mut best = first_fit(freqs, from, freqs.len(), |f| level_fits(level, p_i, f));
    let mut heap: BinaryHeap<Multiple> = level
        .iter()
        .enumerate()
        .map(|(task, &(period, wcet))| Multiple {
            at: period,
            k: 1,
            kmax: (p_i / period + 1e-9).floor() as u64,
            period,
            wcet,
            task,
        })
        .collect();
    let mut points_left: u64 = heap.iter().map(|m| m.kmax).sum();
    // Σ n_j·C_j with n_j the index of task j's next multiple.
    let mut workload: f64 = level.iter().map(|&(_, c)| c).sum();
    // Tasks whose last passed multiple may lie within the tolerance window
    // below the current point, stored as that multiple and the count after
    // it.
    let mut recent: Vec<Multiple> = Vec::new();
    while best > from && points_left > 0 {
        let Some(&next) = heap.peek() else { break };
        let t = next.at;
        if next.is_point() {
            recent.retain(|r| r.at >= t - SWEEP_TOLERANCE * t);
            let w = recent.iter().fold(workload, |w, r| {
                w + (ceil_tolerant(t, r.period) - r.k as f64) * r.wcet
            });
            let limit = t + EPS;
            let band = SWEEP_TOLERANCE * t.max(1.0);
            best = first_fit(freqs, from, best, |f| {
                let demand = w / f;
                if (demand - limit).abs() <= band {
                    level_fits(level, t, f)
                } else {
                    demand <= limit
                }
            });
        }
        // Pass every multiple at `t`: a point's own multiples count at that
        // point and move on only after it.
        while let Some(mut m) = heap.peek_mut() {
            if m.at > t {
                break;
            }
            if m.is_point() {
                points_left -= 1;
            }
            m.k += 1;
            workload += m.wcet;
            let task = m.task;
            recent.retain(|r| r.task != task);
            recent.push(*m);
            m.at = m.k as f64 * m.period;
        }
    }
    (best < freqs.len()).then_some(best)
}

/// Exact response-time RM analysis at frequency factor `alpha`.
///
/// Iterates `R ← C_i/α + Σ_{j<i} ⌈R/P_j⌉ · C_j/α` to a fixed point for each
/// task; feasible if every fixed point is within the task's period.
fn rm_response_time_feasible(tasks: &TaskSet, alpha: f64) -> bool {
    debug_assert!(alpha > 0.0);
    let order = tasks.rm_order();
    for (i, &id_i) in order.iter().enumerate() {
        let c_i = tasks.task(id_i).wcet().as_ms() / alpha;
        let p_i = tasks.task(id_i).period().as_ms();
        let mut r = c_i;
        loop {
            let interference: f64 = order[..i]
                .iter()
                .map(|&id_j| {
                    let task = tasks.task(id_j);
                    ceil_tolerant(r, task.period().as_ms()) * task.wcet().as_ms() / alpha
                })
                .sum();
            let next = c_i + interference;
            if next > p_i + EPS {
                return false;
            }
            if (next - r).abs() <= EPS {
                break;
            }
            r = next;
        }
    }
    true
}

/// The statically-scaled EDF operating point (Fig. 1): the lowest point at
/// which the EDF test passes, or `None` if the set is infeasible even at
/// maximum frequency.
#[must_use]
pub fn static_edf_point(tasks: &TaskSet, machine: &Machine) -> Option<PointIdx> {
    machine.lowest_point_where(|p| edf_feasible_at(tasks, p.freq))
}

/// The statically-scaled RM operating point (Fig. 1): the lowest point at
/// which the chosen RM test passes, or `None` if none passes.
#[must_use]
pub fn static_rm_point(tasks: &TaskSet, machine: &Machine, test: RmTest) -> Option<PointIdx> {
    match test {
        RmTest::SchedulingPoints => {
            let freqs: Vec<f64> = machine.points().iter().map(|p| p.freq).collect();
            rm_lowest_feasible(tasks, &freqs)
        }
        RmTest::LiuLayland | RmTest::ResponseTime => {
            machine.lowest_point_where(|p| rm_feasible_at(tasks, p.freq, test))
        }
    }
}

/// The period-stretch ladder used by elastic overload degradation: each
/// factor multiplies a stretched task's nominal period, reducing its rate
/// (and utilization) while preserving its computing bound.
pub const STRETCH_LADDER: [f64; 3] = [1.25, 1.5, 2.0];

/// Searches for the smallest elastic period-stretch assignment that makes
/// `nominal` feasible, re-running the caller's schedulability test for every
/// candidate.
///
/// `nominal` are the tasks at their nominal periods (with whatever computing
/// bounds the caller wants validated — e.g. renegotiated to observed peaks).
/// `order` lists task indices from *least* to *most* critical; candidates
/// stretch a prefix of that order, so the least-critical tasks degrade
/// first. For each prefix length `k = 1..=n` (shortest first) and each
/// factor of [`STRETCH_LADDER`] (ascending), the candidate multiplies the
/// periods of `order[..k]` by the factor and asks `feasible` whether the
/// stretched set is schedulable. The first passing candidate wins, so the
/// result is deterministic and minimally disruptive: fewest tasks touched,
/// then smallest stretch — a more-critical task is never slowed while
/// deeper stretching of the less-critical ones would suffice.
///
/// Returns per-task factors aligned with `nominal` (`1.0` = untouched), or
/// `None` if even stretching every task by the ladder's maximum does not
/// help. Candidates containing an invalid task (a bound exceeding even the
/// stretched period) are skipped, not errors.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..nominal.len()`.
pub fn elastic_stretch_assignment<F>(
    nominal: &[Task],
    order: &[usize],
    feasible: F,
) -> Option<Vec<f64>>
where
    F: Fn(&TaskSet) -> bool,
{
    assert_eq!(order.len(), nominal.len(), "order must cover every task");
    {
        let mut seen = vec![false; nominal.len()];
        for &i in order {
            assert!(!seen[i], "order must be a permutation");
            seen[i] = true;
        }
    }
    for k in 1..=order.len() {
        for &factor in &STRETCH_LADDER {
            let mut factors = vec![1.0; nominal.len()];
            for &i in &order[..k] {
                factors[i] = factor;
            }
            let stretched: Option<Vec<Task>> = nominal
                .iter()
                .zip(&factors)
                .map(|(t, &f)| {
                    Task::new(crate::time::Time::from_ms(t.period().as_ms() * f), t.wcet()).ok()
                })
                .collect();
            let Some(tasks) = stretched else { continue };
            let Ok(candidate) = TaskSet::new(tasks) else {
                continue;
            };
            if feasible(&candidate) {
                return Some(factors);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427_124_746_19).abs() < 1e-9);
        assert!((liu_layland_bound(3) - 0.779_763_149_684_62).abs() < 1e-9);
        // Tends to ln 2 for large n.
        assert!((liu_layland_bound(10_000) - core::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn edf_test_on_paper_set() {
        let set = paper_set();
        // U = 0.746: feasible at 0.75 and 1.0, not at 0.5 (Fig. 2).
        assert!(edf_feasible_at(&set, 1.0));
        assert!(edf_feasible_at(&set, 0.75));
        assert!(!edf_feasible_at(&set, 0.5));
    }

    #[test]
    fn rm_tests_on_paper_set() {
        let set = paper_set();
        // Fig. 2: static RM must run at 1.0; 0.75 misses T3's deadline.
        for test in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            assert!(rm_feasible_at(&set, 1.0, test), "{test:?} at 1.0");
            assert!(!rm_feasible_at(&set, 0.75, test), "{test:?} at 0.75");
            assert!(!rm_feasible_at(&set, 0.5, test), "{test:?} at 0.5");
        }
    }

    #[test]
    fn exact_tests_admit_more_than_liu_layland() {
        // Harmonic periods: U = 1.0 is RM-schedulable exactly, but fails LL.
        let set = TaskSet::from_ms_pairs(&[(2.0, 1.0), (4.0, 2.0)]).expect("valid task set");
        assert!((set.total_utilization() - 1.0).abs() < 1e-12);
        assert!(!rm_feasible_at(&set, 1.0, RmTest::LiuLayland));
        assert!(rm_feasible_at(&set, 1.0, RmTest::SchedulingPoints));
        assert!(rm_feasible_at(&set, 1.0, RmTest::ResponseTime));
    }

    #[test]
    fn static_points_on_paper_set() {
        let set = paper_set();
        let m = Machine::machine0();
        // Fig. 2: static EDF uses 0.75, static RM uses 1.0.
        assert_eq!(static_edf_point(&set, &m), Some(1));
        assert_eq!(static_rm_point(&set, &m, RmTest::SchedulingPoints), Some(2));
        assert_eq!(static_rm_point(&set, &m, RmTest::LiuLayland), Some(2));
    }

    #[test]
    fn infeasible_set_has_no_static_point() {
        // U > 1: not schedulable at any frequency.
        let set = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        let m = Machine::machine0();
        assert_eq!(static_edf_point(&set, &m), None);
        assert_eq!(static_rm_point(&set, &m, RmTest::SchedulingPoints), None);
    }

    #[test]
    fn single_task_feasibility_threshold() {
        // One task with U = 0.6 needs α ≥ 0.6 under every test.
        let set = TaskSet::from_ms_pairs(&[(10.0, 6.0)]).expect("valid task set");
        for test in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            assert!(rm_feasible_at(&set, 0.6, test));
            assert!(!rm_feasible_at(&set, 0.59, test));
        }
        assert!(edf_feasible_at(&set, 0.6));
        assert!(!edf_feasible_at(&set, 0.59));
    }

    #[test]
    fn ceil_tolerant_handles_exact_multiples() {
        assert_eq!(ceil_tolerant(14.0, 7.0), 2.0);
        assert_eq!(ceil_tolerant(14.000001, 7.0), 3.0);
        assert_eq!(ceil_tolerant(13.9, 7.0), 2.0);
        // A value that is an exact multiple only up to float noise.
        let t = 0.3 * 3.0; // 0.8999999999999999
        assert_eq!(ceil_tolerant(t, 0.3), 3.0);
    }

    #[test]
    fn exact_tests_agree_on_random_like_sets() {
        // A few hand-picked sets where LL is inconclusive.
        let sets = [
            vec![(5.0, 2.0), (7.0, 2.0), (11.0, 1.5)],
            vec![(3.0, 1.0), (6.0, 2.0), (12.0, 4.0)],
            vec![(10.0, 4.0), (15.0, 4.0), (35.0, 3.5)],
        ];
        for pairs in sets {
            let set = TaskSet::from_ms_pairs(&pairs).expect("valid task set");
            for alpha in [0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0] {
                assert_eq!(
                    rm_feasible_at(&set, alpha, RmTest::SchedulingPoints),
                    rm_feasible_at(&set, alpha, RmTest::ResponseTime),
                    "disagreement on {pairs:?} at alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn scaling_monotonicity() {
        // If feasible at α, feasible at any α' ≥ α.
        let set = paper_set();
        let mut prev = false;
        for step in 0..=20 {
            let alpha = 0.05 * step as f64 + 0.0;
            if alpha <= 0.0 {
                continue;
            }
            let now = rm_feasible_at(&set, alpha, RmTest::SchedulingPoints);
            assert!(
                !prev || now,
                "feasibility lost when raising alpha to {alpha}"
            );
            prev = now;
        }
    }

    #[test]
    fn stretch_finds_the_minimal_prefix() {
        use crate::time::{Time, Work};
        // U = 0.5 + 0.6 = 1.1: infeasible under EDF. Stretching only the
        // least-critical task (index 1) by 1.25 gives 0.5 + 0.48 = 0.98.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(5.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(6.0)).expect("valid"),
        ];
        let factors =
            elastic_stretch_assignment(&nominal, &[1, 0], |set| edf_feasible_at(set, 1.0))
                .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 1.25]);
    }

    #[test]
    fn stretch_escalates_factor_before_criticality() {
        use crate::time::{Time, Work};
        // U = 0.5 + 0.9 = 1.4. Stretching task 1 alone: ×1.25 → 1.22,
        // ×1.5 → 1.1, ×2.0 → 0.95 — the ladder must reach 2.0 on the
        // least-critical task without ever touching task 0.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(5.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
        ];
        let factors =
            elastic_stretch_assignment(&nominal, &[1, 0], |set| edf_feasible_at(set, 1.0))
                .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 2.0]);
    }

    #[test]
    fn hopeless_overload_returns_none() {
        use crate::time::{Time, Work};
        // Even at ×2 on both tasks U = 2.4/2 + 1.8/2 > 1.
        let nominal = [
            Task::new(Time::from_ms(1.0), Work::from_ms(2.4)).ok(),
            Task::new(Time::from_ms(1.0), Work::from_ms(0.9)).ok(),
        ];
        // A bound larger than the period is unrepresentable as a Task, so
        // build the hopeless case from representable-but-overloaded tasks:
        // three of U = 0.9 each still sum to 1.35 at the ladder's maximum.
        assert!(nominal[0].is_none(), "2.4 > 1.0 must not be a valid task");
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
        ];
        assert_eq!(
            elastic_stretch_assignment(&nominal, &[2, 1, 0], |set| edf_feasible_at(set, 1.0)),
            None
        );
    }

    #[test]
    fn stretch_skips_candidates_with_invalid_tasks() {
        use crate::time::{Time, Work};
        // Task 1's bound (8) exceeds its nominal period (6): only stretched
        // candidates that make room for the bound are even representable.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(2.0)).expect("valid"),
            Task::new(Time::from_ms(12.0), Work::from_ms(8.0)).expect("valid"),
        ];
        // Pretend the caller renegotiated task 1's bound upward by building
        // the nominal row directly with the larger bound via a short period.
        let over = [
            nominal[0],
            Task::new(Time::from_ms(8.0), Work::from_ms(8.0)).expect("valid"),
        ];
        // At nominal, U = 0.2 + 1.0 = 1.2; ×1.25 on task 1 → 0.2 + 0.8 = 1.0.
        let factors = elastic_stretch_assignment(&over, &[1, 0], |set| edf_feasible_at(set, 1.0))
            .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 1.25]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn stretch_rejects_bad_order() {
        use crate::time::{Time, Work};
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(1.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(1.0)).expect("valid"),
        ];
        let _ = elastic_stretch_assignment(&nominal, &[0, 0], |_| true);
    }
}
