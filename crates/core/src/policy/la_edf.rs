//! Look-ahead EDF (§2.5, Figs. 7 and 8) — the paper's most aggressive
//! RT-DVS algorithm.
//!
//! At every scheduling point the deferral step plans the interval up to the
//! earliest deadline in the system, `D₁`. Walking the tasks in *reverse*
//! EDF order (latest deadline first) it pushes as much of each task's
//! worst-case remaining work `c_left_i` as possible beyond `D₁` — into
//! `[D₁, D_i]` — while reserving worst-case utilization for every
//! earlier-deadline task's future invocations. Whatever cannot be deferred,
//! `x_i`, must execute before `D₁`; the operating point is the lowest one
//! that retires `s = Σ x_i` within `D₁ − now`.
//!
//! If tasks keep finishing early the deferred peak never materializes and
//! the system stays at low frequency; if they do use their worst case, the
//! reserved capacity forces a (guaranteed sufficient) high frequency later.

use core::cmp::Ordering;

use crate::analysis::RmTest;
use crate::machine::{Machine, PointIdx};
use crate::policy::{point_for_demand, scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::time::{Time, Work, EPS};
use crate::view::{InvState, SystemView};

/// Look-ahead EDF.
///
/// The plan itself is recomputed from the engine's [`SystemView`] at every
/// scheduling point. Between points the struct keeps the current operating
/// point, the planning boundary it promised to revisit, and the
/// reverse-EDF task order of the last plan, which the next plan re-sorts
/// incrementally instead of from scratch.
#[derive(Debug, Clone, Default)]
pub struct LaEdf {
    point: PointIdx,
    /// The planning boundary `D1` of the last deferral: work was deferred
    /// past this instant on the promise of re-planning there, so the
    /// engine must grant a review at `D1` if no scheduling point happens
    /// first (only relevant under sporadic arrivals; in the periodic model
    /// a release always lands on `D1`).
    planned_d1: Option<Time>,
    /// Task ids in reverse EDF order as of the last plan. Only a hint for
    /// speed: every plan re-sorts it fully against the current deadlines.
    order: Vec<TaskId>,
}

/// The reverse-EDF order: latest deadline first, ties in reverse id order,
/// so the deferral loop visits tasks in exact reverse EDF order. Total, so
/// the sorted order is unique.
fn reverse_edf(sys: &SystemView<'_>, a: TaskId, b: TaskId) -> Ordering {
    sys.view(b)
        .deadline
        .total_cmp(&sys.view(a).deadline)
        .then(b.0.cmp(&a.0))
}

impl LaEdf {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> LaEdf {
        LaEdf::default()
    }

    /// Fig. 8 `defer()`: the minimum work that must execute before the
    /// earliest deadline `D₁` for all future deadlines to remain feasible.
    ///
    /// Exposed for tests and instrumentation; engines only need the trait
    /// callbacks.
    #[must_use]
    pub fn work_due_before_next_deadline(&mut self, sys: &SystemView<'_>) -> Work {
        self.defer(sys, sys.earliest_deadline())
    }

    /// Brings `order` into reverse EDF order for the current deadlines.
    ///
    /// An insertion pass over the previous plan's order: between two
    /// scheduling points a release moves one task's deadline, so the pass
    /// costs O(n + displacement) instead of a full sort. Its result is the
    /// fully sorted order whatever `order` held before (a different task
    /// set of the same length included); a change of length rebuilds it.
    fn sort_order(&mut self, sys: &SystemView<'_>) {
        if self.order.len() != sys.views.len() {
            self.order.clear();
            self.order.extend(sys.iter().map(|(id, _)| id));
        }
        for i in 1..self.order.len() {
            let Some((&key, sorted)) = self.order.get(..=i).and_then(<[TaskId]>::split_last) else {
                break;
            };
            let slot = sorted
                .iter()
                .rposition(|&prev| reverse_edf(sys, prev, key).is_le())
                .map_or(0, |p| p + 1);
            if slot < i {
                if let Some(run) = self.order.get_mut(slot..=i) {
                    run.rotate_right(1);
                }
            }
        }
    }

    /// The deferral loop of Fig. 8 against the planning boundary `d1`.
    fn defer(&mut self, sys: &SystemView<'_>, d1: Time) -> Work {
        self.sort_order(sys);

        // `u` starts at the total worst-case utilization; each iteration
        // swaps task i's worst-case reservation for its actual demand
        // spread over [D₁, D_i].
        let mut u: f64 = sys.tasks.total_utilization();
        let mut s = Work::ZERO;
        for &id in &self.order {
            let task = sys.tasks.task(id);
            let view = sys.view(id);
            u -= task.utilization();
            // A completed task with u ≤ 1 changes nothing but `u` above:
            // its c_left is +0, and (1 − u)·span ≥ +0, so
            // x = max(+0 − (1 − u)·span, 0) = +0; then `u += (+0 − +0)/span`
            // adds +0 and `s += x` (or `s += c_left` when span ≤ EPS) adds
            // +0, and adding +0 leaves every non-zero value's bits as they
            // are (a zero `u` may change sign, which no later use of `u`
            // can observe; `s` starts at +0 and never turns −0). The
            // subtraction above must stay, in order: float subtraction is
            // not associative, so `u` has to be the same running value.
            if view.state == InvState::Completed && u <= 1.0 {
                continue;
            }
            // A task that has not been released yet (possible only with
            // offsets or deferred admission, an extension over the paper's
            // synchronous model) will still need its full worst case before
            // its first deadline — plan for it conservatively.
            let c_left = if view.state == InvState::Inactive {
                task.wcet()
            } else {
                view.c_left(task.wcet())
            };
            let span = (view.deadline - d1).as_ms();
            if span > EPS {
                // Defer what fits into [D₁, D_i] at the residual capacity
                // (1 − u); the remainder x must run before D₁.
                let x = (c_left - Work::from_ms((1.0 - u) * span)).clamp_non_negative();
                if x.as_ms() > 0.0 {
                    u += (c_left - x).as_ms() / span;
                    s += x;
                } else {
                    // All of c_left defers: c_left − x is c_left itself
                    // and s += x adds zero. Dividing c_left directly keeps
                    // the bits and takes the division off the dependency
                    // chain through `u`, which bounds this loop's speed.
                    u += c_left.as_ms() / span;
                }
            } else {
                // D_i == D₁: nothing can be deferred.
                s += c_left;
            }
        }
        s
    }

    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let d1 = sys.earliest_deadline();
        let s = self.defer(sys, d1);
        self.planned_d1 = Some(d1);
        self.point = point_for_demand(sys.machine, s, d1 - sys.now);
        self.point
    }
}

impl DvsPolicy for LaEdf {
    fn name(&self) -> &'static str {
        "laEDF"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn init(&mut self, _tasks: &TaskSet, machine: &Machine) -> PointIdx {
        // The release events at t = 0 run defer(); starting anywhere is
        // safe, so start at the bottom.
        self.point = machine.lowest();
        self.point
    }

    fn on_release(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
    }

    fn on_completion(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
    }

    fn review_at(&self) -> Option<Time> {
        self.planned_d1
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        machine.lowest()
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        scheduler_guarantees(SchedulerKind::Edf, tasks, RmTest::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::TaskView;

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    struct Harness {
        tasks: TaskSet,
        machine: Machine,
        views: Vec<TaskView>,
    }

    impl Harness {
        fn new() -> Harness {
            let tasks = paper_set();
            let views = tasks
                .tasks()
                .iter()
                .map(|t| TaskView {
                    invocation: 1,
                    state: InvState::Active,
                    executed: Work::ZERO,
                    deadline: t.period(),
                    next_release: t.period(),
                })
                .collect();
            Harness {
                tasks,
                machine: Machine::machine0(),
                views,
            }
        }

        fn sys(&self, now: f64) -> SystemView<'_> {
            SystemView {
                now: Time::from_ms(now),
                tasks: &self.tasks,
                machine: &self.machine,
                views: &self.views,
            }
        }
    }

    /// Replays the scheduling points of Fig. 7 and checks the planned work
    /// and selected frequencies: 0.75 at t = 0, 0.5 after T1 completes,
    /// 0.5 after T2 completes, 0.5 at T1's re-release.
    #[test]
    fn fig7_decision_sequence() {
        let mut h = Harness::new();
        let mut p = LaEdf::new();
        p.init(&h.tasks, &h.machine);

        // t = 0 (Fig. 7b): defer T3 fully, part of T2; s = 3 + 25/12.
        let sys = h.sys(0.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!((s.as_ms() - (3.0 + 25.0 / 12.0)).abs() < 1e-9, "s = {s}");
        let idx = p.on_release(TaskId(0), &sys);
        assert_eq!(h.machine.point(idx).freq, 0.75);

        // T1 completes at t = 8/3 after 2 ms of actual work (Fig. 7c):
        // s = 25/12 over 16/3 ms → required 0.39 → 0.5.
        h.views[0].state = InvState::Completed;
        h.views[0].executed = Work::from_ms(2.0);
        let sys = h.sys(8.0 / 3.0);
        let idx = p.on_completion(TaskId(0), &sys);
        assert_eq!(h.machine.point(idx).freq, 0.5);

        // T2 runs 1 ms at 0.5 (2 ms wall) and completes at t = 14/3
        // (Fig. 7d): nothing must run before D1 → floor frequency.
        h.views[1].state = InvState::Completed;
        h.views[1].executed = Work::from_ms(1.0);
        let sys = h.sys(14.0 / 3.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!(s.as_ms().abs() < 1e-9);
        let idx = p.on_completion(TaskId(1), &sys);
        assert_eq!(idx, h.machine.lowest());

        // T3 then runs at 0.5 and completes at t = 20/3.
        h.views[2].state = InvState::Completed;
        h.views[2].executed = Work::from_ms(1.0);
        let sys = h.sys(20.0 / 3.0);
        let idx = p.on_completion(TaskId(2), &sys);
        assert_eq!(idx, h.machine.lowest());

        // t = 8 (Fig. 7e): T1 re-released (deadline 16); D1 is now 10.
        // T1's 3 ms fit into [10, 16] under the other tasks' reservations
        // → s = 0 → floor frequency; EDF is work-conserving so T1 runs at
        // 0.5.
        h.views[0] = TaskView {
            invocation: 2,
            state: InvState::Active,
            executed: Work::ZERO,
            deadline: Time::from_ms(16.0),
            next_release: Time::from_ms(16.0),
        };
        let sys = h.sys(8.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!(s.as_ms().abs() < 1e-9, "s = {s}");
        let idx = p.on_release(TaskId(0), &sys);
        assert_eq!(idx, h.machine.lowest());
    }

    /// With every task at its worst case and utilization 1.0, nothing can
    /// be deferred below full speed at the critical instant.
    #[test]
    fn full_utilization_demands_full_speed() {
        let tasks = TaskSet::from_ms_pairs(&[(4.0, 2.0), (8.0, 4.0)]).expect("valid task set");
        let machine = Machine::machine0();
        let views: Vec<TaskView> = tasks
            .tasks()
            .iter()
            .map(|t| TaskView {
                invocation: 1,
                state: InvState::Active,
                executed: Work::ZERO,
                deadline: t.period(),
                next_release: t.period(),
            })
            .collect();
        let sys = SystemView {
            now: Time::ZERO,
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        let mut p = LaEdf::new();
        p.init(&tasks, &machine);
        // s = 2 (T1) + 2 (T2's share that cannot defer past t=4 at zero
        // residual capacity) = 4 over 4 ms → 1.0.
        let s = p.work_due_before_next_deadline(&sys);
        assert!((s.as_ms() - 4.0).abs() < 1e-9);
        assert_eq!(p.on_release(TaskId(0), &sys), machine.highest());
    }

    #[test]
    fn all_completed_plans_zero_work() {
        let mut h = Harness::new();
        for v in &mut h.views {
            v.state = InvState::Completed;
            v.executed = Work::from_ms(0.5);
        }
        let mut p = LaEdf::new();
        p.init(&h.tasks, &h.machine);
        let sys = h.sys(5.0);
        assert_eq!(p.work_due_before_next_deadline(&sys), Work::ZERO);
    }

    #[test]
    fn idle_goes_to_lowest() {
        let machine = Machine::machine0();
        let p = LaEdf::new();
        assert_eq!(p.idle_point(&machine), 0);
    }

    #[test]
    fn guarantees_follow_edf_bound() {
        let p = LaEdf::new();
        assert!(p.guarantees(&paper_set()));
        let over = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        assert!(!p.guarantees(&over));
    }
}
