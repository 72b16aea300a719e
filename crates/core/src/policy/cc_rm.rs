//! Cycle-conserving RM (§2.4, Figs. 5 and 6).
//!
//! Rather than re-running the (expensive) RM schedulability test online,
//! ccRM paces execution against the worst-case *statically-scaled* RM
//! schedule: as long as every task makes at least as much progress by the
//! next deadline as it would in that worst-case schedule, all deadlines are
//! met regardless of the operating frequency.
//!
//! Bookkeeping per task `i`:
//!
//! * `c_left_i` — worst-case remaining cycles of the current invocation
//!   (set to `C_i` on release, decremented as the task runs, zeroed on
//!   completion); obtained here from the engine's [`SystemView`].
//! * `d_i` — the share of the statically-scaled schedule's progress until
//!   the next deadline allotted to task `i`: on every release the cycles
//!   the statically-scaled processor would retire by the earliest deadline
//!   (`α·(D₁ − now)`) are dealt out in RM priority order, each task
//!   receiving at most `c_left_i`; `d_i` is decremented as the task runs
//!   and zeroed on completion.
//!
//! The frequency is then the lowest point that retires `Σ d_i` by the
//! earliest deadline.

use crate::analysis::{static_rm_point, RmTest};
use crate::machine::{Machine, PointIdx};
use crate::policy::{point_for_demand, scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::time::{Time, Work};
use crate::view::SystemView;

/// Per-task progress bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct TaskState {
    /// Remaining allotment from the statically-scaled schedule (`d_i`).
    d: Work,
    /// Invocation number at the last sync, to detect releases.
    last_invocation: u64,
    /// `executed` at the last sync, to compute execution deltas.
    last_executed: Work,
}

/// Cycle-conserving RM.
#[derive(Debug, Clone)]
pub struct CcRm {
    rm_test: RmTest,
    /// Frequency factor `α` chosen by static scaling for this task set.
    alpha: f64,
    states: Vec<TaskState>,
    point: PointIdx,
    /// End of the current pacing window (the `D₁` used by the last
    /// allocation/selection). In the periodic model a release always lands
    /// there; under sporadic arrivals the policy asks the engine for a
    /// review at this instant so the next window gets its allocation.
    planned_boundary: Option<Time>,
}

impl CcRm {
    /// Creates the policy; `rm_test` selects the schedulability test used
    /// to derive the statically-scaled pace `α`.
    #[must_use]
    pub fn new(rm_test: RmTest) -> CcRm {
        CcRm {
            rm_test,
            alpha: 1.0,
            states: Vec::new(),
            point: 0,
            planned_boundary: None,
        }
    }

    /// The statically-scaled frequency factor `α` the policy paces against.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current `Σ d_i` (exposed for inspection and tests).
    #[must_use]
    pub fn outstanding_allotment(&self) -> Work {
        self.states.iter().map(|s| s.d).sum()
    }

    /// Applies execution progress since the last callback: "during task
    /// execution, decrement `c_left_i` and `d_i`" (Fig. 6). `c_left` is
    /// derived from the view; only `d_i` needs explicit decrementing.
    fn sync(&mut self, sys: &SystemView<'_>) {
        for (state, view) in self.states.iter_mut().zip(sys.views) {
            if view.invocation != state.last_invocation {
                state.last_invocation = view.invocation;
                state.last_executed = Work::ZERO;
            }
            let delta = (view.executed - state.last_executed).clamp_non_negative();
            state.d = (state.d - delta).clamp_non_negative();
            state.last_executed = view.executed;
        }
    }

    /// Deals out `budget` cycles to tasks in RM priority order, each task
    /// receiving at most its `c_left` (Fig. 6 `allocate_cycles`).
    fn allocate(&mut self, budget: Work, sys: &SystemView<'_>) {
        let mut k = budget;
        for &id in sys.tasks.rm_order() {
            let c_left = sys.c_left(id);
            let share = c_left.min(k);
            self.states[id.0].d = share;
            k = (k - share).clamp_non_negative();
        }
    }

    /// Fig. 6 `select_frequency`: lowest point retiring `Σ d_i` by the
    /// earliest scheduling `boundary` (`sys.earliest_boundary()`, passed in
    /// so the release path scans the views for it only once).
    fn select(&mut self, sys: &SystemView<'_>, boundary: Time) -> PointIdx {
        self.planned_boundary = Some(boundary);
        self.point = point_for_demand(
            sys.machine,
            self.outstanding_allotment(),
            boundary - sys.now,
        );
        self.point
    }

    /// Allocates the statically-scaled schedule's progress over the window
    /// up to the next deadline and selects the frequency — the release
    /// path and the sporadic-boundary review path share this step.
    fn reallocate(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let boundary = sys.earliest_boundary();
        let horizon = boundary - sys.now;
        let budget = Work::from_ms((horizon.as_ms() * self.alpha).max(0.0));
        self.allocate(budget, sys);
        self.select(sys, boundary)
    }
}

impl DvsPolicy for CcRm {
    fn name(&self) -> &'static str {
        "ccRM"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Rm
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.alpha = static_rm_point(tasks, machine, self.rm_test)
            .map_or(1.0, |idx| machine.point(idx).freq);
        self.states = vec![TaskState::default(); tasks.len()];
        // The first release events will allocate and select; starting at
        // the statically-scaled point is always safe.
        self.point = machine.point_at_least(self.alpha);
        self.point
    }

    fn on_release(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        // Progress the statically-scaled schedule would make by the next
        // deadline: α · (D₁ − now) cycles.
        self.reallocate(sys)
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.states[task.0].d = Work::ZERO;
        self.select(sys, sys.earliest_boundary())
    }

    fn review_at(&self) -> Option<Time> {
        self.planned_boundary
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.reallocate(sys)
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        machine.lowest()
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        scheduler_guarantees(SchedulerKind::Rm, tasks, self.rm_test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{InvState, TaskView};

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

        fn run(&mut self, id: usize, executed: f64) {
            self.views[id].executed = Work::from_ms(executed);
        }

        fn complete(&mut self, id: usize) {
            self.views[id].state = InvState::Completed;
        }

        fn release(&mut self, id: usize, deadline: f64) {
            self.views[id].invocation += 1;
            self.views[id].state = InvState::Active;
            self.views[id].executed = Work::ZERO;
            self.views[id].deadline = Time::from_ms(deadline);
            self.views[id].next_release = Time::from_ms(deadline);
        }
    }

    /// Replays the scheduling points of Fig. 5 and checks every frequency
    /// decision: 1.0 → 0.75 → 0.5, then 1.0 at T1's re-release.
    #[test]
    fn fig5_frequency_steps() {
        let mut h = Harness::new();
        let mut p = CcRm::new(RmTest::default());
        // Static RM needs α = 1.0 for this set (Fig. 2).
        p.init(&h.tasks, &h.machine);
        assert_eq!(p.alpha(), 1.0);

        // t = 0: all three release. Budget = 8 cycles; allotment 3+3+1 = 7;
        // 7/8 → frequency 1.0 (Fig. 5b).
        let sys = h.sys(0.0);
        p.on_release(TaskId(0), &sys);
        p.on_release(TaskId(1), &sys);
        let idx = p.on_release(TaskId(2), &sys);
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(7.0)));
        assert_eq!(h.machine.point(idx).freq, 1.0);

        // T1 runs 2 ms at 1.0 and completes at t = 2. Remaining allotment
        // 3+1 = 4 over 6 ms → 0.75 (Fig. 5c).
        h.run(0, 2.0);
        h.complete(0);
        let sys = h.sys(2.0);
        let idx = p.on_completion(TaskId(0), &sys);
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(4.0)));
        assert_eq!(h.machine.point(idx).freq, 0.75);

        // T2 runs 1 ms at 0.75 (4/3 ms wall) and completes at t = 10/3.
        // Remaining allotment 1 over 14/3 ms → 0.5 (Fig. 5d).
        h.run(1, 1.0);
        h.complete(1);
        let sys = h.sys(10.0 / 3.0);
        let idx = p.on_completion(TaskId(1), &sys);
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(1.0)));
        assert_eq!(h.machine.point(idx).freq, 0.5);

        // T3 runs 1 ms at 0.5 (2 ms wall), completing at t = 16/3.
        h.run(2, 1.0);
        h.complete(2);
        let sys = h.sys(16.0 / 3.0);
        let idx = p.on_completion(TaskId(2), &sys);
        assert_eq!(idx, h.machine.lowest());

        // t = 8: T1 re-released. Next deadline is D2 = 10; budget = 2,
        // all of it allotted to T1 → 2/2 → frequency 1.0 (Fig. 5e).
        h.release(0, 16.0);
        let sys = h.sys(8.0);
        let idx = p.on_release(TaskId(0), &sys);
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(2.0)));
        assert_eq!(h.machine.point(idx).freq, 1.0);

        // T1 uses only 1 ms and completes at t = 9 → everything allotted
        // is done; frequency drops to the floor.
        h.run(0, 1.0);
        h.complete(0);
        let sys = h.sys(9.0);
        let idx = p.on_completion(TaskId(0), &sys);
        assert_eq!(idx, h.machine.lowest());

        // t = 10: T2 re-released; next deadline D3 = 14; budget 4, T2 gets
        // its full c_left = 3 → 3/4 → 0.75.
        h.release(1, 20.0);
        let sys = h.sys(10.0);
        let idx = p.on_release(TaskId(1), &sys);
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(3.0)));
        assert_eq!(h.machine.point(idx).freq, 0.75);
    }

    #[test]
    fn execution_decrements_allotment_on_sync() {
        let mut h = Harness::new();
        let mut p = CcRm::new(RmTest::default());
        p.init(&h.tasks, &h.machine);
        let sys = h.sys(0.0);
        p.on_release(TaskId(0), &sys);
        p.on_release(TaskId(1), &sys);
        p.on_release(TaskId(2), &sys);
        // T1 runs 1.5 ms then T2 completes having run 0 — the sync at T2's
        // completion must account T1's progress.
        h.run(0, 1.5);
        h.complete(1);
        let sys = h.sys(1.5);
        p.on_completion(TaskId(1), &sys);
        // d: T1 3−1.5 = 1.5, T2 zeroed, T3 1 → 2.5 outstanding.
        assert!(p.outstanding_allotment().approx_eq(Work::from_ms(2.5)));
    }

    #[test]
    fn alpha_tracks_rm_test_choice() {
        // A harmonic set at U = 1 is exactly RM-schedulable, so the exact
        // test paces at α = 1.0 while Liu–Layland refuses every point and
        // falls back to α = 1.0 as well — but at U = 0.75 they differ.
        let tasks = TaskSet::from_ms_pairs(&[(2.0, 0.75), (4.0, 1.5)]).expect("valid task set");
        let machine = Machine::machine0();
        let mut exact = CcRm::new(RmTest::SchedulingPoints);
        exact.init(&tasks, &machine);
        assert_eq!(exact.alpha(), 0.75);
        let mut ll = CcRm::new(RmTest::LiuLayland);
        ll.init(&tasks, &machine);
        // U = 0.75 vs LL bound 0.828·α: needs α = 1.0.
        assert_eq!(ll.alpha(), 1.0);
    }

    #[test]
    fn idle_goes_to_lowest() {
        let machine = Machine::machine0();
        let p = CcRm::new(RmTest::default());
        assert_eq!(p.idle_point(&machine), 0);
    }
}
