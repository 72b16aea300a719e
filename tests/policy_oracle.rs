//! Bit-exact differential oracle for the incremental laEDF and ccRM math.
//!
//! `LaEdf` carries its reverse-EDF order across calls, skips the no-op
//! arithmetic of completed tasks and reads the total utilization cached in
//! the `TaskSet`; `CcRm` scans the views once per decision for its pacing
//! boundary. Each is checked here against a frozen copy of the from-scratch
//! algorithm it replaced — the order rebuilt in id order and fully sorted
//! at every call, the utilization re-summed, the boundary taken in two
//! scans — comparing the planned work `s`, the boundary `D₁`, the
//! outstanding allotment `Σ d_i` and the chosen point by their bits.
//!
//! Cases are drawn from `SplitMix64` with a fixed base seed, so a failing
//! case reproduces from its printed index.

use rtdvs::core::analysis::{static_rm_point, RmTest};
use rtdvs::core::policy::{point_for_demand, CcRm, DvsPolicy, LaEdf};
use rtdvs::core::task::Task;
use rtdvs::core::time::EPS;
use rtdvs::core::view::{InvState, SystemView, TaskView};
use rtdvs::core::{Machine, PointIdx, TaskId, TaskSet, Time, Work};
use rtdvs::taskgen::SplitMix64;

const CASES: u64 = 1200;

/// The from-scratch laEDF deferral (Fig. 8) as it was before the order was
/// carried across calls.
#[derive(Default)]
struct OracleLaEdf {
    point: PointIdx,
    planned_d1: Option<Time>,
    order: Vec<TaskId>,
}

impl OracleLaEdf {
    fn work_due_before_next_deadline(&mut self, sys: &SystemView<'_>) -> Work {
        let d1 = sys.earliest_deadline();
        self.order.clear();
        self.order.extend(sys.iter().map(|(id, _)| id));
        self.order.sort_by(|&a, &b| {
            sys.view(b)
                .deadline
                .total_cmp(&sys.view(a).deadline)
                .then(b.0.cmp(&a.0))
        });
        let mut u: f64 = sys.tasks.tasks().iter().map(Task::utilization).sum();
        let mut s = Work::ZERO;
        for &id in &self.order {
            u -= sys.tasks.task(id).utilization();
            let c_left = if sys.view(id).state == InvState::Inactive {
                sys.tasks.task(id).wcet()
            } else {
                sys.c_left(id)
            };
            let span = (sys.view(id).deadline - d1).as_ms();
            if span > EPS {
                let x = (c_left - Work::from_ms((1.0 - u) * span)).clamp_non_negative();
                u += (c_left - x).as_ms() / span;
                s += x;
            } else {
                s += c_left;
            }
        }
        s
    }

    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let s = self.work_due_before_next_deadline(sys);
        let d1 = sys.earliest_deadline();
        self.planned_d1 = Some(d1);
        self.point = point_for_demand(sys.machine, s, d1 - sys.now);
        self.point
    }
}

/// The two-scan pacing boundary ccRM used before the scans were fused.
fn oracle_earliest_boundary(sys: &SystemView<'_>) -> Time {
    let next_release = sys
        .views
        .iter()
        .map(|v| v.next_release)
        .filter(|t| t.as_ms() > sys.now.as_ms() + EPS)
        .reduce(Time::min);
    let deadline_boundary = sys.earliest_deadline();
    match next_release {
        Some(release) => deadline_boundary.min(release),
        None => deadline_boundary,
    }
}

#[derive(Clone, Copy, Default)]
struct OracleTaskState {
    d: Work,
    last_invocation: u64,
    last_executed: Work,
}

/// ccRM's `sync`/`allocate`/`select` (Fig. 6) as they were before the
/// boundary was computed once per decision.
struct OracleCcRm {
    rm_test: RmTest,
    alpha: f64,
    states: Vec<OracleTaskState>,
    point: PointIdx,
    planned_boundary: Option<Time>,
}

impl OracleCcRm {
    fn new(rm_test: RmTest) -> OracleCcRm {
        OracleCcRm {
            rm_test,
            alpha: 1.0,
            states: Vec::new(),
            point: 0,
            planned_boundary: None,
        }
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.alpha = static_rm_point(tasks, machine, self.rm_test)
            .map_or(1.0, |idx| machine.point(idx).freq);
        self.states = vec![OracleTaskState::default(); tasks.len()];
        self.point = machine.point_at_least(self.alpha);
        self.point
    }

    fn outstanding_allotment(&self) -> Work {
        self.states.iter().map(|s| s.d).sum()
    }

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

    fn allocate(&mut self, budget: Work, sys: &SystemView<'_>) {
        let mut k = budget;
        for &id in sys.tasks.rm_order() {
            let c_left = sys.c_left(id);
            let share = c_left.min(k);
            self.states[id.0].d = share;
            k = (k - share).clamp_non_negative();
        }
    }

    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let boundary = oracle_earliest_boundary(sys);
        self.planned_boundary = Some(boundary);
        self.point = point_for_demand(
            sys.machine,
            self.outstanding_allotment(),
            boundary - sys.now,
        );
        self.point
    }

    fn reallocate(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let horizon = oracle_earliest_boundary(sys) - sys.now;
        let budget = Work::from_ms((horizon.as_ms() * self.alpha).max(0.0));
        self.allocate(budget, sys);
        self.select(sys)
    }

    fn on_release(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.reallocate(sys)
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.states[task.0].d = Work::ZERO;
        self.select(sys)
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.reallocate(sys)
    }
}

fn draw_machine(r: &mut SplitMix64) -> Machine {
    match r.index(3) {
        0 => Machine::machine0(),
        1 => Machine::machine1(),
        _ => Machine::machine2(),
    }
}

/// A task set of `n` tasks whose periods come from a small grid, so equal
/// periods (and hence equal deadlines) are common. Total utilization
/// ranges past 1 so the deferral loop also runs with `u > 1`.
fn draw_tasks(r: &mut SplitMix64, n: usize) -> TaskSet {
    let tasks = (0..n)
        .map(|_| {
            let period = 2.0 + r.index(12) as f64 * 2.5;
            let wcet = period * r.range_f64_inclusive(0.01, 2.4 / n as f64).min(1.0);
            Task::from_ms(period, wcet).expect("valid task")
        })
        .collect();
    TaskSet::new(tasks).expect("non-empty set")
}

/// A deadline on a half-millisecond grid around `now`: lapsed, exactly
/// `now`, or in the future, with frequent ties.
fn draw_deadline(r: &mut SplitMix64, now: Time) -> Time {
    now + Time::from_ms((r.index(48) as f64 - 6.0) * 0.5)
}

fn draw_view(r: &mut SplitMix64, task: &Task, now: Time) -> TaskView {
    let deadline = draw_deadline(r, now);
    // Sporadic arrivals: the next release may trail the deadline.
    let next_release = if r.index(3) == 0 {
        deadline + Time::from_ms(r.index(8) as f64 * 0.75)
    } else {
        deadline
    };
    let state = match r.index(6) {
        0 => InvState::Inactive,
        1 | 2 => InvState::Completed,
        _ => InvState::Active,
    };
    let (invocation, executed) = match state {
        InvState::Inactive => (0, Work::ZERO),
        // Up to 1.5x the WCET: overruns included.
        _ => (
            1 + r.index(4) as u64,
            task.wcet() * r.range_f64_inclusive(0.0, 1.5),
        ),
    };
    TaskView {
        invocation,
        state,
        executed,
        deadline,
        next_release,
    }
}

fn draw_views(r: &mut SplitMix64, tasks: &TaskSet, now: Time) -> Vec<TaskView> {
    tasks.tasks().iter().map(|t| draw_view(r, t, now)).collect()
}

/// Moves the system on between two scheduling points: time advances, and
/// one task is released, runs or completes.
fn step(r: &mut SplitMix64, tasks: &TaskSet, views: &mut [TaskView], now: &mut Time) {
    *now += Time::from_ms(r.index(5) as f64 * 0.25);
    let i = r.index(views.len());
    let task = tasks.task(TaskId(i));
    let v = &mut views[i];
    match r.index(4) {
        0 => {
            // Release: the deadline advances by one period.
            v.invocation += 1;
            v.state = InvState::Active;
            v.executed = Work::ZERO;
            v.deadline += task.period();
            v.next_release = v.deadline;
        }
        1 => v.executed += task.wcet() * r.range_f64_inclusive(0.0, 0.6),
        2 => v.state = InvState::Completed,
        _ => *v = draw_view(r, task, *now),
    }
}

fn sys<'a>(
    now: Time,
    tasks: &'a TaskSet,
    machine: &'a Machine,
    views: &'a [TaskView],
) -> SystemView<'a> {
    SystemView {
        now,
        tasks,
        machine,
        views,
    }
}

fn bits(t: Option<Time>) -> Option<u64> {
    t.map(|t| t.as_ms().to_bits())
}

#[test]
fn incremental_policies_match_the_from_scratch_oracle_bit_for_bit() {
    let base = SplitMix64::seed_from_u64(0x0_1AED_F0CC);
    for case in 0..CASES {
        let mut r = base.split(case);
        let machine = draw_machine(&mut r);
        // Mostly small sets; every eighth case is large enough for long
        // insertion displacements.
        let n = if case % 8 == 0 {
            32 + r.index(97)
        } else {
            1 + r.index(12)
        };
        let mut tasks = draw_tasks(&mut r, n);
        let mut now = Time::from_ms(r.index(200) as f64 * 0.25);
        let mut views = draw_views(&mut r, &tasks, now);
        // The exact RM tests are quadratic; large sets pace with the
        // Liu-Layland bound so the suite stays fast.
        let rm_test = match r.index(3) {
            _ if n > 16 => RmTest::LiuLayland,
            0 => RmTest::LiuLayland,
            1 => RmTest::SchedulingPoints,
            _ => RmTest::ResponseTime,
        };

        let mut la = LaEdf::new();
        let mut la_oracle = OracleLaEdf::default();
        // Half the cases never call `init` (the audit replay and the
        // microbenchmarks drive the deferral directly).
        if r.index(2) == 0 {
            la.init(&tasks, &machine);
        }
        let mut cc = CcRm::new(rm_test);
        let mut cc_oracle = OracleCcRm::new(rm_test);
        assert_eq!(cc.init(&tasks, &machine), cc_oracle.init(&tasks, &machine));

        let calls = 1 + r.index(60);
        for call in 0..calls {
            let ctx = format!("case {case}, call {call}, n = {}", tasks.len());
            if call > 0 {
                match r.index(16) {
                    // Swap to a different set of the same length without
                    // re-initialising laEDF.
                    0 => {
                        tasks = draw_tasks(&mut r, tasks.len());
                        views = draw_views(&mut r, &tasks, now);
                    }
                    // A set of a different length: the kernel re-inits
                    // ccRM on every set change.
                    1 => {
                        let len = 1 + r.index(n + 4);
                        tasks = draw_tasks(&mut r, len);
                        views = draw_views(&mut r, &tasks, now);
                        assert_eq!(cc.init(&tasks, &machine), cc_oracle.init(&tasks, &machine));
                    }
                    _ => step(&mut r, &tasks, &mut views, &mut now),
                }
            }
            let sys = sys(now, &tasks, &machine, &views);
            assert_eq!(
                sys.earliest_boundary().as_ms().to_bits(),
                oracle_earliest_boundary(&sys).as_ms().to_bits(),
                "{ctx}: earliest boundary"
            );

            let id = TaskId(r.index(tasks.len()));
            let (la_point, la_expect, cc_point, cc_expect) = match r.index(4) {
                0 => {
                    let s = la.work_due_before_next_deadline(&sys);
                    let s_oracle = la_oracle.work_due_before_next_deadline(&sys);
                    assert_eq!(s.as_ms().to_bits(), s_oracle.as_ms().to_bits(), "{ctx}: s");
                    (
                        la.on_review(&sys),
                        la_oracle.select(&sys),
                        cc.on_review(&sys),
                        cc_oracle.on_review(&sys),
                    )
                }
                1 => (
                    la.on_release(id, &sys),
                    la_oracle.select(&sys),
                    cc.on_release(id, &sys),
                    cc_oracle.on_release(&sys),
                ),
                2 => (
                    la.on_completion(id, &sys),
                    la_oracle.select(&sys),
                    cc.on_completion(id, &sys),
                    cc_oracle.on_completion(id, &sys),
                ),
                _ => (
                    la.on_review(&sys),
                    la_oracle.select(&sys),
                    cc.on_review(&sys),
                    cc_oracle.on_review(&sys),
                ),
            };
            assert_eq!(la_point, la_expect, "{ctx}: laEDF point");
            assert_eq!(la.current_point(), la_oracle.point, "{ctx}: laEDF point");
            assert_eq!(
                bits(la.review_at()),
                bits(la_oracle.planned_d1),
                "{ctx}: laEDF D1"
            );
            assert_eq!(cc_point, cc_expect, "{ctx}: ccRM point");
            assert_eq!(cc.current_point(), cc_oracle.point, "{ctx}: ccRM point");
            assert_eq!(
                bits(cc.review_at()),
                bits(cc_oracle.planned_boundary),
                "{ctx}: ccRM boundary"
            );
            assert_eq!(
                cc.outstanding_allotment().as_ms().to_bits(),
                cc_oracle.outstanding_allotment().as_ms().to_bits(),
                "{ctx}: ccRM allotment"
            );
        }
    }
}
