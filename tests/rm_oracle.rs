//! Differential oracle for the one-sweep scheduling-point RM test.
//!
//! `rm_lowest_feasible` decides every operating point of a machine in one
//! ascending sweep per RM level, with a running workload sum. It is checked
//! here against a frozen copy of the per-frequency test it replaced, which
//! re-sums every level's workload term by term at every scheduling point,
//! once per frequency: both must return the same verdict at every machine
//! frequency and the same statically-scaled point on machines 0, 1 and 2.
//!
//! Cases are drawn from `SplitMix64` with a fixed base seed, so a failing
//! case reproduces from its printed index.

use rtdvs::core::analysis::{rm_feasible_at, rm_lowest_feasible, static_rm_point, RmTest};
use rtdvs::core::example::table2_task_set;
use rtdvs::core::task::Task;
use rtdvs::core::{Machine, PointIdx, TaskSet};
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec, PERIOD_BANDS_MS};

mod frozen_rm;

use frozen_rm::{oracle_static_rm_point, rm_scheduling_points_feasible};

const CASES: u64 = 1200;

/// The paper's machines 0, 1 and 2.
fn machines() -> [Machine; 3] {
    [
        Machine::machine0(),
        Machine::machine1(),
        Machine::machine2(),
    ]
}

/// Asserts that the sweep and the oracle agree on `tasks` on `machine`: the
/// verdict at every point's frequency (the top one is 1.0) and the static
/// point. Returns that point.
fn check(tasks: &TaskSet, machine: &Machine, ctx: &str) -> Option<PointIdx> {
    let mut expected = None;
    for (idx, p) in machine.points().iter().enumerate() {
        let verdict = rm_scheduling_points_feasible(tasks, p.freq);
        assert_eq!(
            rm_feasible_at(tasks, p.freq, RmTest::SchedulingPoints),
            verdict,
            "{ctx}: {} at alpha = {}",
            machine.name(),
            p.freq
        );
        if verdict && expected.is_none() {
            expected = Some(idx);
        }
    }
    assert_eq!(
        static_rm_point(tasks, machine, RmTest::SchedulingPoints),
        expected,
        "{ctx}: static point on {}",
        machine.name()
    );
    expected
}

/// `n` tasks from the paper's three period bands at total utilization `u`
/// (which may exceed 1). `grid` rounds periods to a multiple of itself, so
/// scheduling points of different tasks coincide exactly (`1.0`) or up to
/// float round-off (`0.1`).
fn draw_tasks(r: &mut SplitMix64, n: usize, u: f64, grid: Option<f64>) -> TaskSet {
    loop {
        let periods: Vec<f64> = (0..n)
            .map(|_| {
                let (lo, hi) = PERIOD_BANDS_MS[r.index(PERIOD_BANDS_MS.len())];
                let p = r.range_f64(lo, hi);
                grid.map_or(p, |g| ((p / g).round() * g).max(1.0))
            })
            .collect();
        let raw: Vec<f64> = periods
            .iter()
            .map(|&p| r.range_f64(0.01, 1.0) * p)
            .collect();
        let raw_u: f64 = raw.iter().zip(&periods).map(|(c, p)| c / p).sum();
        let scale = u / raw_u;
        if raw.iter().zip(&periods).all(|(&c, &p)| c * scale <= p) {
            let tasks = periods
                .iter()
                .zip(&raw)
                .map(|(&p, &c)| Task::from_ms(p, c * scale).expect("valid task"))
                .collect();
            return TaskSet::new(tasks).expect("non-empty set");
        }
    }
}

#[test]
fn sweep_matches_the_per_frequency_oracle_on_seeded_sets() {
    let base = SplitMix64::seed_from_u64(0x5EED_5C4E);
    let mut feasible = [0usize; 2];
    for case in 0..CASES {
        let mut r = base.split(case);
        let n = 2 + r.index(31);
        let u = r.range_f64_inclusive(0.3, 1.05);
        let grid = match case % 3 {
            0 => None,
            1 => Some(1.0),
            _ => Some(0.1),
        };
        let tasks = draw_tasks(&mut r, n, u, grid);
        let machine = &machines()[(case / 3 % 3) as usize];
        let point = check(
            &tasks,
            machine,
            &format!("case {case}, n = {n}, U = {u:.4}"),
        );
        feasible[usize::from(point.is_some())] += 1;
    }
    // Both verdicts occur often enough for the comparison to mean something.
    assert!(
        feasible.iter().all(|&k| k > CASES as usize / 10),
        "{feasible:?}"
    );
}

/// `head` plus a task of period `period` whose WCET is the largest float
/// the frozen test admits at `alpha`, and the same set with the next float
/// up: the two sides of the level's exact threshold.
fn straddle(head: &[(f64, f64)], period: f64, alpha: f64) -> [TaskSet; 2] {
    let set = |bits: u64| {
        let mut pairs = head.to_vec();
        pairs.push((period, f64::from_bits(bits)));
        TaskSet::from_ms_pairs(&pairs).expect("valid set")
    };
    let fits = |bits: u64| rm_scheduling_points_feasible(&set(bits), alpha);
    // Positive floats order like their bit patterns.
    let (mut ok, mut over) = (1e-9_f64.to_bits(), period.to_bits());
    assert!(
        fits(ok) && !fits(over),
        "{head:?} + P = {period} has no threshold"
    );
    while over - ok > 1 {
        let mid = ok + (over - ok) / 2;
        if fits(mid) {
            ok = mid;
        } else {
            over = mid;
        }
    }
    [set(ok), set(over)]
}

#[test]
fn sweep_matches_the_oracle_on_boundary_sets() {
    let [m0, m1, m2] = machines();
    // Table 2: static RM needs 1.0; 0.75 misses T3's deadline (Fig. 2).
    let table2 = table2_task_set();
    assert_eq!(check(&table2, &m0, "table 2"), Some(2));
    assert!(!rm_feasible_at(&table2, 0.75, RmTest::SchedulingPoints));

    // Harmonic: level 2's demand at t = 4 is exactly 0.5·4.
    let harmonic = TaskSet::from_ms_pairs(&[(2.0, 0.5), (4.0, 1.0)]).expect("valid set");
    assert_eq!(check(&harmonic, &m0, "harmonic"), Some(0));
    assert_eq!(rm_lowest_feasible(&harmonic, &[0.4999, 0.5]), Some(1));

    // Each level below is decided at a point where its demand sits exactly
    // on the frequency's threshold, at the last float the frozen test
    // admits and the next one up. Table 2's T3 at 1.0; a harmonic pair;
    // 3·1.1 one ulp above 3.3; 3·0.3 one ulp below 0.9; 3·(1 − 1e-12) and
    // 3·(1 + 1e-12), whole multiples a hair from the point 3; and
    // 1000·(1 + 2^-31), one past that period's last scheduling point, on
    // exactly the same float as the point 2·(500 + 1000·2^-32).
    for (head, period, alpha) in [
        (vec![(8.0, 3.0), (10.0, 3.0)], 14.0, 1.0),
        (vec![(2.0, 0.5)], 4.0, 0.5),
        (vec![(1.1, 0.2)], 3.3, 0.75),
        (vec![(0.3, 0.05), (0.9, 0.1)], 3.0, 0.5),
        (vec![(1.0 - 1e-12, 0.25)], 3.0, 0.5),
        (vec![(1.0 + 1e-12, 0.25)], 3.0, 0.55),
        (
            vec![
                (1.0 + 2f64.powi(-31), 0.5),
                (500.0 + 1000.0 * 2f64.powi(-32), 100.0),
            ],
            1000.0,
            0.75,
        ),
    ] {
        for (side, tasks) in straddle(&head, period, alpha).iter().enumerate() {
            let ctx = format!("{head:?} + P = {period}, side {side}");
            assert_eq!(
                rm_feasible_at(tasks, alpha, RmTest::SchedulingPoints),
                side == 0,
                "{ctx}"
            );
            for machine in [&m0, &m1, &m2] {
                check(tasks, machine, &ctx);
            }
        }
    }

    // U > 1: infeasible at every frequency.
    let overload = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid set");
    for machine in [&m0, &m1, &m2] {
        assert_eq!(check(&overload, machine, "overload"), None);
        assert_eq!(oracle_static_rm_point(&overload, machine), None);
    }
}

#[test]
fn sweep_matches_the_oracle_on_soak_sized_prefixes() {
    let spec = TaskGenSpec::new(128, 0.8).expect("valid spec");
    let tasks = generate(&spec, 24301).expect("a three-band set generates");
    for len in (8..=128).step_by(8) {
        let prefix = TaskSet::new(tasks.tasks()[..len].to_vec()).expect("non-empty");
        for machine in &machines() {
            let point = check(&prefix, machine, &format!("prefix of {len} tasks"));
            assert_eq!(point, oracle_static_rm_point(&prefix, machine));
        }
    }
}
