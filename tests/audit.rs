//! Tier-1 suite for the invariant audit layer: across seeded-random task
//! sets, every paper policy's recorded run must replay with zero
//! violations, and a deliberately broken manual pin must be flagged.

use rtdvs::audit::{audit_run, Rule, TraceAuditor};
use rtdvs::core::analysis::{rm_feasible_at, RmTest};
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec};
use rtdvs::{ExecModel, Machine, PolicyKind, SchedulerKind, SimConfig, TaskSet, Time};

const CASES: u64 = 24;

fn draw_machine(r: &mut SplitMix64) -> Machine {
    match r.index(3) {
        0 => Machine::machine0(),
        1 => Machine::machine1(),
        _ => Machine::machine2(),
    }
}

fn draw_exec(r: &mut SplitMix64) -> ExecModel {
    match r.index(3) {
        0 => ExecModel::Wcet,
        1 => ExecModel::ConstantFraction(r.range_f64_inclusive(0.05, 1.0)),
        _ => {
            let lo = r.range_f64(0.0, 0.5);
            let hi = r.range_f64_inclusive(0.5, 1.0);
            ExecModel::UniformFraction { lo, hi }
        }
    }
}

fn draw_tasks(r: &mut SplitMix64) -> TaskSet {
    let n = 1 + r.index(6);
    let upct = 5 + r.index(95);
    let spec = TaskGenSpec::new(n, upct as f64 / 100.0).expect("valid spec");
    generate(&spec, r.next_u64()).expect("generator succeeds")
}

/// Every paper policy upholds every audited invariant on seeded-random
/// feasible task sets — the auditor's replay agrees with the engine
/// decision for decision.
#[test]
fn paper_policies_audit_clean_on_random_sets() {
    let mut r = SplitMix64::seed_from_u64(0xA0D1_7A11);
    for case in 0..CASES {
        let tasks = draw_tasks(&mut r);
        let machine = draw_machine(&mut r);
        let cfg = SimConfig::new(Time::from_ms(400.0))
            .with_exec(draw_exec(&mut r))
            .with_seed(r.next_u64());
        let rm_ok = rm_feasible_at(&tasks, 1.0, RmTest::SchedulingPoints);
        for kind in PolicyKind::paper_six() {
            // The RM policies only promise anything on RM-feasible sets;
            // skipping keeps the "zero violations" assertion meaningful.
            match kind {
                PolicyKind::PlainRm | PolicyKind::StaticRm(_) | PolicyKind::CcRm(_) if !rm_ok => {
                    continue
                }
                _ => {}
            }
            let (report, violations) = audit_run(&tasks, &machine, kind, &cfg);
            assert!(
                violations.is_empty(),
                "case {case}: {} on {}: {} violations, first: {}",
                kind.name(),
                machine.name(),
                violations.len(),
                violations[0]
            );
            assert!(report.all_deadlines_met(), "case {case}: {}", kind.name());
        }
    }
}

/// The soak-sized case: 128 tasks from the paper's three period bands at
/// U = 0.8, drawn until the exact RM test guarantees them, replay clean
/// under every paper policy.
#[test]
fn paper_policies_audit_clean_on_a_128_task_set() {
    let spec = TaskGenSpec::new(128, 0.8).expect("valid spec");
    let tasks = (0..64)
        .map(|k| generate(&spec, 24301 + k).expect("generator succeeds"))
        .find(|set| rm_feasible_at(set, 1.0, RmTest::SchedulingPoints))
        .expect("an RM-schedulable draw");
    let machine = Machine::machine0();
    let cfg = SimConfig::new(Time::from_ms(200.0))
        .with_exec(ExecModel::uniform())
        .with_seed(24301);
    for kind in PolicyKind::paper_six() {
        let (report, violations) = audit_run(&tasks, &machine, kind, &cfg);
        assert!(
            violations.is_empty(),
            "{}: {} violations, first: {}",
            kind.name(),
            violations.len(),
            violations[0]
        );
        assert!(report.all_deadlines_met(), "{}", kind.name());
    }
}

/// A manual pin below the required frequency is a deadline-missing run
/// the auditor must reject, case after seeded case.
#[test]
fn broken_manual_pin_is_rejected() {
    let mut r = SplitMix64::seed_from_u64(0xBAD_9141);
    let mut flagged = 0u32;
    for _ in 0..CASES {
        let n = 2 + r.index(5);
        let spec = TaskGenSpec::new(n, 0.9).expect("valid spec");
        let tasks = generate(&spec, r.next_u64()).expect("generator succeeds");
        let machine = Machine::machine0();
        let kind = PolicyKind::Manual {
            scheduler: SchedulerKind::Edf,
            point: machine.lowest(),
        };
        let cfg = SimConfig::new(Time::from_ms(400.0)).with_seed(r.next_u64());
        let (report, violations) = audit_run(&tasks, &machine, kind, &cfg);
        if report.all_deadlines_met() {
            continue;
        }
        assert!(
            violations.iter().any(|v| v.rule == Rule::DeadlineMiss),
            "missed deadlines but the auditor stayed silent"
        );
        flagged += 1;
    }
    // U = 0.9 pinned to frequency 0.5 misses essentially always; make
    // sure the property was actually exercised.
    assert!(flagged > CASES as u32 / 2, "only {flagged} runs missed");
}

/// Auditing a report whose trace was never recorded is itself a finding,
/// not a silent pass.
#[test]
fn missing_trace_is_a_finding() {
    let tasks = rtdvs::core::example::table2_task_set();
    let machine = Machine::machine1();
    let cfg = SimConfig::new(Time::from_ms(160.0));
    let report = rtdvs::simulate(&tasks, &machine, PolicyKind::CcEdf, &cfg);
    let violations = TraceAuditor::new(&tasks, &machine, PolicyKind::CcEdf, &cfg).audit(&report);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, Rule::TraceConsistency);
}
