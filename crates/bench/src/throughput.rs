//! Throughput soak: the O(1) engine against the frozen pre-refactor
//! baseline.
//!
//! The engine rewrite (priority-bitmap ready queue + hierarchical timing
//! wheel, `rtdvs_sim::engine`) must hold two promises at once:
//!
//! 1. **Bit-exact behavior** — on the paper's Table 2 set, every policy's
//!    trace (segments *and* events) and full report must be byte-identical
//!    to `rtdvs_sim::baseline`, the frozen copy of the retired engine.
//! 2. **Throughput** — on a task set large enough that the old engine's
//!    per-event linear scans actually cost something, the new engine must
//!    sustain at least [`ThroughputConfig::floor_ratio`] times the
//!    baseline's events per second.
//!
//! The floor is a *ratio against a reference run in the same process*,
//! never a wall-clock number: the baseline engine is the reference
//! microbenchmark, measured back to back with the new engine on the same
//! core, so CPU-frequency scaling and runner speed cancel out and the
//! gate cannot flake on slow CI hardware.
//!
//! Two workload panels are measured:
//!
//! * `table2` — the paper's 3-task example. With three tasks the linear
//!   scans the rewrite removed are a few nanoseconds per event, so both
//!   engines are dominated by shared work (policy callbacks, the RNG,
//!   energy accounting) and the ratio sits near 1. This panel pins the
//!   traces and guards against regressions
//!   ([`ThroughputConfig::table2_floor_ratio`]).
//! * `soak` — a generated [`ThroughputConfig::soak_tasks`]-task set where
//!   the baseline pays its O(n) per event. The ≥5× floor is enforced here,
//!   on the policies whose per-event cost is engine-dominated (plain EDF,
//!   both statics, ccEDF). ccRM and laEDF are measured and reported but
//!   not floored: their per-event cost is dominated by their own O(n)
//!   policy math, and `rtdvs_sim::baseline` runs the same policy objects,
//!   so a faster policy speeds up both engines alike and the
//!   engine/baseline ratio cannot show it.
//!
//! A third panel, `kernel`, runs the same soak set through one
//! [`RtKernel`] per floored policy (seeded uniform bodies, one
//! `run_until` over the soak horizon) and holds its events/s — releases
//! plus completions in the kernel log — to at least
//! [`ThroughputConfig::kernel_floor_ratio`] times the engine's, measured
//! in the same process: the kernel's run loop keeps its scheduling state
//! incrementally and must not fall back to per-step sweeps.
//!
//! The committed golden (`BENCH_throughput.json`, schema
//! `rtdvs-throughput/v1`) pins the machine-independent payload: seed,
//! panel shapes, per-policy event counts, and the floor values. Measured
//! events/s and ratios are provenance — recorded by `--write`, zeroed in
//! the canonical form the gate diffs.

use std::time::Instant;

use rtdvs_core::example::{table2_task_set, table3_actual_times, EXAMPLE_HORIZON_MS};
use rtdvs_core::task::TaskSet;
use rtdvs_core::{Machine, PolicyKind, Time};
use rtdvs_kernel::{KernelEvent, RtKernel, UniformBody};
use rtdvs_sim::baseline::simulate_baseline;
use rtdvs_sim::{simulate, ExecModel, SimConfig, SimReport};
use rtdvs_taskgen::{generate, TaskGenSpec};

use crate::artifact::{Artifact, ArtifactError, Json};

/// Shape of the throughput soak.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Seed for the generated soak set and the simulators.
    pub seed: u64,
    /// Horizon of the Table 2 timing runs.
    pub table2_horizon: Time,
    /// Task count of the generated soak set.
    pub soak_tasks: usize,
    /// Total utilization of the generated soak set.
    pub soak_util: f64,
    /// Horizon of the soak timing runs.
    pub soak_horizon: Time,
    /// Minimum accumulated measurement time per (engine, policy) pair:
    /// runs repeat until this much wall clock has been spent, and the
    /// best observed events/s wins (robust to scheduler noise).
    pub min_measure_ms: u64,
    /// Events/s floor on the soak panel: `engine / baseline` must be at
    /// least this for every floored policy.
    pub floor_ratio: f64,
    /// Regression guard on the Table 2 panel (near-1 ratios expected).
    pub table2_floor_ratio: f64,
    /// Events/s floor on the kernel panel: `kernel / engine` on the soak
    /// set must be at least this for every floored policy.
    pub kernel_floor_ratio: f64,
}

/// The committed soak shape: 128 tasks at U = 0.8, measured against a
/// 5× floor (observed ratios are 6.7–8.4× on the floored policies), and
/// the kernel held to 0.4× the engine (observed ~1×; the per-step
/// rebuild it replaced ran at ~0.1×).
#[must_use]
pub fn throughput_smoke_config(seed: u64) -> ThroughputConfig {
    ThroughputConfig {
        seed,
        table2_horizon: Time::from_ms(2_000.0),
        soak_tasks: 128,
        soak_util: 0.8,
        soak_horizon: Time::from_ms(8_000.0),
        min_measure_ms: 250,
        floor_ratio: 5.0,
        table2_floor_ratio: 0.5,
        kernel_floor_ratio: 0.4,
    }
}

/// One policy's measurement on one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyThroughput {
    /// Policy display name.
    pub policy: String,
    /// Simulated events per run (identical for both engines; pinned).
    pub events: u64,
    /// Whether this policy counts toward the panel's ratio floor.
    pub floored: bool,
    /// New-engine events/s (provenance; zeroed in canonical form).
    pub engine_eps: f64,
    /// Baseline events/s (provenance; zeroed in canonical form).
    pub baseline_eps: f64,
    /// `engine_eps / baseline_eps` (provenance; zeroed in canonical form).
    pub ratio: f64,
}

/// One floored policy's soak set run through the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelThroughput {
    /// Policy display name.
    pub policy: String,
    /// Releases plus completions the kernel logs per run (pinned).
    pub events: u64,
    /// Kernel events/s (provenance; zeroed in canonical form).
    pub kernel_eps: f64,
    /// The engine's events/s on the same set, from the soak panel
    /// (provenance; zeroed in canonical form).
    pub engine_eps: f64,
    /// `kernel_eps / engine_eps` (provenance; zeroed in canonical form).
    pub ratio: f64,
}

/// The full soak result / golden artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputArtifact {
    /// Seed the panels were generated and simulated with.
    pub seed: u64,
    /// Soak-set task count.
    pub soak_tasks: u64,
    /// Soak-panel ratio floor.
    pub floor_ratio: f64,
    /// Table 2 panel regression floor.
    pub table2_floor_ratio: f64,
    /// Kernel panel floor, as a ratio to the engine.
    pub kernel_floor_ratio: f64,
    /// Table 2 panel, all six policies.
    pub table2: Vec<PolicyThroughput>,
    /// Soak panel, all six policies.
    pub soak: Vec<PolicyThroughput>,
    /// Kernel panel, the floored policies.
    pub kernel: Vec<KernelThroughput>,
    /// Total wall clock (provenance; zeroed in canonical form).
    pub wall_ms: u64,
}

impl Artifact for ThroughputArtifact {
    const SCHEMA: &'static str = "rtdvs-throughput/v1";

    /// The canonical form keeps the machine-independent payload only:
    /// wall clock, events/s and ratios are zeroed.
    fn to_value(&self, canonical: bool) -> Json {
        let panel = |rows: &[PolicyThroughput]| {
            Json::list(rows.iter().map(|p| {
                let (eng, base, ratio) = if canonical {
                    (0.0, 0.0, 0.0)
                } else {
                    (p.engine_eps, p.baseline_eps, p.ratio)
                };
                Json::row([
                    ("policy", Json::str(&p.policy)),
                    ("events", Json::int(p.events)),
                    ("floored", Json::Bool(p.floored)),
                    ("engine_eps", Json::fixed(eng, 0)),
                    ("baseline_eps", Json::fixed(base, 0)),
                    ("ratio", Json::fixed(ratio, 2)),
                ])
            }))
        };
        Json::block([
            ("schema", Json::str(Self::SCHEMA)),
            ("seed", Json::int(self.seed)),
            ("soak_tasks", Json::int(self.soak_tasks)),
            ("floor_ratio", Json::fixed(self.floor_ratio, 2)),
            (
                "table2_floor_ratio",
                Json::fixed(self.table2_floor_ratio, 2),
            ),
            (
                "kernel_floor_ratio",
                Json::fixed(self.kernel_floor_ratio, 2),
            ),
            ("table2", panel(&self.table2)),
            ("soak", panel(&self.soak)),
            (
                "kernel",
                Json::list(self.kernel.iter().map(|k| {
                    let (kernel, engine, ratio) = if canonical {
                        (0.0, 0.0, 0.0)
                    } else {
                        (k.kernel_eps, k.engine_eps, k.ratio)
                    };
                    Json::row([
                        ("policy", Json::str(&k.policy)),
                        ("events", Json::int(k.events)),
                        ("kernel_eps", Json::fixed(kernel, 0)),
                        ("engine_eps", Json::fixed(engine, 0)),
                        ("ratio", Json::fixed(ratio, 2)),
                    ])
                })),
            ),
            (
                "wall_ms",
                Json::int(if canonical { 0 } else { self.wall_ms }),
            ),
        ])
    }

    fn from_value(value: &Json) -> Result<ThroughputArtifact, ArtifactError> {
        let panel = |key: &str| {
            value.get(key)?.map_items(|p| {
                Ok(PolicyThroughput {
                    policy: p.get("policy")?.as_str()?.to_owned(),
                    events: p.get("events")?.as_u64()?,
                    floored: p.get("floored")?.as_bool()?,
                    engine_eps: p.get("engine_eps")?.as_f64()?,
                    baseline_eps: p.get("baseline_eps")?.as_f64()?,
                    ratio: p.get("ratio")?.as_f64()?,
                })
            })
        };
        Ok(ThroughputArtifact {
            seed: value.get("seed")?.as_u64()?,
            soak_tasks: value.get("soak_tasks")?.as_u64()?,
            floor_ratio: value.get("floor_ratio")?.as_f64()?,
            table2_floor_ratio: value.get("table2_floor_ratio")?.as_f64()?,
            kernel_floor_ratio: value.get("kernel_floor_ratio")?.as_f64()?,
            table2: panel("table2")?,
            soak: panel("soak")?,
            kernel: value.get("kernel")?.map_items(|k| {
                Ok(KernelThroughput {
                    policy: k.get("policy")?.as_str()?.to_owned(),
                    events: k.get("events")?.as_u64()?,
                    kernel_eps: k.get("kernel_eps")?.as_f64()?,
                    engine_eps: k.get("engine_eps")?.as_f64()?,
                    ratio: k.get("ratio")?.as_f64()?,
                })
            })?,
            wall_ms: value.get("wall_ms")?.as_u64()?,
        })
    }

    /// Structural invariants any well-formed throughput artifact obeys.
    fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.floor_ratio <= 1.0 {
            problems.push(format!(
                "soak floor_ratio {} does not demand a speedup",
                self.floor_ratio
            ));
        }
        if self.table2_floor_ratio <= 0.0 {
            problems.push("table2_floor_ratio must be positive".to_owned());
        }
        if self.kernel_floor_ratio <= 0.0 {
            problems.push("kernel_floor_ratio must be positive".to_owned());
        }
        if self.kernel.is_empty() {
            problems.push("kernel: no policy measured".to_owned());
        }
        for k in &self.kernel {
            if k.events == 0 {
                problems.push(format!("kernel/{}: zero events", k.policy));
            }
        }
        if self.soak_tasks < 32 {
            problems.push(format!(
                "soak_tasks {} is too small for the baseline's O(n) scans to matter",
                self.soak_tasks
            ));
        }
        for (name, panel) in [("table2", &self.table2), ("soak", &self.soak)] {
            if panel.len() != PolicyKind::paper_six().len() {
                problems.push(format!(
                    "{name}: {} policies, expected all {}",
                    panel.len(),
                    PolicyKind::paper_six().len()
                ));
            }
            for p in panel {
                if p.events == 0 {
                    problems.push(format!("{name}/{}: zero events", p.policy));
                }
            }
            if !panel.iter().any(|p| p.floored) {
                problems.push(format!("{name}: no policy counts toward the floor"));
            }
        }
        problems
    }
}

/// The paper's Table 2 set with the Table 3 execution trace, the trace
/// pinning workload.
fn table2_cfg() -> (TaskSet, SimConfig) {
    let tasks = table2_task_set();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS))
        .with_exec(ExecModel::Trace(table3_actual_times()))
        .with_trace();
    (tasks, cfg)
}

/// Byte-identical-trace pinning on the Table 2 set: every policy's trace
/// segments, trace events, and full report must match the frozen
/// pre-refactor engine exactly.
///
/// # Errors
///
/// Returns the first policy whose engines disagree, with the field that
/// diverged.
pub fn pin_table2_traces() -> Result<(), String> {
    let machine = Machine::machine0();
    let (tasks, cfg) = table2_cfg();
    for kind in PolicyKind::paper_six() {
        let new = simulate(&tasks, &machine, kind, &cfg);
        let old = simulate_baseline(&tasks, &machine, kind, &cfg);
        let name = kind.name();
        if new.events != old.events {
            return Err(format!(
                "{name}: {} events vs baseline {}",
                new.events, old.events
            ));
        }
        if new.energy().to_bits() != old.energy().to_bits() {
            return Err(format!(
                "{name}: energy {} vs baseline {} (not bit-identical)",
                new.energy(),
                old.energy()
            ));
        }
        match (&new.trace, &old.trace) {
            (Some(a), Some(b)) => {
                if a.segments() != b.segments() {
                    return Err(format!("{name}: trace segments diverge from baseline"));
                }
                if a.events() != b.events() {
                    return Err(format!("{name}: trace events diverge from baseline"));
                }
            }
            _ => return Err(format!("{name}: one engine lost its trace")),
        }
        if format!("{new:?}") != format!("{old:?}") {
            return Err(format!("{name}: reports are not byte-identical"));
        }
    }
    Ok(())
}

/// Times one simulator repeatedly until `min_ms` of wall clock has
/// accumulated and returns `(events_per_run, best events/s)`. The
/// per-run timing is written into [`SimReport::sched_ns`] so the
/// events/s figure flows through [`SimReport::events_per_sec`].
fn measure<F: FnMut() -> SimReport>(mut run: F, min_ms: u64) -> (u64, f64) {
    let mut events = 0u64;
    let mut best = 0.0f64;
    let mut spent_ns = 0u128;
    let budget_ns = u128::from(min_ms) * 1_000_000;
    while spent_ns < budget_ns {
        let t0 = Instant::now();
        let mut report = run();
        let ns = t0.elapsed().as_nanos();
        spent_ns += ns;
        report.sched_ns = u64::try_from(ns).unwrap_or(u64::MAX).max(1);
        events = report.events;
        if let Some(eps) = report.events_per_sec() {
            best = best.max(eps);
        }
    }
    (events, best)
}

/// Policies whose soak cost is engine-dominated (the floor applies).
/// ccRM and laEDF spend most of every event inside their own O(n)
/// schedulability math, which both engines share.
fn is_floored(kind: PolicyKind) -> bool {
    !matches!(kind, PolicyKind::CcRm(_) | PolicyKind::LaEdf)
}

/// Measures one panel: both engines, every paper policy.
fn measure_panel(
    tasks: &TaskSet,
    machine: &Machine,
    cfg: &SimConfig,
    min_ms: u64,
    table2: bool,
) -> Vec<PolicyThroughput> {
    PolicyKind::paper_six()
        .into_iter()
        .map(|kind| {
            let (events, engine_eps) = measure(|| simulate(tasks, machine, kind, cfg), min_ms);
            let (base_events, baseline_eps) =
                measure(|| simulate_baseline(tasks, machine, kind, cfg), min_ms);
            debug_assert_eq!(events, base_events, "{}: engines disagree", kind.name());
            let ratio = if baseline_eps > 0.0 {
                engine_eps / baseline_eps
            } else {
                0.0
            };
            PolicyThroughput {
                policy: kind.name().to_owned(),
                events,
                // On the 3-task panel every policy is shared-cost
                // dominated; the regression floor applies to all six.
                floored: table2 || is_floored(kind),
                engine_eps,
                baseline_eps,
                ratio,
            }
        })
        .collect()
}

/// Measures the soak set in an [`RtKernel`] for every floored policy of
/// the `soak` panel: admission (untimed), then one timed `run_until` over
/// the horizon, repeated until `min_ms` of run time has accumulated; the
/// best events/s wins, as for the engines.
fn measure_kernel(
    tasks: &TaskSet,
    machine: &Machine,
    cfg: &ThroughputConfig,
    soak: &[PolicyThroughput],
) -> Vec<KernelThroughput> {
    PolicyKind::paper_six()
        .into_iter()
        .filter(|&kind| is_floored(kind))
        .map(|kind| {
            let mut events = 0u64;
            let mut best = 0.0f64;
            let mut spent_ns = 0u128;
            while spent_ns < u128::from(cfg.min_measure_ms) * 1_000_000 {
                let mut kernel = RtKernel::new(machine.clone(), kind);
                for (i, t) in tasks.tasks().iter().enumerate() {
                    kernel
                        .spawn(
                            t.period(),
                            t.wcet(),
                            Box::new(UniformBody::new(cfg.seed.wrapping_add(i as u64))),
                        )
                        .expect("the soak set passes every paper policy's admission test");
                }
                let t0 = Instant::now();
                kernel.run_until(cfg.soak_horizon);
                let ns = t0.elapsed().as_nanos().max(1);
                spent_ns += ns;
                events = kernel
                    .log()
                    .iter()
                    .filter(|(_, e)| {
                        matches!(
                            e,
                            KernelEvent::Released { .. } | KernelEvent::Completed { .. }
                        )
                    })
                    .count() as u64;
                best = best.max(events as f64 * 1e9 / ns as f64);
            }
            let engine_eps = soak
                .iter()
                .find(|p| p.policy == kind.name())
                .map_or(0.0, |p| p.engine_eps);
            KernelThroughput {
                policy: kind.name().to_owned(),
                events,
                kernel_eps: best,
                engine_eps,
                ratio: if engine_eps > 0.0 {
                    best / engine_eps
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Runs the full soak: trace pinning is the caller's job
/// ([`pin_table2_traces`]); this measures events/s on all three panels.
///
/// # Panics
///
/// Panics if the soak task set cannot be generated (invalid utilization
/// in the config).
#[must_use]
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputArtifact {
    let machine = Machine::machine0();
    let start = Instant::now();

    let table2_set = table2_task_set();
    let table2_sim = SimConfig::new(cfg.table2_horizon)
        .with_exec(ExecModel::uniform())
        .with_seed(cfg.seed);
    let table2 = measure_panel(&table2_set, &machine, &table2_sim, cfg.min_measure_ms, true);

    let spec = TaskGenSpec::new(cfg.soak_tasks, cfg.soak_util)
        .expect("soak utilization must be in (0, 1]");
    let soak_set = generate(&spec, cfg.seed).expect("soak task-set generation is total");
    let soak_sim = SimConfig::new(cfg.soak_horizon)
        .with_exec(ExecModel::uniform())
        .with_seed(cfg.seed);
    let soak = measure_panel(&soak_set, &machine, &soak_sim, cfg.min_measure_ms, false);
    let kernel = measure_kernel(&soak_set, &machine, cfg, &soak);

    ThroughputArtifact {
        seed: cfg.seed,
        soak_tasks: cfg.soak_tasks as u64,
        floor_ratio: cfg.floor_ratio,
        table2_floor_ratio: cfg.table2_floor_ratio,
        kernel_floor_ratio: cfg.kernel_floor_ratio,
        table2,
        soak,
        kernel,
        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

/// Applies the floors to a measured artifact: every floored soak policy
/// must reach `floor_ratio`, every floored Table 2 policy
/// `table2_floor_ratio`, every kernel row `kernel_floor_ratio`. Returns
/// the violations (empty = pass).
#[must_use]
pub fn floor_violations(fresh: &ThroughputArtifact) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, panel, floor) in [
        ("table2", &fresh.table2, fresh.table2_floor_ratio),
        ("soak", &fresh.soak, fresh.floor_ratio),
    ] {
        for p in panel.iter().filter(|p| p.floored) {
            if p.ratio < floor {
                problems.push(format!(
                    "{name}/{}: {:.2}x baseline is below the {floor}x floor \
                     ({:.0} vs {:.0} events/s)",
                    p.policy, p.ratio, p.engine_eps, p.baseline_eps
                ));
            }
        }
    }
    for k in &fresh.kernel {
        if k.ratio < fresh.kernel_floor_ratio {
            problems.push(format!(
                "kernel/{}: {:.2}x the engine is below the {}x floor \
                 ({:.0} vs {:.0} events/s)",
                k.policy, k.ratio, fresh.kernel_floor_ratio, k.kernel_eps, k.engine_eps
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ThroughputConfig {
        ThroughputConfig {
            seed: 7,
            table2_horizon: Time::from_ms(100.0),
            soak_tasks: 48,
            soak_util: 0.8,
            soak_horizon: Time::from_ms(200.0),
            min_measure_ms: 1,
            floor_ratio: 5.0,
            table2_floor_ratio: 0.5,
            kernel_floor_ratio: 0.4,
        }
    }

    #[test]
    fn table2_traces_pin_against_the_baseline() {
        pin_table2_traces().expect("the engines must agree byte for byte");
    }

    #[test]
    fn canonical_json_hides_measurements() {
        let art = run_throughput(&tiny_config());
        assert!(art.validate().is_empty(), "{:?}", art.validate());
        let canon = art.canonical_json();
        assert!(canon.contains("\"engine_eps\": 0,"));
        assert!(canon.contains("\"wall_ms\": 0"));
        // A second measurement of the same shape is canonically identical
        // even though its timings differ.
        let again = run_throughput(&tiny_config());
        assert_eq!(canon, again.canonical_json());
    }

    #[test]
    fn event_counts_are_deterministic_and_engine_independent() {
        let art = run_throughput(&tiny_config());
        for panel in [&art.table2, &art.soak] {
            for p in panel {
                assert!(p.events > 0, "{}: no events simulated", p.policy);
            }
        }
    }

    #[test]
    fn floor_violations_fire_on_slow_ratios() {
        let mut art = run_throughput(&tiny_config());
        for p in &mut art.soak {
            p.ratio = 0.1;
        }
        assert!(!floor_violations(&art).is_empty());
    }

    #[test]
    fn kernel_rows_cover_the_floored_policies_and_gate() {
        let mut art = run_throughput(&tiny_config());
        let names: Vec<&str> = art.kernel.iter().map(|k| k.policy.as_str()).collect();
        assert_eq!(names, ["EDF", "StaticRM", "StaticEDF", "ccEDF"]);
        assert!(art.kernel.iter().all(|k| k.events > 0));
        for p in &mut art.soak {
            p.ratio = f64::INFINITY;
        }
        for p in &mut art.table2 {
            p.ratio = f64::INFINITY;
        }
        for k in &mut art.kernel {
            k.ratio = 1.0;
        }
        assert!(floor_violations(&art).is_empty());
        art.kernel[0].ratio = 0.1;
        assert_eq!(floor_violations(&art).len(), 1);
    }
}
