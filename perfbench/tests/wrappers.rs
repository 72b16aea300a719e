//! The timing wrappers must not change what they wrap: a traced run has to
//! be the same program as the untraced one it is compared with.

use std::sync::Arc;

use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::TaskSet;
use rtdvs_core::time::Time;
use rtdvs_kernel::{RtKernel, TaskBody, UniformBody};
use rtdvs_perfbench::report::{end_to_end, per_layer};
use rtdvs_perfbench::wrap::{BodyClock, TimedBody, TimedPolicy};
use rtdvs_sim::{simulate_with, ExecModel, SimConfig};
use rtdvs_taskgen::{generate, TaskGenSpec};

/// 24 generated tasks over one simulated second: small enough for a
/// debug build, large enough to exercise every callback.
fn small_soak() -> (TaskSet, SimConfig, Vec<u64>) {
    let spec = TaskGenSpec::new(24, 0.7).expect("a valid generator spec");
    let tasks = generate(&spec, 3).expect("generates");
    let cfg = SimConfig::new(Time::from_ms(1_000.0))
        .with_exec(ExecModel::uniform())
        .with_seed(3);
    (tasks, cfg, (100..124).collect())
}

#[test]
fn timed_policy_leaves_every_report_byte_identical() {
    let (tasks, cfg, _) = small_soak();
    let machine = Machine::machine0();
    for kind in PolicyKind::paper_six() {
        let mut plain = kind.build();
        let bare = simulate_with(&tasks, &machine, plain.as_mut(), &cfg);
        let mut inner = kind.build();
        let mut timed = TimedPolicy::new(inner.as_mut());
        let wrapped = simulate_with(&tasks, &machine, &mut timed, &cfg);
        assert_eq!(
            format!("{bare:?}"),
            format!("{wrapped:?}"),
            "{}",
            kind.name()
        );
        assert!(timed.calls > 0, "{}: no callback was timed", kind.name());
    }
}

fn kernel(kind: PolicyKind, seeds: &[u64], clock: Option<&Arc<BodyClock>>) -> RtKernel {
    let (tasks, _, _) = small_soak();
    let mut k = RtKernel::new(Machine::machine0(), kind);
    for (task, &seed) in tasks.tasks().iter().zip(seeds) {
        let body: Box<dyn TaskBody> = Box::new(UniformBody::new(seed));
        let body = match clock {
            Some(c) => Box::new(TimedBody::new(body, Arc::clone(c))),
            None => body,
        };
        k.spawn(task.period(), task.wcet(), body).expect("admitted");
    }
    k
}

#[test]
fn timed_body_leaves_kernel_runs_and_checkpoints_byte_identical() {
    let (_, _, seeds) = small_soak();
    for kind in PolicyKind::paper_six() {
        let clock = Arc::new(BodyClock::default());
        let mut bare = kernel(kind, &seeds, None);
        let mut wrapped = kernel(kind, &seeds, Some(&clock));
        for t in [250.0, 500.0] {
            bare.run_until(Time::from_ms(t));
            wrapped.run_until(Time::from_ms(t));
        }
        assert_eq!(bare.log(), wrapped.log(), "{}", kind.name());
        assert!(clock.calls() > 0, "{}: no body call was timed", kind.name());
        let a = bare.checkpoint().expect("serializable bodies");
        let b = wrapped
            .checkpoint()
            .expect("wrapped bodies forward their state");
        assert_eq!(a.as_text(), b.as_text(), "{}", kind.name());
    }
}

/// The names in `BENCHMARK.json` are the names the binary prints.
#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, end_to_end().len() + per_layer().len());
}
