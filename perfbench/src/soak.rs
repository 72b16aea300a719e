//! Inputs shared by the two soaks, and the checkpoint/restore cycle all
//! three workloads use.

use rtdvs_core::analysis::RmTest;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::TaskSet;
use rtdvs_core::time::Time;
use rtdvs_kernel::{RtKernel, Snapshot, UniformBody};
use rtdvs_sim::{ExecModel, SimConfig};
use rtdvs_taskgen::{generate, SplitMix64, TaskGenSpec, PERIOD_BANDS_MS};

use crate::report::{median, percentile, Outcome, Values};
use crate::trace::Tracer;

/// Task count of the soak set.
pub const SOAK_TASKS: usize = 128;
/// Total utilization of the soak set.
pub const SOAK_UTIL: f64 = 0.8;
/// Job releases in one soak run. The horizon is set per task set to
/// release this many jobs (8.0 s on the default seed), so the work and the
/// kernel's history per run do not depend on how many short periods a
/// seed happened to draw.
pub const SOAK_RELEASES: f64 = 109_000.0;
/// Extra sets the response-time percentiles pool over.
pub const RESPONSE_SETS: u64 = 16;
/// Job releases in each response-time set (about 1 s).
pub const RESPONSE_RELEASES: f64 = 13_600.0;

/// The soak set and everything derived from the seed.
pub struct SoakInput {
    /// 128 tasks from the paper's three period bands at U = 0.8.
    pub tasks: TaskSet,
    /// Engine configuration: the horizon that releases the target number
    /// of jobs, uniform actual computation.
    pub cfg: SimConfig,
    /// Seed of each task's kernel-side [`UniformBody`].
    pub body_seeds: Vec<u64>,
}

/// Generates the soak set for `seed`: [`generate`] once per paper period
/// band (43, 43 and 42 tasks, utilization split by count), so every seed
/// draws the same mix of short, medium and long periods and only the
/// values within a band vary. A draw the RM exact test rejects is redrawn
/// from the seed's next child stream, so every paper policy guarantees
/// the set and any deadline miss is a failure.
pub fn soak_input(seed: u64) -> SoakInput {
    soak_input_from(&SplitMix64::seed_from_u64(seed), seed, SOAK_RELEASES)
}

/// The sets the soaks' response-time percentiles pool over: one set is
/// too few for a stable tail, so [`RESPONSE_SETS`] more are drawn from the
/// seed and run under plain EDF for [`RESPONSE_RELEASES`] releases each.
pub fn response_inputs(seed: u64) -> Vec<SoakInput> {
    let root = SplitMix64::seed_from_u64(seed).split(0x5E7);
    (0..RESPONSE_SETS)
        .map(|k| {
            let child = root.split(k);
            soak_input_from(&child, child.state(), RESPONSE_RELEASES)
        })
        .collect()
}

fn soak_input_from(root: &SplitMix64, exec_seed: u64, releases: f64) -> SoakInput {
    let rm = PolicyKind::StaticRm(RmTest::default()).build();
    let mut attempt = 0u64;
    let tasks = loop {
        let set = stratified(&root.split(attempt));
        if rm.guarantees(&set) {
            break set;
        }
        attempt += 1;
    };
    let per_ms: f64 = tasks.tasks().iter().map(|t| 1.0 / t.period().as_ms()).sum();
    let cfg = SimConfig::new(Time::from_ms((releases / per_ms).round()))
        .with_exec(ExecModel::uniform())
        .with_seed(exec_seed);
    let bodies = root.split(0xB0D1);
    let body_seeds = (0..SOAK_TASKS as u64)
        .map(|i| bodies.split(i).next_u64())
        .collect();
    SoakInput {
        tasks,
        cfg,
        body_seeds,
    }
}

fn stratified(draw: &SplitMix64) -> TaskSet {
    let bands = PERIOD_BANDS_MS.len();
    let mut tasks = Vec::with_capacity(SOAK_TASKS);
    for (b, band) in PERIOD_BANDS_MS.iter().enumerate() {
        let n = SOAK_TASKS / bands + usize::from(b < SOAK_TASKS % bands);
        let spec = TaskGenSpec::new(n, SOAK_UTIL * n as f64 / SOAK_TASKS as f64)
            .and_then(|s| s.with_bands(&[*band]))
            .expect("a valid generator spec");
        let set = generate(&spec, draw.split(b as u64).next_u64())
            .expect("a one-band set at U <= 0.8 always generates");
        tasks.extend_from_slice(set.tasks());
    }
    TaskSet::new(tasks).expect("128 tasks")
}

/// A kernel running `kind` with every soak task admitted, each with its
/// seeded [`UniformBody`] passed through `wrap`.
pub fn soak_kernel(
    input: &SoakInput,
    kind: PolicyKind,
    mut wrap: impl FnMut(Box<dyn rtdvs_kernel::TaskBody>) -> Box<dyn rtdvs_kernel::TaskBody>,
) -> RtKernel {
    let mut k = RtKernel::new(Machine::machine0(), kind);
    for (task, &seed) in input.tasks.tasks().iter().zip(&input.body_seeds) {
        k.spawn(
            task.period(),
            task.wcet(),
            wrap(Box::new(UniformBody::new(seed))),
        )
        .expect("the soak set passes every paper policy's admission test");
    }
    k
}

/// Host times and size of one checkpoint/restore cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    /// `checkpoint()` nanoseconds.
    pub checkpoint_ns: f64,
    /// `Snapshot::from_text` nanoseconds.
    pub parse_ns: f64,
    /// `Snapshot::restore` nanoseconds.
    pub rebuild_ns: f64,
    /// `availability()` nanoseconds on the revived kernel.
    pub availability_ns: f64,
    /// Snapshot text length.
    pub bytes: f64,
}

impl Cycle {
    /// What a user waits for a restore: parse plus rebuild.
    pub fn restore_ns(&self) -> f64 {
        self.parse_ns + self.rebuild_ns
    }
}

/// Checkpoints `live`, revives it from the snapshot text and checks the
/// revived kernel: its availability must equal the live kernel's, and its
/// own checkpoint must be byte-identical to a second checkpoint of the
/// live kernel. Returns the revived kernel (callers continue on it) or
/// `None` after recording the failure in `out`.
pub fn checkpoint_cycle(
    live: &mut RtKernel,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<(RtKernel, Cycle)> {
    let pol = live.policy_name();
    let (snap, checkpoint_ns) = tr.time("snapshot", "checkpoint", pol, || live.checkpoint());
    let snap = match snap {
        Ok(s) => s,
        Err(e) => {
            out.check(Some(format!("checkpoint refused: {e}")));
            return None;
        }
    };
    let reference = live.checkpoint().map(|s| s.as_text().to_owned());
    let text = snap.as_text();
    let (parsed, parse_ns) = tr.time("snapshot", "from_text", pol, || Snapshot::from_text(text));
    let revived = parsed.and_then(|p| {
        let (r, rebuild_ns) = tr.time("snapshot", "restore", pol, || p.restore());
        r.map(|(k, _servers)| (k, rebuild_ns))
    });
    let (mut revived, rebuild_ns) = match revived {
        Ok(r) => r,
        Err(e) => {
            out.check(Some(format!("restore failed: {e}")));
            return None;
        }
    };
    let (avail, availability_ns) = tr.time("availability", "availability", pol, || {
        revived.availability()
    });
    let mut problem = None;
    if avail != live.availability() {
        problem = Some("revived kernel's availability differs from the live kernel's".to_owned());
    }
    let again = revived.checkpoint().map(|s| s.as_text().to_owned());
    match (&again, &reference) {
        (Ok(a), Ok(r)) if a == r => {}
        _ => problem = Some("revived kernel re-checkpoints to different text".to_owned()),
    }
    out.check(problem);
    let cycle = Cycle {
        checkpoint_ns,
        parse_ns,
        rebuild_ns,
        availability_ns,
        bytes: text.len() as f64,
    };
    Some((revived, cycle))
}

/// `checkpoint_ms.*` and `restore_ms.*` from a run's cycles.
pub fn insert_cycles(v: &mut Values, cycles: &[Cycle]) {
    let ck: Vec<f64> = cycles.iter().map(|c| c.checkpoint_ns / 1e6).collect();
    let rs: Vec<f64> = cycles.iter().map(|c| c.restore_ns() / 1e6).collect();
    v.insert("checkpoint_ms.p50".into(), percentile(&ck, 0.5));
    v.insert("checkpoint_ms.p90".into(), percentile(&ck, 0.9));
    v.insert("restore_ms.p50".into(), percentile(&rs, 0.5));
    v.insert("restore_ms.p90".into(), percentile(&rs, 0.9));
}

/// The snapshot and availability layers' metrics from a run's cycles;
/// `share` is the snapshot layer's part of the timed host time.
pub fn insert_snapshot_layer(v: &mut Values, cycles: &[Cycle], share: f64) {
    let bytes: Vec<f64> = cycles.iter().map(|c| c.bytes).collect();
    let col = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let encode: f64 = cycles.iter().map(|c| c.checkpoint_ns).sum();
    v.insert("snapshot.bytes.p50".into(), percentile(&bytes, 0.5));
    v.insert("snapshot.bytes.max".into(), percentile(&bytes, 1.0));
    v.insert(
        "snapshot.encode_ns_per_byte".into(),
        encode / bytes.iter().sum::<f64>(),
    );
    v.insert(
        "snapshot.parse_ms.p50".into(),
        median(&col(|c| c.parse_ns)) / 1e6,
    );
    v.insert(
        "snapshot.rebuild_ms.p50".into(),
        median(&col(|c| c.rebuild_ns)) / 1e6,
    );
    v.insert("snapshot.share".into(), share);
    v.insert("availability.calls".into(), cycles.len() as f64);
    v.insert(
        "availability.ms.p50".into(),
        median(&col(|c| c.availability_ns)) / 1e6,
    );
}
