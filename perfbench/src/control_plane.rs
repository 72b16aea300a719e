//! `control-plane`: the relaxed Table 2 set beside one multi-tenant
//! server, fed by an open loop in simulated time, while the operator
//! admits and retires a task, hot-swaps through the six paper policies and
//! checkpoints every 250 ms, continuing each time on the restored kernel.
//!
//! About five tasks run, so policy and ready-queue costs are negligible:
//! the time goes to tenant lanes, event-log growth, snapshot encode and
//! decode, and availability replay. Every episode is the same simulated
//! run, so episodes must agree bit-for-bit.

use rtdvs_audit::{audit_kernel_log, audit_tenant_isolation, TenantStanding};
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::tenant::{TenantId, TenantQuota};
use rtdvs_core::time::{Time, Work};
use rtdvs_kernel::{
    KernelEvent, ModeChange, RtKernel, SubmitOutcome, TaskHandle, TenantServer, UniformBody,
};
use rtdvs_taskgen::{OpenLoopGen, OpenLoopSpec, Request, SplitMix64};

use crate::report::{energy_norm, median, percentile, policy_names, Outcome, Values};
use crate::soak::{checkpoint_cycle, insert_cycles, insert_snapshot_layer, Cycle};
use crate::trace::Tracer;

/// The hard-RT periodic set: Table 2 with doubled periods (U ≈ 0.37).
const RELAXED_TABLE2: [(f64, f64); 3] = [(16.0, 3.0), (20.0, 3.0), (28.0, 1.0)];
/// Simulated length of one episode.
const EPISODE_MS: f64 = 30_000.0;
/// Server period; the loop advances one period per step.
const STEP_MS: f64 = 10.0;
/// Server budget per period.
const SERVER_BUDGET_MS: f64 = 2.9;
/// A checkpoint/restore cycle every this many steps (250 ms).
const CHECKPOINT_STEPS: u64 = 25;
/// An admit or retire mode change every this many steps (1 s), at
/// [`MODE_OFFSET`] steps into the second so it never stages across a
/// checkpoint instant.
const MODE_STEPS: u64 = 100;
const MODE_OFFSET: u64 = 13;
/// A policy hot-swap every this many steps (2.5 s), offset likewise.
const SWAP_STEPS: u64 = 250;
const SWAP_OFFSET: u64 = 125;
/// The task the mode changes admit and retire: (period, WCET) in ms.
const CHURN_TASK: (f64, f64) = (40.0, 2.0);
/// Setups per episode (they are cheap; `setup_s` is their median).
const SETUPS_PER_EPISODE: usize = 100;

/// One tenant: quota (ms per period), backlog bound, mean interarrival
/// gap (ms) and diurnal depth. Five compliant tenants offer about 64 % of
/// their quota; the last floods at 10x its quota.
const TENANTS: [(f64, usize, f64, f64); 6] = [
    (0.56, 256, 1.4, 0.05),
    (0.56, 256, 1.4, 0.05),
    (0.56, 256, 1.4, 0.05),
    (0.56, 256, 1.4, 0.05),
    (0.56, 256, 1.4, 0.05),
    (0.1, 24, 0.5, 0.3),
];
const FLOODER: usize = 5;

/// A freshly set-up episode: kernel, server handle and generators.
struct Setup {
    kernel: RtKernel,
    server: TenantServer,
    gens: Vec<OpenLoopGen>,
    churn_seed: u64,
}

fn setup(seed: u64) -> Setup {
    let root = SplitMix64::seed_from_u64(seed);
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
    for (i, &(period, wcet)) in RELAXED_TABLE2.iter().enumerate() {
        kernel
            .spawn(
                Time::from_ms(period),
                Work::from_ms(wcet),
                Box::new(UniformBody::new(root.split(i as u64).next_u64())),
            )
            .expect("the relaxed Table 2 set is admitted");
    }
    let quotas: Vec<TenantQuota> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &(quota, backlog, _, _))| {
            TenantQuota::new(tenant(i), Work::from_ms(quota), backlog)
        })
        .collect();
    let (_, server) = kernel
        .spawn_tenant_server(
            Time::from_ms(STEP_MS),
            Work::from_ms(SERVER_BUDGET_MS),
            &quotas,
        )
        .expect("the quotas fit the budget and the server is admitted");
    let gens = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &(_, _, gap, depth))| {
            let spec = OpenLoopSpec {
                mean_interarrival_ms: gap,
                interarrival_cap: 40.0,
                mean_work_ms: 0.05,
                work_jitter: 0.5,
                diurnal_period_ms: 60_000.0,
                diurnal_depth: depth,
            };
            OpenLoopGen::new(spec, seed, 0x7E_0300 + i as u64).expect("a well-formed spec")
        })
        .collect();
    Setup {
        kernel,
        server,
        gens,
        churn_seed: root.split(0xC4_0001).next_u64(),
    }
}

fn tenant(i: usize) -> TenantId {
    TenantId::from_raw(i as u64 + 1)
}

/// The simulated outcome of one episode; every episode must repeat it.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    served: u64,
    latencies_bits: u64,
    energy_bits: u64,
    log_len: usize,
    epoch: u64,
    cycles: usize,
}

/// Per-episode counters of the traced run.
#[derive(Debug, Default)]
struct Layers {
    generated: u64,
    openloop_ns: f64,
    submits: u64,
    accepted: u64,
    submit_ns: f64,
    shed: u64,
    rejected: u64,
    take_calls: u64,
    take_ns: f64,
    refused: u64,
    commits: u64,
    swaps: u64,
    mode_ns: Vec<f64>,
    load_ns: Vec<f64>,
    kernel_events: [u64; 6],
    kernel_ns: [f64; 6],
    log_len: usize,
    admit_ns: f64,
    audit_ns: f64,
    findings: u64,
}

/// State of one `control-plane` run.
pub struct ControlPlane {
    seed: u64,
    first: Option<Digest>,
    setup_ns: Vec<f64>,
    eps: [Vec<f64>; 6],
    energies: [f64; 6],
    requests_per_s: Vec<f64>,
    latencies: Vec<f64>,
    cycles: Vec<Cycle>,
    traced_cycles: Vec<Cycle>,
    cycle_ns: f64,
    loop_ns: f64,
    layers: Layers,
}

impl ControlPlane {
    /// A run on `seed`.
    pub fn new(seed: u64) -> ControlPlane {
        ControlPlane {
            seed,
            first: None,
            setup_ns: Vec::new(),
            eps: Default::default(),
            energies: [0.0; 6],
            requests_per_s: Vec::new(),
            latencies: Vec::new(),
            cycles: Vec::new(),
            traced_cycles: Vec::new(),
            cycle_ns: 0.0,
            loop_ns: 0.0,
            layers: Layers::default(),
        }
    }

    /// One episode. Returns the host nanoseconds of its timed calls.
    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> f64 {
        let seed = self.seed;
        let mut s = None;
        let mut setup_ns = Vec::new();
        for _ in 0..SETUPS_PER_EPISODE {
            let (built, ns) = tr.time("kernel", "setup", "EDF", || setup(seed));
            setup_ns.push(ns);
            s = Some(built);
        }
        let Setup {
            mut kernel,
            mut server,
            mut gens,
            churn_seed,
        } = s.expect("at least one setup");

        let traced = tr.is_on();
        let mut l = Layers {
            admit_ns: median(&setup_ns),
            ..Layers::default()
        };
        self.setup_ns.extend(setup_ns);
        let mut policy = 0usize;
        let mut policy_since = (Time::ZERO, 0.0f64);
        let mut energy = [0.0f64; 6];
        let mut sim_ms = [0.0f64; 6];
        let mut churn: Option<TaskHandle> = None;
        let mut churn_rng = SplitMix64::seed_from_u64(churn_seed);
        let mut offered_work = [0.0f64; 6];
        let mut latencies = Vec::new();
        let mut served = 0u64;
        let mut compliant_lost = 0u64;
        let mut offered = 0u64;
        let mut cycles = Vec::new();
        let mut batch: Vec<Request> = Vec::new();

        tr.open("bench", "episode", "");
        let mut loop_ns = 0.0;
        let steps = (EPISODE_MS / STEP_MS) as u64;
        for b in 1..=steps {
            let t = Time::from_ms(STEP_MS * b as f64);
            for (i, gen) in gens.iter_mut().enumerate() {
                batch.clear();
                let ((), ns) = tr.measure("taskgen", "drain_until", || {
                    gen.drain_until(t.as_ms(), &mut batch)
                });
                l.openloop_ns += ns;
                loop_ns += ns;
                l.generated += batch.len() as u64;
                let ((accepted, shed, rejected), ns) = tr.measure("tenants", "submit", || {
                    let (mut a, mut s, mut r) = (0u64, 0u64, 0u64);
                    for req in &batch {
                        match server.submit(
                            tenant(i),
                            Work::from_ms(req.work_ms),
                            Time::from_ms(req.at_ms),
                        ) {
                            SubmitOutcome::Accepted { shed_oldest, .. } => {
                                a += 1;
                                s += u64::from(shed_oldest.is_some());
                            }
                            _ => r += 1,
                        }
                    }
                    (a, s, r)
                });
                for req in &batch {
                    offered_work[i] += req.work_ms;
                }
                offered += batch.len() as u64;
                l.submit_ns += ns;
                loop_ns += ns;
                l.submits += batch.len() as u64;
                l.accepted += accepted;
                l.shed += shed;
                l.rejected += rejected;
                if i != FLOODER {
                    compliant_lost += shed + rejected;
                }
            }

            let before = kernel.log().len();
            let name = policy_names()[policy];
            let ((), ns) = tr.measure("kernel", name, || kernel.run_until(t));
            let ev = kernel.log()[before..]
                .iter()
                .filter(|(_, e)| {
                    matches!(
                        e,
                        KernelEvent::Released { .. } | KernelEvent::Completed { .. }
                    )
                })
                .count() as u64;
            l.kernel_events[policy] += ev;
            l.kernel_ns[policy] += ns;
            loop_ns += ns;

            for i in 0..TENANTS.len() {
                let (done, ns) = tr.measure("tenants", "take_completed", || {
                    server.take_completed(tenant(i))
                });
                l.take_ns += ns;
                loop_ns += ns;
                l.take_calls += 1;
                served += done.len() as u64;
                if i != FLOODER {
                    latencies.extend(done.iter().map(|j| (j.completed - j.arrival).as_ms()));
                }
            }

            if b % CHECKPOINT_STEPS == 0 && !kernel.pending_mode_change() {
                tr.open("snapshot", "cycle", name);
                let cycle = checkpoint_cycle(&mut kernel, tr, out);
                tr.close();
                if let Some((revived, c)) = cycle {
                    kernel = revived;
                    server = kernel.tenant_servers()[0].1.clone();
                    loop_ns += c.checkpoint_ns + c.restore_ns() + c.availability_ns;
                    cycles.push(c);
                }
            }
            if b % MODE_STEPS == MODE_OFFSET {
                let change = match churn {
                    Some(h) => ModeChange::new().retire(h),
                    None => ModeChange::new().admit(
                        Time::from_ms(CHURN_TASK.0),
                        Work::from_ms(CHURN_TASK.1),
                        Box::new(UniformBody::new(churn_rng.next_u64())),
                    ),
                };
                let (receipt, ns) = tr.time("modechange", "submit_mode_change", name, || {
                    kernel.submit_mode_change(change)
                });
                l.mode_ns.push(ns);
                loop_ns += ns;
                match receipt {
                    Ok(r) => {
                        churn = if churn.is_some() {
                            None
                        } else {
                            r.admitted.first().copied()
                        }
                    }
                    Err(_) => l.refused += 1,
                }
            }
            if b % SWAP_STEPS == SWAP_OFFSET {
                let (since, e0) = policy_since;
                energy[policy] += kernel.energy() - e0;
                sim_ms[policy] += (t - since).as_ms();
                policy = (policy + 1) % 6;
                let next = PolicyKind::paper_six()[policy];
                let ((), ns) = tr.time("kernel", "load_policy", next.name(), || {
                    kernel.load_policy(next)
                });
                l.load_ns.push(ns);
                loop_ns += ns;
                l.swaps += 1;
                policy_since = (t, kernel.energy());
            }
        }
        tr.close();
        let (since, e0) = policy_since;
        energy[policy] += kernel.energy() - e0;
        sim_ms[policy] += (Time::from_ms(EPISODE_MS) - since).as_ms();

        // Checks, outside the timed loop.
        out.check_many(
            offered,
            compliant_lost,
            "compliant request shed or rejected",
        );
        let misses = kernel.misses().count();
        out.check((misses > 0).then(|| format!("{misses} periodic deadline misses")));
        if cycles.len() < 100 {
            out.fail(format!("only {} checkpoints in an episode", cycles.len()));
        }
        let lanes = server.lane_stats();
        let standings: Vec<TenantStanding> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| TenantStanding {
                tenant: i as u64 + 1,
                over_quota: offered_work[i] > lane.quota.as_ms() * (EPISODE_MS / STEP_MS),
                shed: lane.shed,
                rejected: lane.rejected,
            })
            .collect();
        let (findings, audit_ns) = tr.time("audit", "audit_kernel_log", "", || {
            audit_kernel_log(kernel.log()).len()
                + audit_tenant_isolation(&standings, kernel.log()).len()
        });
        out.check((findings > 0).then(|| format!("{findings} audit findings")));
        let digest = Digest {
            served,
            latencies_bits: latencies
                .iter()
                .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits()),
            energy_bits: kernel.energy().to_bits(),
            log_len: kernel.log().len(),
            epoch: kernel.mode_epoch(),
            cycles: cycles.len(),
        };
        match &self.first {
            Some(first) => out.check(
                (first != &digest).then(|| format!("episode {digest:?} differs from {first:?}")),
            ),
            None => {
                self.first = Some(digest);
                self.latencies = latencies;
                for p in 0..6 {
                    self.energies[p] = energy[p] / sim_ms[p];
                }
            }
        }

        if traced {
            self.loop_ns += loop_ns;
            self.cycle_ns += cycles
                .iter()
                .map(|c| c.checkpoint_ns + c.restore_ns() + c.availability_ns)
                .sum::<f64>();
            self.traced_cycles.extend(cycles);
            l.commits = kernel.mode_epoch();
            l.log_len = kernel.log().len();
            l.audit_ns = audit_ns;
            l.findings = findings as u64;
            self.layers = l;
        } else {
            self.requests_per_s.push(served as f64 * 1e9 / loop_ns);
            for p in 0..6 {
                self.eps[p].push(l.kernel_events[p] as f64 * 1e9 / l.kernel_ns[p]);
            }
            self.cycles.extend(cycles);
        }
        loop_ns
    }

    /// End-to-end metrics of the untraced episodes.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        v.insert("setup_s".into(), median(&self.setup_ns) / 1e9);
        for (i, p) in policy_names().into_iter().enumerate() {
            v.insert(format!("events_per_s.{p}"), median(&self.eps[i]));
        }
        v.insert("energy_norm".into(), energy_norm(&self.energies));
        v.insert("requests_per_s".into(), median(&self.requests_per_s));
        v.insert("response_p50_ms".into(), percentile(&self.latencies, 0.5));
        v.insert(
            "response_p999_ms".into(),
            percentile(&self.latencies, 0.999),
        );
        insert_cycles(&mut v, &self.cycles);
        v
    }

    /// Per-layer metrics of the last traced episode.
    pub fn per_layer(&self) -> Values {
        let l = &self.layers;
        let mut v = Values::new();
        v.insert(
            "taskgen.openloop_ns_per_request".into(),
            l.openloop_ns / l.generated.max(1) as f64,
        );
        for (i, p) in policy_names().into_iter().enumerate() {
            v.insert(format!("kernel.events.{p}"), l.kernel_events[i] as f64);
            v.insert(
                format!("kernel.self_ns_per_event.{p}"),
                l.kernel_ns[i] / l.kernel_events[i].max(1) as f64,
            );
        }
        v.insert("kernel.admit_ms.EDF".into(), l.admit_ns / 1e6);
        v.insert("kernel.log_len".into(), l.log_len as f64);
        v.insert("tenants.submits".into(), l.submits as f64);
        v.insert(
            "tenants.submit_ns".into(),
            l.submit_ns / l.submits.max(1) as f64,
        );
        v.insert(
            "tenants.accepted_share".into(),
            l.accepted as f64 / l.submits.max(1) as f64,
        );
        v.insert("tenants.shed".into(), l.shed as f64);
        v.insert("tenants.rejected".into(), l.rejected as f64);
        v.insert(
            "tenants.take_completed_ns".into(),
            l.take_ns / l.take_calls.max(1) as f64,
        );
        v.insert("modechange.commits".into(), l.commits as f64);
        v.insert("modechange.refused".into(), l.refused as f64);
        v.insert("modechange.submit_ms.p50".into(), median(&l.mode_ns) / 1e6);
        v.insert("kernel.policy_swaps".into(), l.swaps as f64);
        v.insert("kernel.load_policy_us.p50".into(), median(&l.load_ns) / 1e3);
        insert_snapshot_layer(&mut v, &self.traced_cycles, self.cycle_ns / self.loop_ns);
        v.insert("audit.ms".into(), l.audit_ns / 1e6);
        v.insert("audit.findings".into(), l.findings as f64);
        v
    }
}
