//! `kernel-soak`: the soak set spawned into one `RtKernel` per paper
//! policy, each advanced in fixed simulated slices of `run_until`.
//!
//! The kernel makes the same policy callbacks as the engine does on
//! `engine-soak`, so the gap between the two workloads is the kernel's own
//! loop. Admission of 128 tasks (the RM exact test on every spawn) lands
//! in `setup_s`. After its horizon each kernel is checkpointed and
//! restored once: a snapshot that carries the whole event history.

use std::collections::HashMap;
use std::sync::Arc;

use rtdvs_audit::audit_kernel_log;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::time::Time;
use rtdvs_kernel::{KernelEvent, RtKernel};
use rtdvs_sim::simulate;

use crate::report::{energy_norm, median, percentile, policy_names, Outcome, Values};
use crate::soak::{
    checkpoint_cycle, insert_cycles, insert_snapshot_layer, response_inputs, soak_input,
    soak_kernel, Cycle,
};
use crate::trace::Tracer;
use crate::wrap::{BodyClock, TimedBody};
use crate::Pin;

/// `run_until` slices per kernel run.
const SLICES: u32 = 16;

/// State of one `kernel-soak` run.
pub struct KernelSoak {
    seed: u64,
    pins: Option<[Pin; 6]>,
    first: [Option<Pin>; 6],
    energies: [f64; 6],
    setup_ns: Vec<f64>,
    generate_ns: Vec<f64>,
    admit_ns: [Vec<f64>; 6],
    eps: [Vec<f64>; 6],
    requests_per_s: Vec<f64>,
    cycles: Vec<Cycle>,
    traced_cycles: Vec<Cycle>,
    traced_rounds: u64,
    audited: [bool; 6],
    audit_ns: f64,
    findings: u64,
    traced_run_ns: [f64; 6],
    traced_body_ns: [f64; 6],
    traced_events: [u64; 6],
    body_calls: u64,
    log_len: usize,
    timed_ns: f64,
    cycle_ns: f64,
}

/// Scheduling events in a slice of the kernel log: releases plus
/// completions, and the completions alone.
fn count_events(log: &[(Time, KernelEvent)]) -> (u64, u64) {
    let mut events = 0;
    let mut completions = 0;
    for (_, e) in log {
        match e {
            KernelEvent::Released { .. } => events += 1,
            KernelEvent::Completed { .. } => {
                events += 1;
                completions += 1;
            }
            _ => {}
        }
    }
    (events, completions)
}

/// Appends the simulated release-to-completion time of every completed
/// invocation in `log` to `out`.
fn job_responses(log: &[(Time, KernelEvent)], out: &mut Vec<f64>) {
    let mut released = HashMap::new();
    for &(t, ref e) in log {
        match *e {
            KernelEvent::Released { handle, invocation } => {
                released.insert((handle, invocation), t);
            }
            KernelEvent::Completed { handle, invocation } => {
                if let Some(r) = released.remove(&(handle, invocation)) {
                    out.push((t - r).as_ms());
                }
            }
            _ => {}
        }
    }
}

impl KernelSoak {
    /// A run on `seed`; `pins` are the expected per-policy results when
    /// the seed is the default one.
    pub fn new(seed: u64, pins: Option<[Pin; 6]>) -> KernelSoak {
        KernelSoak {
            seed,
            pins,
            first: [None; 6],
            energies: [0.0; 6],
            setup_ns: Vec::new(),
            generate_ns: Vec::new(),
            admit_ns: Default::default(),
            eps: Default::default(),
            requests_per_s: Vec::new(),
            cycles: Vec::new(),
            traced_cycles: Vec::new(),
            traced_rounds: 0,
            audited: [false; 6],
            audit_ns: 0.0,
            findings: 0,
            traced_run_ns: [0.0; 6],
            traced_body_ns: [0.0; 6],
            traced_events: [0; 6],
            body_calls: 0,
            log_len: 0,
            timed_ns: 0.0,
            cycle_ns: 0.0,
        }
    }

    /// One round: generate and admit six kernels, run each to the horizon,
    /// then checkpoint and restore it. Returns the host nanoseconds of the
    /// timed calls.
    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> f64 {
        let seed = self.seed;
        let (input, gen_ns) = tr.time("taskgen", "generate", "", || soak_input(seed));
        self.generate_ns.push(gen_ns);
        let mut setup_ns = gen_ns;
        let mut kernels = Vec::new();
        for (i, kind) in PolicyKind::paper_six().into_iter().enumerate() {
            let clock = Arc::new(BodyClock::default());
            let traced = tr.is_on();
            let (k, ns) = tr.time("kernel", "admit", kind.name(), || {
                soak_kernel(&input, kind, |b| {
                    if traced {
                        Box::new(TimedBody::new(b, Arc::clone(&clock)))
                    } else {
                        b
                    }
                })
            });
            self.admit_ns[i].push(ns);
            setup_ns += ns;
            kernels.push((k, clock));
        }
        self.setup_ns.push(setup_ns);

        let mut round_ns = 0.0;
        let mut run_ns = 0.0;
        let mut completions = 0u64;
        for (i, (mut k, clock)) in kernels.into_iter().enumerate() {
            let name = policy_names()[i];
            let mut events = 0u64;
            let mut ns_sum = 0.0;
            tr.open("kernel", "run", name);
            for s in 1..=SLICES {
                let t = input.cfg.duration * (f64::from(s) / f64::from(SLICES));
                let before = k.log().len();
                let ((), ns) = tr.time("kernel", "run_until", name, || k.run_until(t));
                let (ev, done) = count_events(&k.log()[before..]);
                if !tr.is_on() {
                    self.eps[i].push(ev as f64 * 1e9 / ns);
                }
                events += ev;
                completions += done;
                ns_sum += ns;
            }
            tr.close();
            run_ns += ns_sum;
            self.check(i, &k, events, out);
            if tr.is_on() {
                self.traced_run_ns[i] += ns_sum;
                self.traced_body_ns[i] += clock.busy_ns() as f64;
                tr.add("body", name, clock.calls(), clock.busy_ns());
                self.traced_events[i] = events;
                self.body_calls += clock.calls();
                self.log_len = self.log_len.max(k.log().len());
            }
            if !self.audited[i] {
                self.audited[i] = true;
                let (findings, ns) = tr.time("audit", "audit_kernel_log", name, || {
                    audit_kernel_log(k.log())
                });
                self.audit_ns += ns;
                self.findings += findings.len() as u64;
                out.check(
                    (!findings.is_empty())
                        .then(|| format!("{name}: {} audit findings", findings.len())),
                );
            }
            if let Some((_, c)) = checkpoint_cycle(&mut k, tr, out) {
                round_ns += c.checkpoint_ns + c.restore_ns();
                if tr.is_on() {
                    self.cycle_ns += c.checkpoint_ns + c.restore_ns() + c.availability_ns;
                    self.traced_cycles.push(c);
                } else {
                    self.cycles.push(c);
                }
            }
        }
        round_ns += run_ns;
        if tr.is_on() {
            self.traced_rounds += 1;
            self.timed_ns += round_ns;
        } else {
            self.requests_per_s.push(completions as f64 * 1e9 / run_ns);
        }
        round_ns
    }

    fn check(&mut self, i: usize, k: &RtKernel, events: u64, out: &mut Outcome) {
        let got = Pin {
            events,
            energy_bits: k.energy().to_bits(),
            switches: k.switches(),
        };
        let name = policy_names()[i];
        let misses = k.misses().count();
        let problem = if misses > 0 {
            Some(format!("{name}: {misses} deadline misses"))
        } else if let Some(pins) = &self.pins {
            (got != pins[i]).then(|| format!("{name}: {got:?} differs from pinned {:?}", pins[i]))
        } else {
            match self.first[i] {
                Some(first) if first != got => {
                    Some(format!("{name}: repetition {got:?} differs from {first:?}"))
                }
                _ => None,
            }
        };
        self.first[i].get_or_insert(got);
        self.energies[i] = k.energy();
        out.check(problem);
    }

    /// End-to-end metrics of the untraced rounds.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        v.insert("setup_s".into(), median(&self.setup_ns) / 1e9);
        for (i, p) in policy_names().into_iter().enumerate() {
            v.insert(format!("events_per_s.{p}"), median(&self.eps[i]));
        }
        v.insert("energy_norm".into(), energy_norm(&self.energies));
        v.insert("requests_per_s".into(), median(&self.requests_per_s));
        let mut responses = Vec::new();
        for input in response_inputs(self.seed) {
            let mut k = soak_kernel(&input, PolicyKind::PlainEdf, |b| b);
            k.run_until(input.cfg.duration);
            job_responses(k.log(), &mut responses);
        }
        v.insert("response_p50_ms".into(), percentile(&responses, 0.5));
        v.insert("response_p999_ms".into(), percentile(&responses, 0.999));
        insert_cycles(&mut v, &self.cycles);
        v
    }

    /// Per-layer metrics of the traced rounds. Runs the engine once per
    /// policy (untimed) for the kernel-versus-engine energy deviation.
    pub fn per_layer(&self) -> Values {
        let mut v = Values::new();
        v.insert(
            "taskgen.generate_ms".into(),
            median(&self.generate_ns) / 1e6,
        );
        let input = soak_input(self.seed);
        let machine = Machine::machine0();
        let mut max_dev = 0.0f64;
        let mut body_ns = 0.0;
        let mut run_ns = 0.0;
        for (i, kind) in PolicyKind::paper_six().into_iter().enumerate() {
            let p = kind.name();
            let engine = simulate(&input.tasks, &machine, kind, &input.cfg).energy();
            max_dev = max_dev.max((self.energies[i] - engine).abs() / engine);
            let runs = self.traced_rounds.max(1) as f64;
            let events = self.traced_events[i] as f64;
            v.insert(format!("kernel.events.{p}"), events);
            v.insert(
                format!("kernel.self_ns_per_event.{p}"),
                (self.traced_run_ns[i] - self.traced_body_ns[i]) / (events * runs),
            );
            v.insert(
                format!("kernel.admit_ms.{p}"),
                median(&self.admit_ns[i]) / 1e6,
            );
            body_ns += self.traced_body_ns[i];
            run_ns += self.traced_run_ns[i];
        }
        v.insert("kernel.log_len".into(), self.log_len as f64);
        v.insert("kernel.energy_vs_engine.max_dev".into(), max_dev);
        let rounds = self.traced_rounds.max(1) as f64;
        v.insert("body.calls".into(), self.body_calls as f64 / rounds);
        v.insert(
            "body.ns_per_call".into(),
            body_ns / self.body_calls.max(1) as f64,
        );
        v.insert("body.share".into(), body_ns / run_ns);
        insert_snapshot_layer(&mut v, &self.traced_cycles, self.cycle_ns / self.timed_ns);
        v.insert("audit.ms".into(), self.audit_ns / 1e6);
        v.insert("audit.findings".into(), self.findings as f64);
        v
    }
}
