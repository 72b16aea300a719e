//! `engine-soak`: the six paper policies through `rtdvs_sim::simulate_with`
//! on the 128-task soak set.
//!
//! The engine and policy layers do the timed work. A small probe outside
//! the `simulate_with` timing checkpoints and restores a freshly admitted
//! kernel holding the same set, which gives the workload its
//! `checkpoint_ms` / `restore_ms` figures: a state-only snapshot with no
//! history behind it.

use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_sim::trace::TraceEvent;
use rtdvs_sim::{simulate, simulate_with, SimReport};

use crate::report::{energy_norm, median, percentile, policy_names, Outcome, Values};
use crate::soak::{
    checkpoint_cycle, insert_cycles, insert_snapshot_layer, response_inputs, soak_input,
    soak_kernel, Cycle, SoakInput,
};
use crate::trace::Tracer;
use crate::wrap::TimedPolicy;
use crate::Pin;

/// Checkpoint/restore cycles of the admission-only probe kernel per round.
const PROBE_CYCLES: usize = 16;
/// Set-ups per round (`setup_s` is their median).
const SETUPS_PER_ROUND: usize = 5;
/// Host time each policy runs for per round, in whole runs (at least
/// one), so the fast policies are measured over as long as the slow ones.
const POLICY_NS: f64 = 500e6;

/// State of one `engine-soak` run.
pub struct EngineSoak {
    seed: u64,
    pins: Option<[Pin; 6]>,
    first: [Option<Pin>; 6],
    energies: [f64; 6],
    setup_ns: Vec<f64>,
    generate_ns: Vec<f64>,
    eps: [Vec<f64>; 6],
    requests_per_s: Vec<f64>,
    cycles: Vec<Cycle>,
    traced_cycles: Vec<Cycle>,
    traced_sim_ns: [f64; 6],
    traced_runs: [u64; 6],
    events: [u64; 6],
    timed_ns: f64,
    cycle_ns: f64,
}

impl EngineSoak {
    /// A run on `seed`; `pins` are the expected per-policy results when
    /// the seed is the default one.
    pub fn new(seed: u64, pins: Option<[Pin; 6]>) -> EngineSoak {
        EngineSoak {
            seed,
            pins,
            first: [None; 6],
            energies: [0.0; 6],
            setup_ns: Vec::new(),
            generate_ns: Vec::new(),
            eps: Default::default(),
            requests_per_s: Vec::new(),
            cycles: Vec::new(),
            traced_cycles: Vec::new(),
            traced_sim_ns: [0.0; 6],
            traced_runs: [0; 6],
            events: [0; 6],
            timed_ns: 0.0,
            cycle_ns: 0.0,
        }
    }

    /// One round: set up (several times; the last set-up is used), run
    /// every policy for at least [`POLICY_NS`], then the probe cycles.
    /// Returns the host nanoseconds of the timed calls.
    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> f64 {
        let machine = Machine::machine0();
        let seed = self.seed;
        let mut setup = None;
        for _ in 0..SETUPS_PER_ROUND {
            let (input, gen_ns) = tr.time("taskgen", "generate", "", || soak_input(seed));
            let (probe, admit_ns) = tr.time("kernel", "admit", "EDF", || {
                soak_kernel(&input, PolicyKind::PlainEdf, |b| b).checkpoint()
            });
            self.setup_ns.push(gen_ns + admit_ns);
            self.generate_ns.push(gen_ns);
            setup = Some((input, probe));
        }
        let (input, probe) = setup.expect("at least one set-up");
        let probe = probe.expect("an admitted soak kernel checkpoints");

        let mut round_ns = 0.0;
        let mut completions = 0u64;
        for (i, kind) in PolicyKind::paper_six().into_iter().enumerate() {
            let mut spent = 0.0;
            while spent < POLICY_NS {
                let (report, ns) = self.simulate(&input, &machine, kind, i, tr);
                spent += ns;
                completions += report.task_stats.iter().map(|s| s.completions).sum::<u64>();
                if !tr.is_on() {
                    self.eps[i].push(report.events as f64 * 1e9 / ns);
                }
                self.check(i, &report, out);
            }
            round_ns += spent;
        }
        if !tr.is_on() {
            self.requests_per_s
                .push(completions as f64 * 1e9 / round_ns);
        }
        for _ in 0..PROBE_CYCLES {
            let (mut live, _) = probe.restore().expect("the probe snapshot restores");
            if let Some((_, c)) = checkpoint_cycle(&mut live, tr, out) {
                round_ns += c.checkpoint_ns + c.restore_ns();
                if tr.is_on() {
                    self.cycle_ns += c.checkpoint_ns + c.restore_ns() + c.availability_ns;
                    self.traced_cycles.push(c);
                } else {
                    self.cycles.push(c);
                }
            }
        }
        if tr.is_on() {
            self.timed_ns += round_ns;
        }
        round_ns
    }

    fn simulate(
        &mut self,
        input: &SoakInput,
        machine: &Machine,
        kind: PolicyKind,
        i: usize,
        tr: &mut Tracer,
    ) -> (SimReport, f64) {
        let name = kind.name();
        let mut policy = kind.build();
        if !tr.is_on() {
            return tr.time("engine", "simulate_with", name, || {
                simulate_with(&input.tasks, machine, policy.as_mut(), &input.cfg)
            });
        }
        let mut timed = TimedPolicy::new(policy.as_mut());
        let (report, ns) = tr.time("engine", "simulate_with", name, || {
            simulate_with(&input.tasks, machine, &mut timed, &input.cfg)
        });
        tr.add("policy", name, timed.calls, timed.busy_ns);
        self.traced_sim_ns[i] += ns;
        self.traced_runs[i] += 1;
        (report, ns)
    }

    fn check(&mut self, i: usize, report: &SimReport, out: &mut Outcome) {
        let got = Pin::of_report(report);
        let name = policy_names()[i];
        let problem = if !report.misses.is_empty() {
            Some(format!("{name}: {} deadline misses", report.misses.len()))
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
        self.energies[i] = report.energy();
        self.events[i] = report.events;
        out.check(problem);
    }

    /// Release-to-completion times of every job of the response sets under
    /// plain EDF, read from the engine's trace (outside the timed rounds).
    fn responses(&self) -> Vec<f64> {
        let machine = Machine::machine0();
        let mut responses = Vec::new();
        for input in response_inputs(self.seed) {
            let cfg = input.cfg.clone().with_trace();
            let report = simulate(&input.tasks, &machine, PolicyKind::PlainEdf, &cfg);
            let mut released = vec![Vec::new(); input.tasks.len()];
            let mut next = vec![0usize; input.tasks.len()];
            for ev in report.trace.iter().flat_map(|t| t.events()) {
                match *ev {
                    TraceEvent::Release { time, task, .. } => released[task.0].push(time),
                    TraceEvent::Completion { time, task, .. } => {
                        responses.push((time - released[task.0][next[task.0]]).as_ms());
                        next[task.0] += 1;
                    }
                    _ => {}
                }
            }
        }
        responses
    }

    /// End-to-end metrics of the untraced rounds.
    pub fn end_to_end(&self) -> Values {
        let responses = self.responses();
        let mut v = Values::new();
        v.insert("setup_s".into(), median(&self.setup_ns) / 1e9);
        for (i, p) in policy_names().into_iter().enumerate() {
            v.insert(format!("events_per_s.{p}"), median(&self.eps[i]));
        }
        v.insert("energy_norm".into(), energy_norm(&self.energies));
        v.insert("requests_per_s".into(), median(&self.requests_per_s));
        v.insert("response_p50_ms".into(), percentile(&responses, 0.5));
        v.insert("response_p999_ms".into(), percentile(&responses, 0.999));
        insert_cycles(&mut v, &self.cycles);
        v
    }

    /// Per-layer metrics of the traced rounds.
    pub fn per_layer(&self, tr: &Tracer) -> Values {
        let mut v = Values::new();
        v.insert(
            "taskgen.generate_ms".into(),
            median(&self.generate_ns) / 1e6,
        );
        for (i, p) in policy_names().into_iter().enumerate() {
            let agg = tr.agg("policy", p);
            let runs = self.traced_runs[i].max(1) as f64;
            let sim_ns = self.traced_sim_ns[i];
            v.insert(format!("policy.calls.{p}"), agg.count as f64 / runs);
            v.insert(
                format!("policy.ns_per_call.{p}"),
                agg.busy_ns as f64 / agg.count.max(1) as f64,
            );
            v.insert(format!("policy.share.{p}"), agg.busy_ns as f64 / sim_ns);
            v.insert(format!("engine.events.{p}"), self.events[i] as f64);
            v.insert(
                format!("engine.self_ns_per_event.{p}"),
                (sim_ns - agg.busy_ns as f64) / (self.events[i] as f64 * runs),
            );
        }
        insert_snapshot_layer(&mut v, &self.traced_cycles, self.cycle_ns / self.timed_ns);
        v
    }
}
