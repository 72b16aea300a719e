//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of rounds and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric for
//! `--trace 0`, every per-layer metric for `--trace 1`. A traced run also
//! writes its spans to `.bench_trace/<workload>-seed<n>.json`.

use std::process::ExitCode;
use std::time::Instant;

use rtdvs_perfbench::control_plane::ControlPlane;
use rtdvs_perfbench::engine_soak::EngineSoak;
use rtdvs_perfbench::kernel_soak::KernelSoak;
use rtdvs_perfbench::report::{
    end_to_end, median, per_layer, result_line, to_nominal_speed, Outcome, Values,
};
use rtdvs_perfbench::trace::Tracer;
use rtdvs_perfbench::{DEFAULT_SEED, ENGINE_PINS, KERNEL_PINS};

const USAGE: &str = "usage: perfbench --workload <engine-soak|kernel-soak|control-plane> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Runs rounds until `seconds` have passed and at least [`MIN_ROUNDS`]
/// ran. A traced run alternates untraced and traced rounds (at least two
/// of each) and returns the tracing overhead: median traced round time
/// over median untraced (the first, cold round left out), minus 1.
fn drive(
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Tracer, &mut Outcome) -> f64,
) -> f64 {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min_rounds = if trace { 4 } else { MIN_ROUNDS };
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let on = trace && n % 2 == 1;
        tr.set_on(on);
        tr.open("bench", "round", "");
        let ns = round(tr, out);
        tr.close();
        if on {
            traced.push(ns);
        } else {
            plain.push(ns);
        }
        n += 1;
    }
    tr.set_on(trace);
    median(&traced) / median(&plain[1.min(plain.len())..]) - 1.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default_seed = args.seed == DEFAULT_SEED;
    let mut tr = Tracer::new(false);
    let mut out = Outcome::default();
    let (s, t) = (args.seconds, args.trace);
    let (mut values, overhead): (Values, f64) = match args.workload.as_str() {
        "engine-soak" => {
            let mut w = EngineSoak::new(args.seed, ENGINE_PINS.filter(|_| default_seed));
            let o = drive(s, t, &mut tr, &mut out, |tr, out| w.round(tr, out));
            (if t { w.per_layer(&tr) } else { w.end_to_end() }, o)
        }
        "kernel-soak" => {
            let mut w = KernelSoak::new(args.seed, KERNEL_PINS.filter(|_| default_seed));
            let o = drive(s, t, &mut tr, &mut out, |tr, out| w.round(tr, out));
            (if t { w.per_layer() } else { w.end_to_end() }, o)
        }
        "control-plane" => {
            let mut w = ControlPlane::new(args.seed);
            let o = drive(s, t, &mut tr, &mut out, |tr, out| w.round(tr, out));
            (if t { w.per_layer() } else { w.end_to_end() }, o)
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mb) = peak_rss_mb() {
        values.insert("peak_rss_mb".into(), mb);
    }
    if t {
        values.insert("trace.overhead".into(), overhead);
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, tr.chrome_json()));
        match written {
            Ok(()) => eprintln!("perfbench: {} spans written to {path}", tr.span_count()),
            Err(e) => out.fail(format!("writing {path}: {e}")),
        }
    }
    for note in out.notes() {
        eprintln!("perfbench: FAILED {note}");
    }
    let catalogue = if t { per_layer() } else { end_to_end() };
    eprintln!("perfbench: host ran at {:.3}x nominal time", tr.slowdown());
    to_nominal_speed(&catalogue, &mut values, tr.slowdown());
    println!("{}", result_line(&catalogue, &values, !t, &mut out));
    ExitCode::SUCCESS
}
