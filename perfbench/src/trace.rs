//! In-memory span recorder with a Chrome trace-event writer.
//!
//! Every call the benchmark makes into a layer is timed through
//! [`Tracer::time`] or [`Tracer::measure`], traced or not, so both kinds of
//! run take the same clock reads at the same places; both also run the
//! host-speed reference loop between calls. When tracing is on, the tracer also
//! keeps a span per call (layer, name, start, end, parent span) and
//! per-callback aggregates (count and busy time per layer and policy),
//! and [`Tracer::chrome_json`] renders them when the run ends as
//! trace-event JSON that opens offline in Perfetto or `chrome://tracing`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::calib::Reference;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    policy: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Count and busy time of one (layer, policy) callback stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls made.
    pub count: u64,
    /// Nanoseconds spent in them.
    pub busy_ns: u64,
}

/// Span recorder; a disabled tracer only measures.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggs: BTreeMap<(&'static str, &'static str), Agg>,
    reference: Reference,
}

impl Tracer {
    /// A tracer whose clock starts now; `on` decides whether spans are kept.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
            reference: Reference::default(),
        }
    }

    /// Whether spans and aggregates are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (runs alternate traced and untraced
    /// rounds on one tracer).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, policy: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            name,
            policy,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f`, returning its result and its duration in nanoseconds, and
    /// records a span for it under the innermost open span when tracing.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        policy: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.reference.tick();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.on {
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            self.spans.push(Span {
                layer,
                name,
                policy,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
            });
        }
        (r, t1.duration_since(t0).as_nanos() as f64)
    }

    /// Runs `f` like [`Tracer::time`], but for calls too frequent to keep
    /// a span each: when tracing, the call is added to the (layer, policy)
    /// aggregate instead.
    pub fn measure<R>(
        &mut self,
        layer: &'static str,
        policy: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.reference.tick();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.add(layer, policy, 1, ns as u64);
        (r, ns)
    }

    /// Adds `count` calls and `busy_ns` to the (layer, policy) aggregate.
    pub fn add(&mut self, layer: &'static str, policy: &'static str, count: u64, busy_ns: u64) {
        if !self.on {
            return;
        }
        let a = self.aggs.entry((layer, policy)).or_default();
        a.count += count;
        a.busy_ns += busy_ns;
    }

    /// The (layer, policy) aggregate so far.
    pub fn agg(&self, layer: &'static str, policy: &'static str) -> Agg {
        self.aggs.get(&(layer, policy)).copied().unwrap_or_default()
    }

    /// How much slower than nominal the host ran, from the reference loops
    /// run between timed calls (see [`crate::calib`]).
    pub fn slowdown(&self) -> f64 {
        self.reference.slowdown()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Renders every span as a complete (`"ph": "X"`) trace event, one
    /// thread per layer, and the aggregates under `otherData`.
    pub fn chrome_json(&self) -> String {
        let mut tids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            let next = tids.len() + 1;
            tids.entry(s.layer).or_insert(next);
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut first = true;
        for (layer, tid) in &tids {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{layer}\"}}}}"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            sep(&mut out, &mut first);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"policy\": \"{}\"}}}}",
                tids[s.layer],
                s.layer,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.policy,
            );
        }
        out.push_str("\n], \"otherData\": {\"aggregates\": [");
        let mut first = true;
        for ((layer, policy), a) in &self.aggs {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"layer\": \"{layer}\", \"policy\": \"{policy}\", \"count\": {}, \
                 \"busy_ns\": {}}}",
                a.count, a.busy_ns
            );
        }
        out.push_str("]}}\n");
        out
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}
