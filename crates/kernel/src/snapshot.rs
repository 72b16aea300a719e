//! Checkpoint / crash-recovery snapshots of the full kernel state.
//!
//! A [`Snapshot`] is a versioned (`rtdvs-snapshot/v1`), line-oriented text
//! serialization of everything the kernel needs to resume mid-run: the
//! virtual clock, mode epoch, machine, loaded policy kind, energy meter,
//! every task entry (including the demand-generator state of its body —
//! down to the PRNG word of a [`crate::body::UniformBody`] and the full
//! job queue of a polling server), the shed list, and the complete event
//! log. All floating-point values are written as the hex of their IEEE-754
//! bits, so a round trip is bit-exact, and the final line carries an
//! FNV-1a checksum of everything above it: a torn or tampered snapshot is
//! detected at load, never silently restored.
//!
//! What is *not* serialized is the policy module's internal state (a
//! `dyn DvsPolicy` is opaque). Restore rebuilds the policy from its
//! [`PolicyKind`] and conservatively re-seeds it exactly like a live
//! policy swap does, so the restored run keeps every deadline guarantee —
//! it may briefly make different (never unsafe) frequency choices than the
//! uninterrupted run until the policy's own state converges. Stateless
//! policies resume bit-identically.
//!
//! Capture is refused — cleanly, with no partial output — when the kernel
//! holds a body that cannot be serialized (a closure) or has a staged
//! mode-change transaction in flight (the transaction owns un-run bodies;
//! checkpoint either before submission or after the safe point).

use std::fmt;

use rtdvs_core::analysis::RmTest;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::sched::SchedulerKind;
use rtdvs_core::task::Task;
use rtdvs_core::time::{Time, Work};
use rtdvs_core::view::InvState;
use rtdvs_sim::{EnergyMeter, SwitchOverhead, Trace};

use crate::body::{
    BodyState, ColdStartBody, FractionBody, OverrunBody, TaskBody, UniformBody, WcetBody,
};
use crate::kernel::{Entry, KernelEvent, RtKernel, ShedTask, TaskHandle};
use crate::server::{AperiodicServer, CompletedJob, JobId, JobRecord, ServerSnapshot};
use crate::tenants::{TenantLaneSnapshot, TenantServer};

/// The format tag on a snapshot's first line.
pub const SNAPSHOT_VERSION: &str = "rtdvs-snapshot/v1";

/// Why a checkpoint could not be taken or a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A task's body cannot be serialized (e.g. a closure body); the
    /// handle names the offender.
    OpaqueBody(TaskHandle),
    /// A mode-change transaction is staged; its un-run bodies cannot be
    /// captured. Checkpoint before submitting or after the safe point.
    PendingModeChange,
    /// The text is not a complete, well-formed snapshot.
    Corrupt(String),
    /// The trailing checksum does not match the content — the snapshot
    /// was torn mid-write or altered.
    ChecksumMismatch,
    /// The first line names a version this build cannot read.
    UnsupportedVersion(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::OpaqueBody(h) => {
                write!(f, "task {h} has a body that cannot be serialized")
            }
            SnapshotError::PendingModeChange => write!(
                f,
                "a mode-change transaction is staged; checkpoint after its safe point"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (torn or altered)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A validated, self-checksummed kernel checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    text: String,
}

impl Snapshot {
    /// The snapshot's serialized form (what you would write to stable
    /// storage).
    #[must_use]
    pub fn as_text(&self) -> &str {
        &self.text
    }

    /// Parses and checksum-validates serialized snapshot text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a foreign format,
    /// [`SnapshotError::ChecksumMismatch`] for torn or altered text, and
    /// [`SnapshotError::Corrupt`] for structural damage.
    pub fn from_text(text: &str) -> Result<Snapshot, SnapshotError> {
        let snap = Snapshot {
            text: text.to_string(),
        };
        snap.validate()?;
        Ok(snap)
    }

    fn validate(&self) -> Result<(), SnapshotError> {
        let Some(first) = self.text.lines().next() else {
            return Err(SnapshotError::Corrupt("empty text".into()));
        };
        if first != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(first.to_string()));
        }
        let Some(idx) = self.text.rfind("\nchecksum ") else {
            return Err(SnapshotError::Corrupt("missing checksum line".into()));
        };
        let body = &self.text[..idx + 1];
        let line = self.text[idx + 1..].trim_end();
        let claimed = line
            .strip_prefix("checksum ")
            .ok_or_else(|| SnapshotError::Corrupt("malformed checksum line".into()))?;
        if claimed != format!("{:016x}", fnv1a64(body.as_bytes())) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(())
    }

    /// Revives the kernel this snapshot captured, plus a fresh
    /// [`AperiodicServer`] handle for every polling-server task in it (the
    /// pre-crash handles are gone with the crashed process).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] a structurally damaged snapshot produces;
    /// validation errors surface before any state is built.
    pub fn restore(&self) -> Result<(RtKernel, Vec<(TaskHandle, AperiodicServer)>), SnapshotError> {
        self.validate()?;
        restore_from_text(&self.text)
    }
}

impl RtKernel {
    /// Takes a checkpoint of the complete kernel state.
    ///
    /// On success the kernel notes the checkpoint in its own history — a
    /// [`KernelEvent::SnapshotTaken`] entry and the `last_snapshot` procfs
    /// field — *before* serializing, so the snapshot itself records where
    /// it was taken and audit replay of a restored run can see the stitch
    /// point. A refused checkpoint leaves the kernel untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::OpaqueBody`] if any task body is not serializable,
    /// [`SnapshotError::PendingModeChange`] while a transaction is staged.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SnapshotError> {
        if self.pending_change.is_some() {
            return Err(SnapshotError::PendingModeChange);
        }
        // Capture every body up front so failure cannot mutate anything and
        // serialization below never has to re-ask a body for its state.
        let mut entry_bodies = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            match e.body.snapshot_state() {
                Some(state) => entry_bodies.push(state),
                None => return Err(SnapshotError::OpaqueBody(e.handle)),
            }
        }
        let mut shed_bodies = Vec::with_capacity(self.shed.len());
        for s in &self.shed {
            match s.body.snapshot_state() {
                Some(state) => shed_bodies.push(state),
                None => return Err(SnapshotError::OpaqueBody(s.handle)),
            }
        }
        self.last_snapshot_at = Some(self.now);
        self.log.push((self.now, KernelEvent::SnapshotTaken));
        let mut out = String::new();
        write_kernel(&mut out, self, &entry_bodies, &shed_bodies);
        out.push_str(&format!("checksum {:016x}\n", fnv1a64(out.as_bytes())));
        Ok(Snapshot { text: out })
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn write_kernel(
    out: &mut String,
    k: &RtKernel,
    entry_bodies: &[BodyState],
    shed_bodies: &[BodyState],
) {
    use std::fmt::Write;
    let w = out;
    let _ = writeln!(w, "{SNAPSHOT_VERSION}");
    let _ = writeln!(w, "clock {}", hex(k.now.as_ms()));
    let _ = writeln!(w, "epoch {}", k.mode_epoch);
    let _ = writeln!(w, "next-handle {}", k.next_handle);
    let _ = writeln!(w, "switches {}", k.switches);
    let _ = writeln!(w, "stall-until {}", hex(k.stall_until.as_ms()));
    match k.applied {
        Some(p) => {
            let _ = writeln!(w, "applied {p}");
        }
        None => {
            let _ = writeln!(w, "applied none");
        }
    }
    let _ = writeln!(
        w,
        "flags {} {} {} {}",
        u8::from(k.account_switch_overhead),
        u8::from(k.defer_new_tasks),
        u8::from(k.degrade_on_fault),
        u8::from(k.trace.is_some()),
    );
    match k.switch_overhead {
        Some(ov) => {
            let _ = writeln!(
                w,
                "overhead {} {}",
                hex(ov.freq_only.as_ms()),
                hex(ov.voltage_change.as_ms())
            );
        }
        None => {
            let _ = writeln!(w, "overhead none");
        }
    }
    match k.last_snapshot_at {
        Some(t) => {
            let _ = writeln!(w, "last-snapshot {}", hex(t.as_ms()));
        }
        None => {
            let _ = writeln!(w, "last-snapshot none");
        }
    }
    match k.brownout_cap {
        Some(c) => {
            let _ = writeln!(w, "cap {c}");
        }
        None => {
            let _ = writeln!(w, "cap none");
        }
    }
    let _ = writeln!(
        w,
        "ladder {} {} {} {}",
        k.ladder_pos,
        hex(k.ladder_review_at.as_ms()),
        k.fallbacks_at_review,
        policy_token(k.preferred_policy),
    );
    let _ = writeln!(
        w,
        "regulator-stats {} {} {} {}",
        k.transition_retries, k.transition_failures, k.regulator_fallbacks, k.forced_transitions,
    );
    // Time-base stanza: written only when something was observed, so a
    // kernel that never saw a clock fault serializes exactly as before
    // (and old snapshots restore to the default time base).
    if !k.timebase.is_default_state() {
        let tb = &k.timebase;
        let _ = writeln!(
            w,
            "timebase {} {} {} {} {} {} {}",
            hex(tb.ewma_err_ms),
            tb.clamped_jumps,
            hex(tb.last_clamp.as_ms()),
            tb.max_catch_up,
            tb.pending_gap,
            u8::from(tb.pending_catch_up),
            u8::from(tb.watchdog),
        );
    }
    let _ = write!(w, "machine {}", k.machine.len());
    for p in k.machine.points() {
        let _ = write!(w, " {} {}", hex(p.freq), hex(p.volts));
    }
    let _ = writeln!(w, " {}", k.machine.name());
    let _ = writeln!(w, "policy {}", policy_token(k.policy_kind));
    let meter = &k.meter;
    let _ = writeln!(
        w,
        "meter {} {} {} {} {}",
        hex(meter.idle_level()),
        hex(meter.busy_energy()),
        hex(meter.idle_energy()),
        hex(meter.stall_time().as_ms()),
        meter.busy_time().len(),
    );
    for i in 0..meter.busy_time().len() {
        let _ = writeln!(
            w,
            "meter-point {} {} {}",
            hex(meter.busy_time()[i].as_ms()),
            hex(meter.idle_time()[i].as_ms()),
            hex(meter.work_done()[i].as_ms()),
        );
    }
    let _ = writeln!(w, "entries {}", k.entries.len());
    for (e, body) in k.entries.iter().zip(entry_bodies) {
        let _ = writeln!(
            w,
            "entry {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            e.handle.raw(),
            hex(e.user_spec.period().as_ms()),
            hex(e.user_spec.wcet().as_ms()),
            hex(e.nominal_period.as_ms()),
            e.invocation,
            state_token(e.state),
            hex(e.executed.as_ms()),
            hex(e.actual.as_ms()),
            hex(e.deadline.as_ms()),
            hex(e.next_release.as_ms()),
            u8::from(e.deferred),
            u8::from(e.overrun_logged),
            hex(e.observed_peak.as_ms()),
            u8::from(e.pending_shed),
            body_tokens(body),
        );
    }
    let _ = writeln!(w, "shed-tasks {}", k.shed.len());
    for (s, body) in k.shed.iter().zip(shed_bodies) {
        let _ = writeln!(
            w,
            "shed {} {} {} {} {} {} {}",
            s.handle.raw(),
            hex(s.period.as_ms()),
            hex(s.wcet.as_ms()),
            hex(s.observed_peak.as_ms()),
            s.invocation,
            hex(s.next_attempt.as_ms()),
            body_tokens(body),
        );
    }
    let _ = writeln!(w, "log {}", k.log.len());
    for (t, ev) in &k.log {
        let _ = writeln!(w, "ev {} {}", hex(t.as_ms()), event_tokens(ev));
    }
}

fn policy_token(kind: PolicyKind) -> String {
    match kind {
        PolicyKind::PlainEdf => "edf".into(),
        PolicyKind::PlainRm => "rm".into(),
        PolicyKind::StaticEdf => "static-edf".into(),
        PolicyKind::StaticRm(t) => format!("static-rm:{}", rm_test_token(t)),
        PolicyKind::CcEdf => "cc-edf".into(),
        PolicyKind::CcRm(t) => format!("cc-rm:{}", rm_test_token(t)),
        PolicyKind::LaEdf => "la-edf".into(),
        PolicyKind::StochasticEdf { confidence } => format!("stoch-edf:{}", hex(confidence)),
        PolicyKind::Interval => "interval".into(),
        PolicyKind::Manual { scheduler, point } => format!(
            "manual:{}:{point}",
            match scheduler {
                SchedulerKind::Edf => "edf",
                SchedulerKind::Rm => "rm",
            }
        ),
    }
}

fn rm_test_token(t: RmTest) -> &'static str {
    match t {
        RmTest::LiuLayland => "ll",
        RmTest::SchedulingPoints => "sp",
        RmTest::ResponseTime => "rt",
    }
}

fn state_token(s: InvState) -> &'static str {
    match s {
        InvState::Inactive => "inactive",
        InvState::Active => "active",
        InvState::Completed => "completed",
    }
}

fn body_tokens(b: &BodyState) -> String {
    match b {
        BodyState::Wcet => "wcet".into(),
        BodyState::Fraction(f) => format!("fraction {}", hex(*f)),
        BodyState::Uniform { rng_state } => format!("uniform {rng_state:016x}"),
        BodyState::Overrun {
            base_state,
            fault_state,
            rate,
            factor,
            from,
            until,
        } => format!(
            "overrun {base_state:016x} {fault_state:016x} {} {} {from} {until}",
            hex(*rate),
            hex(*factor)
        ),
        BodyState::ColdStart { surcharge, inner } => {
            format!("coldstart {} {}", hex(*surcharge), body_tokens(inner))
        }
        BodyState::Server(s) => {
            let job = |r: &JobRecord| {
                format!(
                    " {} {} {} {}",
                    r.id,
                    hex(r.arrival.as_ms()),
                    hex(r.total.as_ms()),
                    hex(r.remaining.as_ms())
                )
            };
            let completed = |c: &CompletedJob| {
                format!(
                    " {} {} {} {}",
                    c.id.raw(),
                    hex(c.arrival.as_ms()),
                    hex(c.completed.as_ms()),
                    hex(c.work.as_ms())
                )
            };
            if s.tenants.is_empty() {
                // Classic single-stream server: the v1 token stream is
                // unchanged, so old snapshots stay loadable byte-for-byte.
                let mut out = format!(
                    "server {} {} {} {}",
                    s.next_id,
                    hex(s.served.as_ms()),
                    s.forfeited_releases,
                    s.queue.len(),
                );
                for r in &s.queue {
                    out.push_str(&job(r));
                }
                out.push_str(&format!(" {}", s.finishing.len()));
                for r in &s.finishing {
                    out.push_str(&job(r));
                }
                out.push_str(&format!(" {}", s.completed.len()));
                for c in &s.completed {
                    out.push_str(&completed(c));
                }
                out
            } else {
                // Multi-tenant server: shared counters, then one lane
                // record per tenant.
                let mut out = format!(
                    "tserver {} {} {} {}",
                    s.next_id,
                    hex(s.served.as_ms()),
                    s.forfeited_releases,
                    s.tenants.len(),
                );
                for l in &s.tenants {
                    out.push_str(&format!(
                        " {} {} {} {} {} {} {} {} {} {}",
                        l.tenant,
                        hex(l.quota.as_ms()),
                        l.max_backlog,
                        hex(l.budget_remaining.as_ms()),
                        u8::from(l.quarantined),
                        l.over_streak,
                        l.shed,
                        l.rejected,
                        l.served_jobs,
                        hex(l.served_work.as_ms()),
                    ));
                    out.push_str(&format!(" {}", l.queue.len()));
                    for r in &l.queue {
                        out.push_str(&job(r));
                    }
                    out.push_str(&format!(" {}", l.finishing.len()));
                    for r in &l.finishing {
                        out.push_str(&job(r));
                    }
                    out.push_str(&format!(" {}", l.completed.len()));
                    for c in &l.completed {
                        out.push_str(&completed(c));
                    }
                }
                out
            }
        }
    }
}

fn event_tokens(ev: &KernelEvent) -> String {
    match ev {
        KernelEvent::Admitted { handle, deferred } => {
            format!("admitted {} {}", handle.raw(), u8::from(*deferred))
        }
        KernelEvent::Removed { handle } => format!("removed {}", handle.raw()),
        KernelEvent::Released { handle, invocation } => {
            format!("released {} {invocation}", handle.raw())
        }
        KernelEvent::Completed { handle, invocation } => {
            format!("completed {} {invocation}", handle.raw())
        }
        KernelEvent::DeadlineMiss {
            handle,
            invocation,
            remaining,
        } => format!(
            "miss {} {invocation} {}",
            handle.raw(),
            hex(remaining.as_ms())
        ),
        KernelEvent::Overrun {
            handle,
            invocation,
            used,
            bound,
        } => format!(
            "overrun {} {invocation} {} {}",
            handle.raw(),
            hex(used.as_ms()),
            hex(bound.as_ms())
        ),
        KernelEvent::PolicyLoaded { name } => format!("policy {name}"),
        KernelEvent::Shed { handle, observed } => {
            format!("shed {} {}", handle.raw(), hex(observed.as_ms()))
        }
        KernelEvent::Readmitted { handle, bound } => {
            format!("readmitted {} {}", handle.raw(), hex(bound.as_ms()))
        }
        KernelEvent::Degraded { active } => format!("degraded {}", u8::from(*active)),
        KernelEvent::ModeChangeStaged { ops } => format!("mc-staged {ops}"),
        KernelEvent::ModeChangeCommitted { epoch } => format!("mc-committed {epoch}"),
        KernelEvent::ModeChangeRejected { utilization } => {
            format!("mc-rejected {}", hex(*utilization))
        }
        KernelEvent::GovernorStretched { stretched, factor } => {
            format!("gov-stretched {stretched} {}", hex(*factor))
        }
        KernelEvent::GovernorRelaxed => "gov-relaxed".into(),
        KernelEvent::Renegotiated { handle, bound } => {
            format!("renegotiated {} {}", handle.raw(), hex(bound.as_ms()))
        }
        KernelEvent::SnapshotTaken => "snapshot".into(),
        KernelEvent::RegulatorFallback { desired, applied } => {
            format!("reg-fallback {desired} {applied}")
        }
        KernelEvent::BrownoutCapSet { cap } => match cap {
            Some(c) => format!("cap {c}"),
            None => "cap none".into(),
        },
        KernelEvent::LadderStepped { from, to } => format!("ladder {from} {to}"),
        KernelEvent::SupervisorRestored => "sup-restored".into(),
        KernelEvent::ClockTickGap { missed } => format!("clock-gap {missed}"),
        KernelEvent::ClockJumpClamped { attempted } => {
            format!("clock-jump {}", hex(attempted.as_ms()))
        }
        KernelEvent::ClockWatchdog { engaged } => {
            format!("clock-watchdog {}", u8::from(*engaged))
        }
        KernelEvent::ReleaseLate {
            handle,
            invocation,
            latency,
        } => format!(
            "release-late {} {invocation} {}",
            handle.raw(),
            hex(latency.as_ms())
        ),
    }
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

/// Space-separated token cursor over one line.
struct Toks<'a> {
    it: std::str::SplitWhitespace<'a>,
    line: &'a str,
}

impl<'a> Toks<'a> {
    fn new(line: &'a str) -> Toks<'a> {
        Toks {
            it: line.split_whitespace(),
            line,
        }
    }

    fn word(&mut self) -> Result<&'a str, SnapshotError> {
        self.it
            .next()
            .ok_or_else(|| corrupt(format!("truncated line {:?}", self.line)))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let t = self.word()?;
        t.parse().map_err(|_| corrupt(format!("bad integer {t:?}")))
    }

    fn usize_(&mut self) -> Result<usize, SnapshotError> {
        let t = self.word()?;
        t.parse().map_err(|_| corrupt(format!("bad integer {t:?}")))
    }

    fn bits(&mut self) -> Result<u64, SnapshotError> {
        let t = self.word()?;
        u64::from_str_radix(t, 16).map_err(|_| corrupt(format!("bad hex {t:?}")))
    }

    fn f64_(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.bits()?))
    }

    fn time(&mut self) -> Result<Time, SnapshotError> {
        Ok(Time::from_ms(self.f64_()?))
    }

    fn work(&mut self) -> Result<Work, SnapshotError> {
        Ok(Work::from_ms(self.f64_()?))
    }

    fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(corrupt(format!("bad flag {t:?}"))),
        }
    }

    fn rest(&mut self) -> String {
        self.it.by_ref().collect::<Vec<_>>().join(" ")
    }

    fn done(&mut self) -> Result<(), SnapshotError> {
        match self.it.next() {
            None => Ok(()),
            Some(t) => Err(corrupt(format!("trailing token {t:?}"))),
        }
    }
}

/// Line cursor that enforces each line's expected tag. A one-line
/// push-back buffer supports optional stanzas: peeking a line that turns
/// out to carry a different tag leaves it in place for the next read.
struct LineReader<'a> {
    it: std::str::Lines<'a>,
    pending: Option<&'a str>,
}

impl<'a> LineReader<'a> {
    fn next_line(&mut self) -> Option<&'a str> {
        self.pending.take().or_else(|| self.it.next())
    }

    fn tagged(&mut self, tag: &str) -> Result<Toks<'a>, SnapshotError> {
        let line = self
            .next_line()
            .ok_or_else(|| corrupt(format!("missing {tag:?} line")))?;
        let mut toks = Toks::new(line);
        let got = toks.word()?;
        if got != tag {
            return Err(corrupt(format!("expected {tag:?} line, found {got:?}")));
        }
        Ok(toks)
    }

    /// Like [`LineReader::tagged`], but a line with a different tag (or
    /// end of input) is not an error: it stays queued and `None` comes
    /// back. Used for stanzas that older snapshots simply don't carry.
    fn optional_tagged(&mut self, tag: &str) -> Option<Toks<'a>> {
        let line = self.next_line()?;
        let mut toks = Toks::new(line);
        if toks.word().ok() == Some(tag) {
            return Some(toks);
        }
        self.pending = Some(line);
        None
    }
}

fn parse_policy_token(tok: &str) -> Result<PolicyKind, SnapshotError> {
    let rm_test = |t: &str| -> Result<RmTest, SnapshotError> {
        match t {
            "ll" => Ok(RmTest::LiuLayland),
            "sp" => Ok(RmTest::SchedulingPoints),
            "rt" => Ok(RmTest::ResponseTime),
            _ => Err(corrupt(format!("bad RM test {t:?}"))),
        }
    };
    match tok {
        "edf" => Ok(PolicyKind::PlainEdf),
        "rm" => Ok(PolicyKind::PlainRm),
        "static-edf" => Ok(PolicyKind::StaticEdf),
        "cc-edf" => Ok(PolicyKind::CcEdf),
        "la-edf" => Ok(PolicyKind::LaEdf),
        "interval" => Ok(PolicyKind::Interval),
        _ => {
            if let Some(t) = tok.strip_prefix("static-rm:") {
                Ok(PolicyKind::StaticRm(rm_test(t)?))
            } else if let Some(t) = tok.strip_prefix("cc-rm:") {
                Ok(PolicyKind::CcRm(rm_test(t)?))
            } else if let Some(c) = tok.strip_prefix("stoch-edf:") {
                let bits = u64::from_str_radix(c, 16)
                    .map_err(|_| corrupt(format!("bad confidence {c:?}")))?;
                Ok(PolicyKind::StochasticEdf {
                    confidence: f64::from_bits(bits),
                })
            } else if let Some(rest) = tok.strip_prefix("manual:") {
                let (sched, point) = rest
                    .split_once(':')
                    .ok_or_else(|| corrupt(format!("bad manual policy {tok:?}")))?;
                let scheduler = match sched {
                    "edf" => SchedulerKind::Edf,
                    "rm" => SchedulerKind::Rm,
                    _ => return Err(corrupt(format!("bad scheduler {sched:?}"))),
                };
                let point = point
                    .parse()
                    .map_err(|_| corrupt(format!("bad point {point:?}")))?;
                Ok(PolicyKind::Manual { scheduler, point })
            } else {
                Err(corrupt(format!("unknown policy token {tok:?}")))
            }
        }
    }
}

fn parse_state_token(tok: &str) -> Result<InvState, SnapshotError> {
    match tok {
        "inactive" => Ok(InvState::Inactive),
        "active" => Ok(InvState::Active),
        "completed" => Ok(InvState::Completed),
        _ => Err(corrupt(format!("bad invocation state {tok:?}"))),
    }
}

fn parse_body_state(toks: &mut Toks<'_>) -> Result<BodyState, SnapshotError> {
    match toks.word()? {
        "wcet" => Ok(BodyState::Wcet),
        "fraction" => Ok(BodyState::Fraction(toks.f64_()?)),
        "uniform" => Ok(BodyState::Uniform {
            rng_state: toks.bits()?,
        }),
        "overrun" => Ok(BodyState::Overrun {
            base_state: toks.bits()?,
            fault_state: toks.bits()?,
            rate: toks.f64_()?,
            factor: toks.f64_()?,
            from: toks.u64()?,
            until: toks.u64()?,
        }),
        "coldstart" => {
            let surcharge = toks.f64_()?;
            let inner = parse_body_state(toks)?;
            Ok(BodyState::ColdStart {
                surcharge,
                inner: Box::new(inner),
            })
        }
        "server" => {
            let next_id = toks.u64()?;
            let served = toks.work()?;
            let forfeited_releases = toks.u64()?;
            let queue = parse_jobs(toks)?;
            let finishing = parse_jobs(toks)?;
            let completed = parse_completed(toks)?;
            Ok(BodyState::Server(ServerSnapshot {
                queue,
                finishing,
                completed,
                next_id,
                served,
                forfeited_releases,
                tenants: Vec::new(),
            }))
        }
        "tserver" => {
            let next_id = toks.u64()?;
            let served = toks.work()?;
            let forfeited_releases = toks.u64()?;
            let n_lanes = toks.usize_()?;
            let tenants = (0..n_lanes)
                .map(|_| {
                    Ok(TenantLaneSnapshot {
                        tenant: toks.u64()?,
                        quota: toks.work()?,
                        max_backlog: toks.usize_()?,
                        budget_remaining: toks.work()?,
                        quarantined: toks.flag()?,
                        over_streak: u32::try_from(toks.u64()?)
                            .map_err(|_| corrupt("over_streak out of range"))?,
                        shed: toks.u64()?,
                        rejected: toks.u64()?,
                        served_jobs: toks.u64()?,
                        served_work: toks.work()?,
                        queue: parse_jobs(toks)?,
                        finishing: parse_jobs(toks)?,
                        completed: parse_completed(toks)?,
                    })
                })
                .collect::<Result<Vec<_>, SnapshotError>>()?;
            Ok(BodyState::Server(ServerSnapshot {
                queue: Vec::new(),
                finishing: Vec::new(),
                completed: Vec::new(),
                next_id,
                served,
                forfeited_releases,
                tenants,
            }))
        }
        t => Err(corrupt(format!("unknown body state {t:?}"))),
    }
}

fn parse_jobs(toks: &mut Toks<'_>) -> Result<Vec<JobRecord>, SnapshotError> {
    let n = toks.usize_()?;
    (0..n)
        .map(|_| {
            Ok(JobRecord {
                id: toks.u64()?,
                arrival: toks.time()?,
                total: toks.work()?,
                remaining: toks.work()?,
            })
        })
        .collect()
}

fn parse_completed(toks: &mut Toks<'_>) -> Result<Vec<CompletedJob>, SnapshotError> {
    let n = toks.usize_()?;
    (0..n)
        .map(|_| {
            Ok(CompletedJob {
                id: JobId::from_raw(toks.u64()?),
                arrival: toks.time()?,
                completed: toks.time()?,
                work: toks.work()?,
            })
        })
        .collect()
}

/// Adapter so a [`ColdStartBody`] can wrap an already-boxed revived body.
struct DynBody(Box<dyn TaskBody>);

impl TaskBody for DynBody {
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        self.0.run(invocation, spec)
    }

    fn on_invocation_complete(&mut self, invocation: u64, now: Time) {
        self.0.on_invocation_complete(invocation, now);
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        self.0.snapshot_state()
    }
}

/// A server queue revived alongside its body during restore.
enum RevivedServer {
    /// The classic single-stream polling server.
    Classic(AperiodicServer),
    /// A multi-tenant server (routed into `RtKernel::tenant_servers`).
    Tenant(TenantServer),
}

/// Revives a body from its captured state, also returning the fresh queue
/// handle when the body is a polling server.
fn rebuild_body(state: &BodyState) -> (Box<dyn TaskBody>, Option<RevivedServer>) {
    match state {
        BodyState::Wcet => (Box::new(WcetBody), None),
        BodyState::Fraction(f) => (Box::new(FractionBody(*f)), None),
        BodyState::Uniform { rng_state } => (Box::new(UniformBody::from_state(*rng_state)), None),
        BodyState::Overrun {
            base_state,
            fault_state,
            rate,
            factor,
            from,
            until,
        } => (
            Box::new(OverrunBody::from_state(
                *base_state,
                *fault_state,
                *rate,
                *factor,
                *from,
                *until,
            )),
            None,
        ),
        BodyState::ColdStart { surcharge, inner } => {
            let (inner, server) = rebuild_body(inner);
            (
                Box::new(ColdStartBody::new(DynBody(inner), *surcharge)),
                server,
            )
        }
        BodyState::Server(snap) => {
            if snap.tenants.is_empty() {
                let server = AperiodicServer::from_snapshot(snap);
                (server.body(), Some(RevivedServer::Classic(server)))
            } else {
                let server = TenantServer::from_snapshot(snap);
                (server.body(), Some(RevivedServer::Tenant(server)))
            }
        }
    }
}

/// Maps a serialized policy name back to the `'static` string the live
/// policies report. The set is closed, so an unknown name means
/// corruption.
fn intern_policy_name(name: &str) -> Result<&'static str, SnapshotError> {
    const KNOWN: [&str; 10] = [
        "EDF",
        "RM",
        "StaticEDF",
        "StaticRM",
        "ccEDF",
        "ccRM",
        "laEDF",
        "stochEDF",
        "interval",
        "manual",
    ];
    KNOWN
        .iter()
        .find(|k| **k == name)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown policy name {name:?}")))
}

fn parse_event(toks: &mut Toks<'_>) -> Result<KernelEvent, SnapshotError> {
    let handle = |toks: &mut Toks<'_>| -> Result<TaskHandle, SnapshotError> {
        Ok(TaskHandle::from_raw(toks.u64()?))
    };
    match toks.word()? {
        "admitted" => Ok(KernelEvent::Admitted {
            handle: handle(toks)?,
            deferred: toks.flag()?,
        }),
        "removed" => Ok(KernelEvent::Removed {
            handle: handle(toks)?,
        }),
        "released" => Ok(KernelEvent::Released {
            handle: handle(toks)?,
            invocation: toks.u64()?,
        }),
        "completed" => Ok(KernelEvent::Completed {
            handle: handle(toks)?,
            invocation: toks.u64()?,
        }),
        "miss" => Ok(KernelEvent::DeadlineMiss {
            handle: handle(toks)?,
            invocation: toks.u64()?,
            remaining: toks.work()?,
        }),
        "overrun" => Ok(KernelEvent::Overrun {
            handle: handle(toks)?,
            invocation: toks.u64()?,
            used: toks.work()?,
            bound: toks.work()?,
        }),
        "policy" => Ok(KernelEvent::PolicyLoaded {
            name: intern_policy_name(toks.word()?)?,
        }),
        "shed" => Ok(KernelEvent::Shed {
            handle: handle(toks)?,
            observed: toks.work()?,
        }),
        "readmitted" => Ok(KernelEvent::Readmitted {
            handle: handle(toks)?,
            bound: toks.work()?,
        }),
        "degraded" => Ok(KernelEvent::Degraded {
            active: toks.flag()?,
        }),
        "mc-staged" => Ok(KernelEvent::ModeChangeStaged {
            ops: toks.usize_()?,
        }),
        "mc-committed" => Ok(KernelEvent::ModeChangeCommitted { epoch: toks.u64()? }),
        "mc-rejected" => Ok(KernelEvent::ModeChangeRejected {
            utilization: toks.f64_()?,
        }),
        "gov-stretched" => Ok(KernelEvent::GovernorStretched {
            stretched: toks.usize_()?,
            factor: toks.f64_()?,
        }),
        "gov-relaxed" => Ok(KernelEvent::GovernorRelaxed),
        "renegotiated" => Ok(KernelEvent::Renegotiated {
            handle: handle(toks)?,
            bound: toks.work()?,
        }),
        "snapshot" => Ok(KernelEvent::SnapshotTaken),
        "reg-fallback" => Ok(KernelEvent::RegulatorFallback {
            desired: toks.usize_()?,
            applied: toks.usize_()?,
        }),
        "cap" => Ok(KernelEvent::BrownoutCapSet {
            cap: match toks.word()? {
                "none" => None,
                tok => Some(
                    tok.parse::<usize>()
                        .map_err(|_| corrupt(format!("bad point index {tok:?}")))?,
                ),
            },
        }),
        "ladder" => Ok(KernelEvent::LadderStepped {
            from: intern_policy_name(toks.word()?)?,
            to: intern_policy_name(toks.word()?)?,
        }),
        "sup-restored" => Ok(KernelEvent::SupervisorRestored),
        "clock-gap" => Ok(KernelEvent::ClockTickGap {
            missed: toks.u64()?,
        }),
        "clock-jump" => Ok(KernelEvent::ClockJumpClamped {
            attempted: toks.time()?,
        }),
        "clock-watchdog" => Ok(KernelEvent::ClockWatchdog {
            engaged: toks.flag()?,
        }),
        "release-late" => Ok(KernelEvent::ReleaseLate {
            handle: handle(toks)?,
            invocation: toks.u64()?,
            latency: toks.time()?,
        }),
        t => Err(corrupt(format!("unknown event {t:?}"))),
    }
}

#[allow(clippy::too_many_lines)]
fn restore_from_text(
    text: &str,
) -> Result<(RtKernel, Vec<(TaskHandle, AperiodicServer)>), SnapshotError> {
    let mut lines = LineReader {
        it: text.lines(),
        pending: None,
    };
    let first = lines.next_line().ok_or_else(|| corrupt("empty text"))?;
    if first != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(first.to_string()));
    }

    let mut t = lines.tagged("clock")?;
    let now = t.time()?;
    t.done()?;
    let mut t = lines.tagged("epoch")?;
    let mode_epoch = t.u64()?;
    t.done()?;
    let mut t = lines.tagged("next-handle")?;
    let next_handle = t.u64()?;
    t.done()?;
    let mut t = lines.tagged("switches")?;
    let switches = t.u64()?;
    t.done()?;
    let mut t = lines.tagged("stall-until")?;
    let stall_until = t.time()?;
    t.done()?;
    let mut t = lines.tagged("applied")?;
    let applied = match t.word()? {
        "none" => None,
        tok => Some(
            tok.parse::<usize>()
                .map_err(|_| corrupt(format!("bad point index {tok:?}")))?,
        ),
    };
    t.done()?;
    let mut t = lines.tagged("flags")?;
    let account_switch_overhead = t.flag()?;
    let defer_new_tasks = t.flag()?;
    let degrade_on_fault = t.flag()?;
    let traced = t.flag()?;
    t.done()?;
    let mut t = lines.tagged("overhead")?;
    let switch_overhead = {
        let first = t.word()?;
        if first == "none" {
            None
        } else {
            let bits = u64::from_str_radix(first, 16)
                .map_err(|_| corrupt(format!("bad hex {first:?}")))?;
            Some(SwitchOverhead {
                freq_only: Time::from_ms(f64::from_bits(bits)),
                voltage_change: t.time()?,
            })
        }
    };
    t.done()?;
    let mut t = lines.tagged("last-snapshot")?;
    let last_snapshot_at = match t.word()? {
        "none" => None,
        tok => {
            let bits =
                u64::from_str_radix(tok, 16).map_err(|_| corrupt(format!("bad hex {tok:?}")))?;
            Some(Time::from_ms(f64::from_bits(bits)))
        }
    };
    t.done()?;
    let mut t = lines.tagged("cap")?;
    let brownout_cap = match t.word()? {
        "none" => None,
        tok => Some(
            tok.parse::<usize>()
                .map_err(|_| corrupt(format!("bad point index {tok:?}")))?,
        ),
    };
    t.done()?;
    let mut t = lines.tagged("ladder")?;
    let ladder_pos = t.usize_()?;
    let ladder_review_at = t.time()?;
    let fallbacks_at_review = t.u64()?;
    let preferred_policy = parse_policy_token(t.word()?)?;
    t.done()?;
    let mut t = lines.tagged("regulator-stats")?;
    let transition_retries = t.u64()?;
    let transition_failures = t.u64()?;
    let regulator_fallbacks = t.u64()?;
    let forced_transitions = t.u64()?;
    t.done()?;
    let mut timebase = crate::timebase::TimeBase::default();
    if let Some(mut t) = lines.optional_tagged("timebase") {
        timebase.ewma_err_ms = t.f64_()?;
        timebase.clamped_jumps = t.u64()?;
        timebase.last_clamp = t.time()?;
        timebase.max_catch_up = t.u64()?;
        timebase.pending_gap = t.u64()?;
        timebase.pending_catch_up = t.flag()?;
        timebase.watchdog = t.flag()?;
        t.done()?;
    }
    let mut t = lines.tagged("machine")?;
    let n_points = t.usize_()?;
    let mut pairs = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        pairs.push((t.f64_()?, t.f64_()?));
    }
    let name = t.rest();
    let machine = Machine::new(&name, &pairs).map_err(|e| corrupt(format!("bad machine: {e}")))?;
    let mut t = lines.tagged("policy")?;
    let policy_kind = parse_policy_token(t.word()?)?;
    t.done()?;
    let mut t = lines.tagged("meter")?;
    let idle_level = t.f64_()?;
    let busy_energy = t.f64_()?;
    let idle_energy = t.f64_()?;
    let stall_time = t.time()?;
    let meter_points = t.usize_()?;
    t.done()?;
    if meter_points != machine.len() {
        return Err(corrupt("meter/machine point-count mismatch"));
    }
    let mut busy_time = Vec::with_capacity(meter_points);
    let mut idle_time = Vec::with_capacity(meter_points);
    let mut work_done = Vec::with_capacity(meter_points);
    for _ in 0..meter_points {
        let mut t = lines.tagged("meter-point")?;
        busy_time.push(t.time()?);
        idle_time.push(t.time()?);
        work_done.push(t.work()?);
        t.done()?;
    }
    let meter = EnergyMeter::from_parts(
        idle_level,
        busy_energy,
        idle_energy,
        busy_time,
        idle_time,
        work_done,
        stall_time,
    );

    let mut kernel = RtKernel {
        machine,
        policy: policy_kind.build(),
        policy_kind,
        entries: Vec::new(),
        cached_set: None,
        now,
        meter,
        trace: if traced { Some(Trace::new()) } else { None },
        applied,
        stall_until,
        switches,
        switch_overhead,
        account_switch_overhead,
        defer_new_tasks,
        degrade_on_fault,
        shed: Vec::new(),
        log: Vec::new(),
        next_handle,
        mode_epoch,
        pending_change: None,
        last_snapshot_at,
        // The regulator and supervisor are live hardware / the restoring
        // agent; callers re-attach them after restore.
        regulator: None,
        brownout_cap,
        preferred_policy,
        ladder_pos,
        ladder_review_at,
        fallbacks_at_review,
        transition_retries,
        transition_failures,
        regulator_fallbacks,
        forced_transitions,
        supervisor: None,
        sched: crate::kernel::SchedState::default(),
        tenant_servers: Vec::new(),
        // Observed state restores; the driver, like the regulator, is
        // live hardware the caller re-attaches.
        timebase,
    };
    if let Some(p) = kernel.applied {
        if p >= kernel.machine.len() {
            return Err(corrupt("applied point out of range"));
        }
    }
    let stall = kernel.stall_budget();
    let mut servers = Vec::new();

    let mut t = lines.tagged("entries")?;
    let n_entries = t.usize_()?;
    t.done()?;
    for _ in 0..n_entries {
        let mut t = lines.tagged("entry")?;
        let handle = TaskHandle::from_raw(t.u64()?);
        let period = t.time()?;
        let wcet = t.work()?;
        let nominal_period = t.time()?;
        let invocation = t.u64()?;
        let state = parse_state_token(t.word()?)?;
        let executed = t.work()?;
        let actual = t.work()?;
        let deadline = t.time()?;
        let next_release = t.time()?;
        let deferred = t.flag()?;
        let overrun_logged = t.flag()?;
        let observed_peak = t.work()?;
        let pending_shed = t.flag()?;
        let body_state = parse_body_state(&mut t)?;
        t.done()?;
        let user_spec =
            Task::new(period, wcet).map_err(|e| corrupt(format!("bad task spec: {e}")))?;
        let spec = user_spec
            .with_inflated_wcet(stall)
            .map_err(|e| corrupt(format!("bad inflated spec: {e}")))?;
        let (body, server) = rebuild_body(&body_state);
        match server {
            Some(RevivedServer::Classic(s)) => servers.push((handle, s)),
            Some(RevivedServer::Tenant(s)) => kernel.tenant_servers.push((handle, s)),
            None => {}
        }
        kernel.insert_entry(Entry {
            handle,
            spec,
            user_spec,
            nominal_period,
            body,
            invocation,
            state,
            executed,
            actual,
            deadline,
            next_release,
            deferred,
            overrun_logged,
            observed_peak,
            pending_shed,
        });
    }

    let mut t = lines.tagged("shed-tasks")?;
    let n_shed = t.usize_()?;
    t.done()?;
    for _ in 0..n_shed {
        let mut t = lines.tagged("shed")?;
        let handle = TaskHandle::from_raw(t.u64()?);
        let period = t.time()?;
        let wcet = t.work()?;
        let observed_peak = t.work()?;
        let invocation = t.u64()?;
        let next_attempt = t.time()?;
        let body_state = parse_body_state(&mut t)?;
        t.done()?;
        let (body, server) = rebuild_body(&body_state);
        match server {
            Some(RevivedServer::Classic(s)) => servers.push((handle, s)),
            Some(RevivedServer::Tenant(s)) => kernel.tenant_servers.push((handle, s)),
            None => {}
        }
        kernel.shed.push(ShedTask {
            handle,
            period,
            wcet,
            observed_peak,
            invocation,
            body,
            next_attempt,
        });
    }

    let mut t = lines.tagged("log")?;
    let n_log = t.usize_()?;
    t.done()?;
    for _ in 0..n_log {
        let mut t = lines.tagged("ev")?;
        let at = t.time()?;
        let ev = parse_event(&mut t)?;
        t.done()?;
        kernel.log.push((at, ev));
    }

    let _ = lines.tagged("checksum")?;
    if lines.next_line().is_some() {
        return Err(corrupt("trailing lines after checksum"));
    }

    // Conservative policy reseed, exactly like a live module swap.
    kernel.rebuild_and_reinit();
    Ok((kernel, servers))
}

#[cfg(test)]
mod tests {
    use rtdvs_core::policy::PolicyKind;

    use super::*;
    use crate::body::FractionBody;

    fn ms(v: f64) -> Time {
        Time::from_ms(v)
    }

    fn w(v: f64) -> Work {
        Work::from_ms(v)
    }

    fn paper_kernel(kind: PolicyKind) -> RtKernel {
        let mut k = RtKernel::new(Machine::machine0(), kind);
        for (p, c, seed) in [(8.0, 3.0, 11), (10.0, 3.0, 12), (14.0, 1.0, 13)] {
            k.spawn(ms(p), w(c), Box::new(UniformBody::new(seed)))
                .expect("paper set admits");
        }
        k
    }

    #[test]
    fn restored_run_continues_bit_identically_for_stateless_policies() {
        for kind in [PolicyKind::PlainEdf, PolicyKind::StaticEdf] {
            let mut live = paper_kernel(kind);
            live.run_until(ms(137.0));
            let snap = live.checkpoint().expect("serializable set");
            let (mut revived, servers) = snap.restore().expect("valid snapshot");
            assert!(servers.is_empty());
            assert_eq!(revived.now(), live.now());
            live.run_until(ms(560.0));
            revived.run_until(ms(560.0));
            assert_eq!(
                live.energy().to_bits(),
                revived.energy().to_bits(),
                "{kind:?}: energy diverged after restore"
            );
            assert_eq!(live.log(), revived.log(), "{kind:?}: logs diverged");
            assert_eq!(live.status(), revived.status());
            assert_eq!(live.misses().count(), 0);
        }
    }

    #[test]
    fn snapshot_text_round_trips_through_from_text() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(41.0));
        let snap = k.checkpoint().expect("serializable set");
        let reparsed = Snapshot::from_text(snap.as_text()).expect("own output must parse");
        assert_eq!(reparsed, snap);
        // Restore-twice determinism: two restores of one snapshot are the
        // same kernel.
        let (mut a, _) = snap.restore().expect("valid");
        let (mut b, _) = reparsed.restore().expect("valid");
        a.run_until(ms(300.0));
        b.run_until(ms(300.0));
        assert_eq!(a.energy().to_bits(), b.energy().to_bits());
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn checkpoint_marks_its_own_history() {
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        assert_eq!(k.last_snapshot_at(), None);
        k.run_until(ms(50.0));
        let snap = k.checkpoint().expect("serializable set");
        assert_eq!(k.last_snapshot_at(), Some(ms(50.0)));
        assert!(matches!(
            k.log().last(),
            Some((_, KernelEvent::SnapshotTaken))
        ));
        // The snapshot itself carries the marker for audit replay.
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.last_snapshot_at(), Some(ms(50.0)));
        assert!(matches!(
            revived.log().last(),
            Some((_, KernelEvent::SnapshotTaken))
        ));
    }

    #[test]
    fn opaque_bodies_refuse_cleanly() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let good = k
            .spawn(ms(10.0), w(2.0), Box::new(FractionBody(0.5)))
            .expect("admits");
        let opaque = k
            .spawn(
                ms(20.0),
                w(2.0),
                Box::new(|_inv: u64, spec: &Task| spec.wcet() * 0.5),
            )
            .expect("admits");
        let log_len = k.log().len();
        assert_eq!(k.checkpoint(), Err(SnapshotError::OpaqueBody(opaque)));
        // Refusal must not have marked anything.
        assert_eq!(k.log().len(), log_len);
        assert_eq!(k.last_snapshot_at(), None);
        k.remove(opaque).expect("task exists");
        let snap = k.checkpoint().expect("now serializable");
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.status(), k.status());
        let _ = good;
    }

    #[test]
    fn staged_transaction_blocks_checkpoint() {
        use crate::modechange::ModeChange;
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        k.run_for(ms(1.0));
        let _ = k
            .submit_mode_change(ModeChange::new().admit(ms(40.0), w(1.0), Box::new(WcetBody)))
            .expect("feasible");
        assert!(k.pending_mode_change());
        assert_eq!(k.checkpoint(), Err(SnapshotError::PendingModeChange));
        k.run_for(ms(30.0));
        assert!(!k.pending_mode_change());
        assert!(k.checkpoint().is_ok());
    }

    #[test]
    fn tampered_text_is_detected() {
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        k.run_until(ms(20.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        // Flip one digit of the epoch line.
        let tampered = text.replacen("epoch 0", "epoch 7", 1);
        assert_ne!(tampered, text);
        assert_eq!(
            Snapshot::from_text(&tampered),
            Err(SnapshotError::ChecksumMismatch)
        );
        // Truncation (a torn write) is also caught.
        let torn = &text[..text.len() / 2];
        assert!(matches!(
            Snapshot::from_text(torn),
            Err(SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch)
        ));
        // A foreign version tag is named, not mangled.
        let foreign = text.replacen("rtdvs-snapshot/v1", "rtdvs-snapshot/v9", 1);
        assert_eq!(
            Snapshot::from_text(&foreign),
            Err(SnapshotError::UnsupportedVersion(
                "rtdvs-snapshot/v9".into()
            ))
        );
    }

    #[test]
    fn server_queue_survives_the_round_trip() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let (handle, server) = k
            .spawn_polling_server(ms(10.0), w(2.0))
            .expect("server admits");
        k.run_until(ms(0.5));
        server.submit(w(3.0), k.now());
        server.submit(w(1.0), k.now());
        k.run_until(ms(15.0));
        let snap = k.checkpoint().expect("server bodies serialize");
        let (mut revived, mut servers) = snap.restore().expect("valid");
        assert_eq!(servers.len(), 1);
        let (rh, rserver) = servers.pop().expect("one server");
        assert_eq!(rh, handle);
        assert_eq!(rserver.snapshot(), server.snapshot());
        // Both halves finish the queue identically.
        k.run_until(ms(60.0));
        revived.run_until(ms(60.0));
        let mut done = server.take_completed();
        let mut rdone = rserver.take_completed();
        done.sort_by_key(|j| j.id);
        rdone.sort_by_key(|j| j.id);
        assert_eq!(done, rdone);
        assert_eq!(server.total_served(), rserver.total_served());
    }

    #[test]
    fn tenant_server_lanes_survive_the_round_trip() {
        use rtdvs_core::tenant::{TenantId, TenantQuota};

        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let quotas = [
            TenantQuota::new(TenantId::from_raw(1), w(0.8), 4),
            TenantQuota::new(TenantId::from_raw(2), w(0.8), 4),
        ];
        let (handle, server) = k
            .spawn_tenant_server(ms(10.0), w(2.0), &quotas)
            .expect("tenant server admits");
        k.run_until(ms(0.5));
        // Mid-backlog state: queued work, a partially-served job, sheds.
        for _ in 0..6 {
            let _ = server.submit(TenantId::from_raw(1), w(0.9), k.now());
        }
        let _ = server.submit(TenantId::from_raw(2), w(0.3), k.now());
        k.run_until(ms(15.0));
        let snap = k.checkpoint().expect("tenant bodies serialize");
        let (mut revived, servers) = snap.restore().expect("valid");
        assert!(servers.is_empty(), "no classic servers in this set");
        assert_eq!(revived.tenant_servers().len(), 1);
        let (rh, rserver) = {
            let (rh, rs) = &revived.tenant_servers()[0];
            (*rh, rs.clone())
        };
        assert_eq!(rh, handle);
        assert_eq!(rserver.snapshot(), server.snapshot(), "bit-exact lanes");
        // Both halves keep serving identically.
        k.run_until(ms(120.0));
        revived.run_until(ms(120.0));
        for t in [TenantId::from_raw(1), TenantId::from_raw(2)] {
            assert_eq!(server.take_completed(t), rserver.take_completed(t));
        }
        assert_eq!(server.lane_stats(), rserver.lane_stats());
        assert_eq!(
            server.total_served().as_ms().to_bits(),
            rserver.total_served().as_ms().to_bits()
        );
    }

    #[test]
    fn governor_and_shed_state_survive_the_round_trip() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf).with_degraded_mode();
        let _ = k
            .spawn(ms(10.0), w(5.0), Box::new(FractionBody(0.5)))
            .expect("fits");
        let receipt = k
            .submit_mode_change(
                crate::modechange::ModeChange::new()
                    .admit(ms(10.0), w(6.0), Box::new(FractionBody(0.5)))
                    .or_degrade(),
            )
            .expect("contained by stretch");
        assert!(receipt.committed);
        k.run_until(ms(30.0));
        assert_eq!(k.governor(), crate::kernel::GovernorState::Stretched);
        let snap = k.checkpoint().expect("serializable");
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.governor(), crate::kernel::GovernorState::Stretched);
        assert_eq!(revived.mode_epoch(), k.mode_epoch());
        assert_eq!(revived.status(), k.status());
    }
}
