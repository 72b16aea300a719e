//! The one JSON codec, and the `BENCH_*.json` artifacts built on it.
//!
//! # The codec
//!
//! [`Json`] is a parsed or built document tree. Numbers keep their
//! literal text ([`Json::Num`]), so a 64-bit seed round-trips without
//! `f64` truncation and a builder picks the decimals each field is
//! written with (`Json::fixed`). [`Json::render`] is the one writer.
//! It knows exactly two object layouts, and the builder chooses:
//!
//! * a **block** ([`Json::Obj`]) puts one member per line, indented two
//!   spaces per level;
//! * a **row** ([`Json::Row`]) puts every member on one line.
//!
//! An array of objects is written one object per line, even when the
//! array sits inside a row (the bench `series[].points` case). Any other
//! array is written inline (`[0.5000, 0.9000]`). Strings escape `"`,
//! `\` and every control character; the parser decodes the RFC 8259
//! escape set, caps nesting at 64 levels, and never panics.
//!
//! [`diff`] compares two trees and names every differing path with both
//! values (`cells[4].availability: 0.983929 vs golden 0.990000`). Object
//! layout is not compared: two trees from the same builder that diff
//! empty render to the same bytes.
//!
//! # Artifacts
//!
//! Every artifact implements [`Artifact`]: a schema identifier, a tree
//! builder ([`Artifact::to_value`]), a reader ([`Artifact::from_value`])
//! and its invariants ([`Artifact::validate`]). The trait supplies
//! `to_json`, `canonical_json` and `from_json`, so the schema check
//! exists once. The canonical form zeroes provenance (wall clock, thread
//! count, measured rates); what remains is a pure function of the seed,
//! and the golden gates diff exactly that.
//!
//! Readers look fields up by name and ignore keys they do not know, so
//! an artifact written by a newer producer with extra fields still
//! loads. The workspace has no registry dependencies, so the codec is
//! hand-rolled here.
//!
//! # `rtdvs-bench/v1`
//!
//! [`BenchArtifact`], the Figures 6–8 curves, the smoke sweep and the
//! seeded soaks:
//!
//! ```json
//! {
//!   "schema": "rtdvs-bench/v1",
//!   "meta": {
//!     "seed": 24301,
//!     "threads": 4,
//!     "grid": {
//!       "label": "paper-figures",
//!       "n_tasks": [5, 10, 15],
//!       "utilizations": [0.0500, ...],
//!       "sets_per_point": 50,
//!       "duration_ms": 2000.000,
//!       "policies": ["EDF", ...]
//!     }
//!   },
//!   "series": [
//!     {"policy": "ccEDF", "n_tasks": 5, "points": [
//!       {"u": 0.0500, "energy_norm": 0.500000, "deadline_miss": 0, "fault_miss": 0},
//!       ...
//!     ]},
//!     ...
//!   ],
//!   "wall_ms": 1234
//! }
//! ```
//!
//! Soak artifacts (the grid labels registered in [`crate::soak::SOAKS`])
//! reuse the schema with reinterpreted axes: `u` is the adversity rate,
//! `energy_norm` is the stressed run's energy against the same policy's
//! clean run at the same seeds, `deadline_miss` counts policy-blamed
//! misses plus non-miss audit findings, and `fault_miss` counts the
//! misses an injected adversity excuses (see `crate::soak`). The
//! guaranteed-policy zero-miss check then enforces "adversity never
//! turns into a policy bug" mechanically. `meta.threads` and `wall_ms`
//! are the provenance the canonical form zeroes.

use std::fmt;

use crate::sweep::Sweep;

/// Deepest array/object nesting the parser accepts. Every artifact
/// nests at most five levels; the cap turns hostile input into an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// Policies whose schedulability guarantee makes any deadline miss a bug
/// (the EDF family; RM-based policies legitimately miss above the RM
/// bound).
pub const GUARANTEED_POLICIES: [&str; 4] = ["EDF", "StaticEDF", "ccEDF", "laEDF"];

/// A committed artifact: one schema, one tree builder, one reader and
/// its own invariants. Implementors provide the four items; the trait
/// supplies the text forms and the schema check.
pub trait Artifact: Sized {
    /// Schema identifier written into (and required from) every document.
    const SCHEMA: &'static str;

    /// Builds the document tree, `"schema"` first. With `canonical`, the
    /// provenance fields are zeroed.
    fn to_value(&self, canonical: bool) -> Json;

    /// Reads the artifact from a document whose schema has been checked.
    ///
    /// # Errors
    ///
    /// Returns the first missing or ill-typed field.
    fn from_value(value: &Json) -> Result<Self, ArtifactError>;

    /// The invariants any passing artifact obeys, independent of a
    /// golden to compare against. Returns one message per violation.
    fn validate(&self) -> Vec<String>;

    /// Serializes the artifact, provenance included.
    fn to_json(&self) -> String {
        self.to_value(false).render()
    }

    /// Serializes the deterministic payload: provenance zeroed. Two runs
    /// at the same seed produce byte-identical canonical JSON.
    fn canonical_json(&self) -> String {
        self.to_value(true).render()
    }

    /// Parses an artifact from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem: malformed JSON, a schema
    /// other than [`Artifact::SCHEMA`], or a missing/ill-typed field.
    fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let value = Json::parse(text)?;
        let schema = value.get("schema")?.as_str()?;
        if schema != Self::SCHEMA {
            return Err(ArtifactError(format!(
                "schema mismatch: artifact says {schema:?}, reader speaks {:?}",
                Self::SCHEMA
            )));
        }
        Self::from_value(&value)
    }
}

/// One plotted point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    /// Worst-case utilization (x axis).
    pub u: f64,
    /// Mean energy normalized against plain EDF (y axis). Chaos grids
    /// normalize against the same policy's fault-free run instead.
    pub energy_norm: f64,
    /// Total deadline misses across the point's task sets. Chaos grids
    /// count only misses classified as policy bugs here.
    pub deadline_miss: u64,
    /// Misses an injected adversity excuses. Always 0 outside soak
    /// grids; absent in pre-fault artifacts, which parse as 0.
    pub fault_miss: u64,
}

/// One curve: a policy on one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSeries {
    /// Policy name (a [`rtdvs_core::policy::PolicyKind::name`]).
    pub policy: String,
    /// Tasks per set in this panel (panels distinguish Figures 6/7/8).
    pub n_tasks: usize,
    /// The curve, in utilization-grid order.
    pub points: Vec<BenchPoint>,
}

/// Grid metadata: everything needed to regenerate the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchGrid {
    /// Human label for the grid ("paper-figures", "sweep-smoke").
    pub label: String,
    /// Panel sizes (tasks per set).
    pub n_tasks: Vec<usize>,
    /// Utilization grid.
    pub utilizations: Vec<f64>,
    /// Task sets averaged per grid point.
    pub sets_per_point: usize,
    /// Simulated horizon per run, milliseconds.
    pub duration_ms: f64,
    /// Policy column order.
    pub policies: Vec<String>,
}

/// A complete `rtdvs-bench/v1` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Experiment seed every stream derives from.
    pub seed: u64,
    /// Worker threads that produced this artifact (provenance only — the
    /// series are thread-count-invariant).
    pub threads: usize,
    /// The grid that was run.
    pub grid: BenchGrid,
    /// All curves.
    pub series: Vec<BenchSeries>,
    /// Wall-clock of the producing run, milliseconds (provenance only).
    pub wall_ms: u64,
}

impl BenchArtifact {
    /// Builds the series for one sweep panel: every policy's normalized
    /// energy curve plus per-point deadline misses.
    #[must_use]
    pub fn panel_series(sweep: &Sweep, n_tasks: usize) -> Vec<BenchSeries> {
        (0..sweep.policy_names.len())
            .map(|p| BenchSeries {
                policy: sweep.policy_names[p].to_owned(),
                n_tasks,
                points: sweep
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| BenchPoint {
                        u: row.utilization,
                        energy_norm: sweep.normalized(i, p),
                        deadline_miss: row.misses[p],
                        fault_miss: 0,
                    })
                    .collect(),
            })
            .collect()
    }
}

impl Artifact for BenchArtifact {
    const SCHEMA: &'static str = "rtdvs-bench/v1";

    fn to_value(&self, canonical: bool) -> Json {
        let (threads, wall_ms) = if canonical {
            (0, 0)
        } else {
            (self.threads as u64, self.wall_ms)
        };
        let grid = &self.grid;
        let point = |p: &BenchPoint| {
            Json::row([
                ("u", Json::fixed(p.u, 4)),
                ("energy_norm", Json::fixed(p.energy_norm, 6)),
                ("deadline_miss", Json::int(p.deadline_miss)),
                ("fault_miss", Json::int(p.fault_miss)),
            ])
        };
        Json::block([
            ("schema", Json::str(Self::SCHEMA)),
            (
                "meta",
                Json::block([
                    ("seed", Json::int(self.seed)),
                    ("threads", Json::int(threads)),
                    (
                        "grid",
                        Json::block([
                            ("label", Json::str(&grid.label)),
                            (
                                "n_tasks",
                                Json::list(grid.n_tasks.iter().map(|&n| Json::int(n as u64))),
                            ),
                            (
                                "utilizations",
                                Json::list(grid.utilizations.iter().map(|&u| Json::fixed(u, 4))),
                            ),
                            ("sets_per_point", Json::int(grid.sets_per_point as u64)),
                            ("duration_ms", Json::fixed(grid.duration_ms, 3)),
                            ("policies", Json::list(grid.policies.iter().map(Json::str))),
                        ]),
                    ),
                ]),
            ),
            (
                "series",
                Json::list(self.series.iter().map(|s| {
                    Json::row([
                        ("policy", Json::str(&s.policy)),
                        ("n_tasks", Json::int(s.n_tasks as u64)),
                        ("points", Json::list(s.points.iter().map(point))),
                    ])
                })),
            ),
            ("wall_ms", Json::int(wall_ms)),
        ])
    }

    fn from_value(value: &Json) -> Result<BenchArtifact, ArtifactError> {
        let meta = value.get("meta")?;
        let grid = meta.get("grid")?;
        Ok(BenchArtifact {
            seed: meta.get("seed")?.as_u64()?,
            threads: meta.get("threads")?.as_usize()?,
            grid: BenchGrid {
                label: grid.get("label")?.as_str()?.to_owned(),
                n_tasks: grid.get("n_tasks")?.map_items(Json::as_usize)?,
                utilizations: grid.get("utilizations")?.map_items(Json::as_f64)?,
                sets_per_point: grid.get("sets_per_point")?.as_usize()?,
                duration_ms: grid.get("duration_ms")?.as_f64()?,
                policies: grid
                    .get("policies")?
                    .map_items(|p| Ok(p.as_str()?.to_owned()))?,
            },
            series: value.get("series")?.map_items(|s| {
                Ok(BenchSeries {
                    policy: s.get("policy")?.as_str()?.to_owned(),
                    n_tasks: s.get("n_tasks")?.as_usize()?,
                    points: s.get("points")?.map_items(|p| {
                        Ok(BenchPoint {
                            u: p.get("u")?.as_f64()?,
                            energy_norm: p.get("energy_norm")?.as_f64()?,
                            deadline_miss: p.get("deadline_miss")?.as_u64()?,
                            // Absent in pre-fault artifacts.
                            fault_miss: p.find("fault_miss").map_or(Ok(0), Json::as_u64)?,
                        })
                    })?,
                })
            })?,
            wall_ms: value.get("wall_ms")?.as_u64()?,
        })
    }

    /// Every series covers the whole utilization grid, plain EDF
    /// normalizes to 1, guaranteed policies never miss, and energies are
    /// positive.
    ///
    /// Soak grids normalize each policy against its own clean run, so
    /// the EDF-normalizes-to-1 check does not apply there; the
    /// guaranteed-policy check does (and, because those artifacts put
    /// only policy-blamed misses in `deadline_miss`, it enforces that no
    /// injected adversity was ever misclassified as a policy bug).
    fn validate(&self) -> Vec<String> {
        let soak = crate::soak::is_soak_label(&self.grid.label);
        let mut problems = Vec::new();
        let expected_series = self.grid.policies.len() * self.grid.n_tasks.len();
        if self.series.len() != expected_series {
            problems.push(format!(
                "expected {expected_series} series ({} policies × {} panels), found {}",
                self.grid.policies.len(),
                self.grid.n_tasks.len(),
                self.series.len()
            ));
        }
        for series in &self.series {
            let tag = format!("{}/{} tasks", series.policy, series.n_tasks);
            if series.points.len() != self.grid.utilizations.len() {
                problems.push(format!(
                    "{tag}: {} points for a {}-point utilization grid",
                    series.points.len(),
                    self.grid.utilizations.len()
                ));
            }
            for point in &series.points {
                if point.energy_norm <= 0.0 || point.energy_norm.is_nan() {
                    problems.push(format!(
                        "{tag}: non-positive energy {} at U={}",
                        point.energy_norm, point.u
                    ));
                }
                if !soak && series.policy == "EDF" && (point.energy_norm - 1.0).abs() > 1e-9 {
                    problems.push(format!(
                        "{tag}: EDF normalization is {} at U={}, must be 1",
                        point.energy_norm, point.u
                    ));
                }
                if GUARANTEED_POLICIES.contains(&series.policy.as_str()) && point.deadline_miss != 0
                {
                    problems.push(format!(
                        "{tag}: {} deadline miss(es) at U={} from a policy whose \
                         schedulability guarantee forbids them",
                        point.deadline_miss, point.u
                    ));
                }
            }
        }
        problems
    }
}

/// A parse or schema error, with the offending path or byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

/// A JSON document tree (see the module docs for the two object
/// layouts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object written one member per line (a block). The parser
    /// produces this layout.
    Obj(Vec<(String, Json)>),
    /// An object written on one line (a row).
    Row(Vec<(String, Json)>),
}

impl Json {
    /// An integer.
    #[must_use]
    pub(crate) fn int(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A float with exactly `decimals` fractional digits — the codec's
    /// one source of float text, deterministic across platforms.
    #[must_use]
    pub(crate) fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// A string.
    #[must_use]
    pub(crate) fn str(s: impl AsRef<str>) -> Json {
        Json::Str(s.as_ref().to_owned())
    }

    /// An array.
    pub(crate) fn list(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A block object: one member per line.
    pub(crate) fn block<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(owned(members))
    }

    /// A row object: every member on one line.
    pub(crate) fn row<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Row(owned(members))
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, nesting deeper than 64 levels, or trailing
    /// content, with the byte offset.
    pub fn parse(text: &str) -> Result<Json, ArtifactError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ArtifactError(format!("trailing content at byte {pos}")));
        }
        Ok(value)
    }

    /// The canonical text: the one writer every artifact goes through,
    /// newline-terminated.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the value starting mid-line on a line indented `indent`.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_str(out, s),
            Json::Obj(members) => write_seq(out, indent, "{}", true, keyed(members)),
            Json::Row(members) => write_seq(out, indent, "{}", false, keyed(members)),
            Json::Arr(items) => {
                let rows = items.first().is_some_and(|i| i.members().is_some());
                write_seq(out, indent, "[]", rows, items.iter().map(|v| (None, v)));
            }
        }
    }

    /// The members of an object of either layout.
    fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) | Json::Row(members) => Some(members),
            _ => None,
        }
    }

    /// The member `key`, if this is an object that has it.
    #[must_use]
    pub(crate) fn find(&self, key: &str) -> Option<&Json> {
        self.members()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The member `key`.
    ///
    /// # Errors
    ///
    /// Not an object, or no such member.
    pub fn get(&self, key: &str) -> Result<&Json, ArtifactError> {
        match self.members() {
            Some(_) => self
                .find(key)
                .ok_or_else(|| ArtifactError(format!("missing field {key:?}"))),
            None => Err(ArtifactError(format!("expected object around {key:?}"))),
        }
    }

    /// Reads every item of an array with `read`; an error if this is
    /// not an array or `read` rejects an item.
    pub(crate) fn map_items<T>(
        &self,
        read: impl Fn(&Json) -> Result<T, ArtifactError>,
    ) -> Result<Vec<T>, ArtifactError> {
        match self {
            Json::Arr(items) => items.iter().map(read).collect(),
            other => Err(other.mismatch("array")),
        }
    }

    /// A string value; an error for anything else.
    pub fn as_str(&self) -> Result<&str, ArtifactError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(other.mismatch("string")),
        }
    }

    /// A boolean value; an error for anything else.
    pub(crate) fn as_bool(&self) -> Result<bool, ArtifactError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(other.mismatch("bool")),
        }
    }

    /// A number as `f64`; an error for anything else.
    pub(crate) fn as_f64(&self) -> Result<f64, ArtifactError> {
        self.number("number")
    }

    /// A non-negative integer, exact to 64 bits; an error for anything
    /// else.
    pub(crate) fn as_u64(&self) -> Result<u64, ArtifactError> {
        self.number("integer")
    }

    /// A non-negative integer that fits a `usize`; an error for anything
    /// else.
    pub(crate) fn as_usize(&self) -> Result<usize, ArtifactError> {
        self.number("integer")
    }

    fn number<T: std::str::FromStr>(&self, want: &str) -> Result<T, ArtifactError>
    where
        T::Err: fmt::Display,
    {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|e| ArtifactError(format!("bad {want} {raw:?}: {e}"))),
            other => Err(other.mismatch(want)),
        }
    }

    fn mismatch(&self, want: &str) -> ArtifactError {
        ArtifactError(format!("expected {want}, found {}", self.summary()))
    }

    /// Scalars as their JSON text; containers by size (for messages).
    fn summary(&self) -> String {
        match self {
            Json::Arr(items) => format!("an array of {}", items.len()),
            Json::Obj(members) | Json::Row(members) => {
                format!("an object of {} member(s)", members.len())
            }
            scalar => {
                let mut out = String::new();
                scalar.write(&mut out, 0);
                out
            }
        }
    }
}

fn owned<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Vec<(String, Json)> {
    members
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

fn keyed(members: &[(String, Json)]) -> impl Iterator<Item = (Option<&str>, &Json)> {
    members.iter().map(|(k, v)| (Some(k.as_str()), v))
}

/// Writes `items` between `brackets`: one per line at `indent + 2` when
/// `lines`, else inline. Keyed items are object members.
fn write_seq<'a>(
    out: &mut String,
    indent: usize,
    brackets: &str,
    lines: bool,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    let inner = if lines { indent + 2 } else { indent };
    out.push_str(open);
    let mut empty = true;
    for (key, value) in items {
        if lines {
            out.push_str(if empty { "\n" } else { ",\n" });
            pad(out, inner);
        } else if !empty {
            out.push_str(", ");
        }
        empty = false;
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, inner);
    }
    if lines && !empty {
        out.push('\n');
        pad(out, indent);
    }
    out.push_str(close);
}

fn pad(out: &mut String, indent: usize) {
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Writes `s` as a JSON string literal: `"`, `\` and every control
/// character escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Every path at which `fresh` differs from `golden`, one line each:
/// `path: fresh vs golden golden`. Members are matched by key, arrays by
/// index; object layout is ignored. Empty means the trees are equal.
#[must_use]
pub fn diff(golden: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("", golden, fresh, &mut out);
    out
}

fn diff_at(path: &str, golden: &Json, fresh: &Json, out: &mut Vec<String>) {
    if let (Some(g), Some(f)) = (golden.members(), fresh.members()) {
        let member = |key: &str| {
            if path.is_empty() {
                key.to_owned()
            } else {
                format!("{path}.{key}")
            }
        };
        for (key, g) in g {
            match fresh.find(key) {
                Some(f) => diff_at(&member(key), g, f, out),
                None => out.push(format!(
                    "{}: missing vs golden {}",
                    member(key),
                    g.summary()
                )),
            }
        }
        for (key, f) in f.iter().filter(|(key, _)| golden.find(key).is_none()) {
            out.push(format!(
                "{}: {} vs golden missing",
                member(key),
                f.summary()
            ));
        }
        return;
    }
    match (golden, fresh) {
        (Json::Arr(g), Json::Arr(f)) => {
            if g.len() != f.len() {
                out.push(format!("{path}: {} items vs golden {}", f.len(), g.len()));
            }
            for (i, (g, f)) in g.iter().zip(f).enumerate() {
                diff_at(&format!("{path}[{i}]"), g, f, out);
            }
        }
        _ if golden != fresh => {
            let at = if path.is_empty() { "<document>" } else { path };
            out.push(format!(
                "{at}: {} vs golden {}",
                fresh.summary(),
                golden.summary()
            ));
        }
        _ => {}
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), ArtifactError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(ArtifactError(format!(
            "expected {:?} at byte {}",
            byte as char, *pos
        )))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ArtifactError> {
    skip_ws(bytes, pos);
    let open = bytes.get(*pos).copied();
    if matches!(open, Some(b'{' | b'[')) {
        if depth == MAX_DEPTH {
            return Err(ArtifactError(format!(
                "nesting deeper than {MAX_DEPTH} at byte {pos}"
            )));
        }
        *pos += 1;
        skip_ws(bytes, pos);
    }
    match open {
        Some(b'{') => {
            let mut members = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(ArtifactError(format!("unterminated object at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ArtifactError(format!("unterminated array at byte {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            // Only ASCII was consumed, so the slice is valid UTF-8.
            let raw = String::from_utf8_lossy(&bytes[start..*pos]).into_owned();
            if raw.parse::<f64>().is_err() {
                return Err(ArtifactError(format!("unexpected byte at {start}")));
            }
            Ok(Json::Num(raw))
        }
        None => Err(ArtifactError("unexpected end of input".to_owned())),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ArtifactError> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte.
        // Those are ASCII and never occur inside a multi-byte sequence,
        // so the run is whole UTF-8 scalars.
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1f) {
            *pos += 1;
        }
        out.push_str(
            core::str::from_utf8(&bytes[run..*pos])
                .map_err(|_| ArtifactError(format!("invalid UTF-8 in string at byte {start}")))?,
        );
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let at = *pos;
                let escape = bytes.get(at + 1).copied();
                *pos += 2;
                let ch = match escape {
                    Some(b'"') => Some('"'),
                    Some(b'\\') => Some('\\'),
                    Some(b'/') => Some('/'),
                    Some(b'b') => Some('\u{8}'),
                    Some(b'f') => Some('\u{c}'),
                    Some(b'n') => Some('\n'),
                    Some(b'r') => Some('\r'),
                    Some(b't') => Some('\t'),
                    Some(b'u') => parse_unicode_escape(bytes, pos),
                    _ => None,
                };
                out.push(ch.ok_or_else(|| {
                    ArtifactError(format!("invalid escape in string at byte {at}"))
                })?);
            }
            Some(_) => {
                return Err(ArtifactError(format!(
                    "unescaped control character in string at byte {pos}"
                )))
            }
            None => {
                return Err(ArtifactError(format!(
                    "unterminated string at byte {start}"
                )))
            }
        }
    }
}

/// Decodes the `XXXX` after `\u` (and a following `\uXXXX` low
/// surrogate when the first is a high one). `None` on malformed hex or
/// an unpaired surrogate.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Option<char> {
    let unit = hex4(bytes, pos)?;
    if !(0xD800..0xDC00).contains(&unit) {
        return char::from_u32(unit);
    }
    if bytes.get(*pos..*pos + 2) != Some(b"\\u".as_slice()) {
        return None;
    }
    *pos += 2;
    let low = hex4(bytes, pos)?;
    if !(0xDC00..0xE000).contains(&low) {
        return None;
    }
    char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let digits = bytes.get(*pos..*pos + 4)?;
    let unit = digits
        .iter()
        .try_fold(0, |acc, &d| Some(acc * 16 + char::from(d).to_digit(16)?))?;
    *pos += 4;
    Some(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        let point = |u, energy_norm| BenchPoint {
            u,
            energy_norm,
            deadline_miss: 0,
            fault_miss: 0,
        };
        BenchArtifact {
            seed: 0x5eed,
            threads: 4,
            grid: BenchGrid {
                label: "sweep-smoke".to_owned(),
                n_tasks: vec![8],
                utilizations: vec![0.5, 0.9],
                sets_per_point: 2,
                duration_ms: 600.0,
                policies: vec!["EDF".to_owned(), "ccEDF".to_owned()],
            },
            series: vec![
                BenchSeries {
                    policy: "EDF".to_owned(),
                    n_tasks: 8,
                    points: vec![point(0.5, 1.0), point(0.9, 1.0)],
                },
                BenchSeries {
                    policy: "ccEDF".to_owned(),
                    n_tasks: 8,
                    points: vec![point(0.5, 0.51), point(0.9, 0.87)],
                },
            ],
            wall_ms: 321,
        }
    }

    #[test]
    fn large_seed_round_trips_exactly() {
        let mut art = sample();
        art.seed = u64::MAX - 3; // not representable in f64
        let parsed = BenchArtifact::from_json(&art.to_json()).expect("round trip");
        assert_eq!(parsed, art);
    }

    #[test]
    fn canonical_json_hides_threads_and_wall() {
        let mut a = sample();
        let mut b = sample();
        a.threads = 1;
        a.wall_ms = 10;
        b.threads = 4;
        b.wall_ms = 99;
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample()
            .to_json()
            .replace(BenchArtifact::SCHEMA, "rtdvs-bench/v0");
        let err = BenchArtifact::from_json(&text).expect_err("wrong schema");
        assert!(err.0.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,",
            "{\"a\": 1} trailing",
            "[--]",
            "\"unterminated",
            "\"raw\u{1}control\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = BenchArtifact::from_json(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(err.0.contains("nesting deeper than 64"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn truncated_input_is_an_error_at_every_cut() {
        // Cutting a document anywhere — mid-number, mid-escape, inside a
        // multi-byte character — is an error, never a panic.
        let text =
            Json::row([("k", Json::str("é\t\"x\" \u{1F600}")), ("n", Json::int(12))]).render();
        for cut in 0..text.len() - 1 {
            let prefix = String::from_utf8_lossy(&text.as_bytes()[..cut]);
            assert!(Json::parse(&prefix).is_err(), "accepted {prefix:?}");
        }
    }

    #[test]
    fn strings_escape_and_decode_the_rfc_8259_set() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctl \u{1} é \u{1F600}";
        let text = Json::row([("s", Json::str(nasty))]).render();
        assert_eq!(
            text,
            "{\"s\": \"quote \\\" backslash \\\\ newline \\n tab \\t ctl \\u0001 é \u{1F600}\"}\n"
        );
        let back = Json::parse(&text).expect("escaped text parses");
        assert_eq!(back.get("s").and_then(Json::as_str), Ok(nasty));
        // The parser also takes the escapes this writer never emits.
        let other = Json::parse(r#""a\tb\/c\u00e9\ud83d\ude00\b\f\r""#).expect("RFC escapes");
        assert_eq!(other, Json::str("a\tb/cé\u{1F600}\u{8}\u{c}\r"));
    }

    #[test]
    fn render_uses_the_two_layouts() {
        let doc = Json::block([
            ("a", Json::list([Json::int(1), Json::int(2)])),
            (
                "rows",
                Json::list([Json::row([
                    ("x", Json::fixed(0.5, 2)),
                    ("inner", Json::list([Json::row([("y", Json::Null)])])),
                ])]),
            ),
            ("empty", Json::list([])),
            ("nested", Json::block([("t", Json::Bool(true))])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"a\": [1, 2],\n  \"rows\": [\n    {\"x\": 0.50, \"inner\": [\n      \
             {\"y\": null}\n    ]}\n  ],\n  \"empty\": [],\n  \"nested\": {\n    \
             \"t\": true\n  }\n}\n"
        );
    }

    #[test]
    fn diff_names_every_differing_path() {
        let golden = sample();
        assert!(diff(&golden.to_value(true), &golden.to_value(true)).is_empty());
        let mut fresh = sample();
        fresh.series[1].points[0].energy_norm = 0.512;
        fresh.series[0].points[0].fault_miss = 2;
        fresh.grid.sets_per_point = 3;
        fresh.series[1].points.pop();
        assert_eq!(
            diff(&golden.to_value(true), &fresh.to_value(true)),
            [
                "meta.grid.sets_per_point: 3 vs golden 2",
                "series[0].points[0].fault_miss: 2 vs golden 0",
                "series[1].points: 1 items vs golden 2",
                "series[1].points[0].energy_norm: 0.512000 vs golden 0.510000",
            ]
        );
        let extra = Json::block([("a", Json::int(1)), ("b", Json::str("x"))]);
        let fewer = Json::row([("a", Json::int(1)), ("c", Json::list([]))]);
        assert_eq!(
            diff(&extra, &fewer),
            [
                "b: missing vs golden \"x\"",
                "c: an array of 0 vs golden missing"
            ]
        );
    }

    #[test]
    fn validate_flags_guarantee_violations() {
        let mut art = sample();
        assert!(art.validate().is_empty());
        art.series[0].points[0].energy_norm = 1.2; // EDF must stay 1.0
        art.series[1].points[0].deadline_miss = 2; // ccEDF must never miss
        let problems = art.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validate_flags_missing_series() {
        let mut art = sample();
        art.series.pop();
        assert!(!art.validate().is_empty());
    }

    #[test]
    fn pre_fault_artifacts_parse_with_zero_fault_miss() {
        // Artifacts written before the fault_miss field must still load.
        let text = sample().to_json().replace(", \"fault_miss\": 0", "");
        assert!(!text.contains("fault_miss"));
        let parsed = BenchArtifact::from_json(&text).expect("tolerant parse");
        assert_eq!(parsed, sample());
    }

    #[test]
    fn soak_grids_skip_the_edf_normalization_check_only() {
        for soak in &crate::soak::SOAKS {
            let mut art = sample();
            art.grid.label = soak.label.to_owned();
            // Soaks normalize per policy, so EDF ≠ 1 is legitimate there...
            art.series[0].points[1].energy_norm = 1.07;
            art.series[0].points[1].fault_miss = 3;
            assert!(
                art.validate().is_empty(),
                "{}: {:?}",
                soak.name,
                art.validate()
            );
            // ...but a policy-blamed miss from a guaranteed policy is still
            // a finding.
            art.series[1].points[0].deadline_miss = 1;
            assert_eq!(art.validate().len(), 1, "{}", soak.name);
        }
    }

    #[test]
    fn unknown_fields_are_ignored_at_every_level() {
        // Forward compatibility: a newer producer may add fields at the
        // top level, in meta, in the grid, per series, or per point. The
        // by-name reader must skip them all and still round-trip the
        // fields it knows.
        let art = sample();
        let text = art
            .to_json()
            .replace(
                "\"schema\": \"rtdvs-bench/v1\",",
                "\"schema\": \"rtdvs-bench/v1\",\n  \"producer\": \"future/2.0\",",
            )
            .replace(
                "\"seed\": 24301,",
                "\"seed\": 24301,\n    \"host_arch\": \"riscv64\",",
            )
            .replace(
                "\"label\": \"sweep-smoke\",",
                "\"label\": \"sweep-smoke\",\n      \"cap_point\": 3,",
            )
            .replace(
                "\"policy\": \"ccEDF\",",
                "\"policy\": \"ccEDF\", \"retries\": 17,",
            )
            .replace(
                "\"deadline_miss\": 0, \"fault_miss\": 0}",
                "\"deadline_miss\": 0, \"fault_miss\": 0, \"stuck\": 2, \"note\": null}",
            );
        assert_ne!(text, art.to_json(), "replacements must have applied");
        let parsed = BenchArtifact::from_json(&text).expect("tolerant parse");
        assert_eq!(parsed, art);
    }
}
