//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public API.
//! Spans nest per thread (the innermost open span on the calling thread
//! is the parent) and carry the id of the job they belong to. Nothing
//! is recorded while tracing is off, so the untraced run pays one atomic
//! load per call. The spans stay in memory until the run ends, when
//! [`write_jsonl`] writes them out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers spans are charged to, in stack order (bottom first).
/// `harness` is the benchmark's own code between layer calls.
pub const LAYERS: [&str; 9] = [
    "harness",
    "workloads",
    "rewriter",
    "isa",
    "sim",
    "bench",
    "gadget",
    "service",
    "fleet",
];

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// The job (cell, daemon job, chunk batch, frontier point) the
    /// span belongs to; 0 outside jobs.
    pub run: u64,
    /// Units of work the call did (simulated instructions for run
    /// spans), for rate metrics.
    pub work: u64,
    /// Whether the span came from the layer probe rather than the
    /// workload's own loop.
    pub probe: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Named scalar readings (a utilization, a byte count) taken at a layer
/// boundary, each with its probe flag.
pub type Values = BTreeMap<String, Vec<(f64, bool)>>;

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    values: Values,
}

static ON: AtomicBool = AtomicBool::new(false);
static PROBE: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Mutex<Recorder> {
    static R: OnceLock<Mutex<Recorder>> = OnceLock::new();
    R.get_or_init(|| {
        Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            values: BTreeMap::new(),
        })
    })
}

thread_local! {
    /// Open spans on this thread, innermost last, with their run id.
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off; `probe` tags what follows as probe spans.
pub fn set(on: bool, probe: bool) {
    recorder();
    PROBE.store(probe, Ordering::SeqCst);
    ON.store(on, Ordering::SeqCst);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside a span; `run` is the job id (`None` inherits the
/// parent's) and returns `f`'s result.
pub fn span_run<R>(layer: &'static str, name: &str, run: Option<u64>, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let (parent, inherited) = STACK.with(|s| s.borrow().last().copied()).unzip();
    let run = run.or(inherited).unwrap_or(0);
    let idx = {
        let mut r = recorder().lock().expect("trace lock");
        let start = r.epoch.elapsed().as_secs_f64();
        r.spans.push(Span {
            layer,
            name: name.to_string(),
            start,
            end: start,
            parent,
            run,
            work: 0,
            probe: PROBE.load(Ordering::Relaxed),
        });
        r.spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push((idx, run)));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    let mut r = recorder().lock().expect("trace lock");
    let end = r.epoch.elapsed().as_secs_f64();
    r.spans[idx].end = end;
    out
}

/// [`span_run`] inheriting the run id.
pub fn span<R>(layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
    span_run(layer, name, None, f)
}

/// Adds `work` units to the innermost open span on this thread.
pub fn add_work(work: u64) {
    if !on() {
        return;
    }
    if let Some((idx, _)) = STACK.with(|s| s.borrow().last().copied()) {
        recorder().lock().expect("trace lock").spans[idx].work += work;
    }
}

/// Records a named reading.
pub fn value(name: &str, v: f64) {
    if !on() {
        return;
    }
    let probe = PROBE.load(Ordering::Relaxed);
    let mut r = recorder().lock().expect("trace lock");
    r.values
        .entry(name.to_string())
        .or_default()
        .push((v, probe));
}

/// Everything recorded so far.
pub fn snapshot() -> (Vec<Span>, Values) {
    let r = recorder().lock().expect("trace lock");
    (r.spans.clone(), r.values.clone())
}

/// Self time of every span: its duration minus the part its children
/// cover. Children run on the parent's thread, inside its interval and
/// one after another, so their durations add up.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own.into_iter().map(|t| t.max(0.0)).collect()
}

/// Self seconds per layer over the spans `keep` selects.
pub fn layer_self(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (s, t) in spans.iter().zip(own) {
        if keep(s) {
            *by_layer.entry(s.layer).or_default() += t;
        }
    }
    by_layer
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\
             \"parent\":{},\"run\":{},\"work\":{},\"probe\":{}}}",
            s.layer,
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.run,
            s.work,
            s.probe
        )?;
    }
    out.flush()
}
