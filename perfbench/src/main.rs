//! The repository's benchmark: runs one named workload for a fixed time
//! and prints its metrics, with the JSON result as the last line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix|serve|frontier|fleet --seed N --seconds S --trace 0|1 [--threads T]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` runs half the time untraced and half traced, then the
//! layer probe, and reports the per-layer metrics, the layer-tax table
//! and the tracing overhead. See `perfbench/README.md`.

mod fleet;
mod frontier;
mod gate;
mod matrix;
mod probe;
mod serve;
mod services;
mod trace;
mod util;
mod workload;

use gate::Gate;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Values};
use util::{median, peak_rss_mib, percentile};
use workload::{Ctx, Pass, Workload};

const WORKLOADS: [&str; 4] = ["matrix", "serve", "frontier", "fleet"];
/// Where spans and scratch state go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";
/// Set-up runs at least this often, and more while the total measured
/// set-up time is under [`SETUP_SECONDS`], up to [`MAX_SETUPS`]: a
/// set-up of a millisecond needs hundreds of samples for a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--threads" => a.threads = v.parse::<usize>().map_err(|e| bad(&e))?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() {
    util::steady_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let state = Path::new(OUT_DIR).join(format!("state-{}", std::process::id()));
    let result = run(&args, &state);
    let _ = std::fs::remove_dir_all(&state);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

type Setup = fn(&Ctx) -> Result<Box<dyn Workload>, String>;

fn setup_fn(workload: &str) -> Setup {
    match workload {
        "matrix" => matrix::setup,
        "serve" => serve::setup,
        "frontier" => frontier::setup,
        _ => fleet::setup,
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
    Metric {
        name: name.into(),
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn run(args: &Args, state: &Path) -> Result<(), String> {
    let gate = Arc::new(Gate::default());
    let ctx = |dir: PathBuf| Ctx {
        seed: args.seed,
        threads: args.threads,
        dir,
        gate: Arc::clone(&gate),
    };

    // Set up several times and keep the last; the median is `setup_s`.
    let mut setups = Vec::new();
    let mut wl: Option<Box<dyn Workload>> = None;
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        if let Some(w) = wl.take() {
            w.close()?;
        }
        let c = ctx(state.join(format!("setup{}", setups.len())));
        let t = Instant::now();
        wl = Some(setup_fn(&args.workload)(&c)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("set up at least once");
    util::reset_peak_rss();

    println!(
        "perfbench {} seed={} threads={} seconds={} nproc={}",
        args.workload,
        args.seed,
        args.threads,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let metrics = if args.trace {
        let plain = wl.pass(deadline(args.seconds / 2.0));
        trace::set(true, false);
        let traced = wl.pass(deadline(args.seconds / 2.0));
        trace::set(true, true);
        let ladder = probe::run(&ctx(state.join("probe")), &gate)?;
        trace::set(false, false);
        let (spans, values) = trace::snapshot();
        let spans_file =
            Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&spans_file, &spans)
            .map_err(|e| format!("{}: {e}", spans_file.display()))?;
        println!("spans: {} written to {}", spans.len(), spans_file.display());
        per_layer(
            &args.workload,
            &spans,
            &values,
            &plain,
            &traced,
            wl.lanes(),
            &ladder,
        )
    } else {
        let pass = wl.pass(deadline(args.seconds));
        end_to_end(&pass, &setups)
    };
    wl.close()?;

    let (attempted, failed) = (gate.attempted(), gate.failed());
    println!(
        "digest {} {} ({} manifests)",
        args.workload,
        gate.digest(),
        gate.manifest_count()
    );
    for m in &metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    for why in gate.misses() {
        println!("gate miss: {why}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

fn end_to_end(pass: &Pass, setups: &[f64]) -> Vec<Metric> {
    let wall = pass.wall_s.max(1e-9);
    vec![
        metric("setup_s", median(setups), "s"),
        metric(
            "sim_minsts_per_s",
            pass.insts as f64 / wall / 1e6,
            "Minsts/s",
        ),
        metric("jobs_per_s", pass.jobs_ms.len() as f64 / wall, "1/s"),
        metric("job_ms_p50", percentile(&pass.jobs_ms, 50.0), "ms"),
        metric("job_ms_p95", percentile(&pass.jobs_ms, 95.0), "ms"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// The workload's own samples when it has any, else the probe's.
fn own_or_probe<T>(all: impl Iterator<Item = (T, bool)>) -> Vec<T> {
    let (own, probe): (Vec<_>, Vec<_>) = all.partition(|(_, p)| !p);
    let pick = if own.is_empty() { probe } else { own };
    pick.into_iter().map(|(t, _)| t).collect()
}

/// How a per-layer metric is computed from the trace.
enum Src {
    /// Median duration of the named spans, in ms.
    Ms(String),
    /// Work units of the named spans per second, in millions.
    Rate(String),
    /// Median of the named readings.
    Median(&'static str),
    /// Sum of the named readings (0 when none were taken).
    Sum(&'static str),
    /// Sum of the first readings over sum of the second.
    Ratio(&'static str, &'static str),
}

/// Every per-layer metric: name, unit, source.
fn layer_table() -> Vec<(String, &'static str, Src)> {
    let points: Vec<String> = vcfr_bench::FRONTIER_POINTS
        .iter()
        .map(|p| format!("e{}", p.entropy_bits))
        .collect();
    let ms = |n: &str| Src::Ms(n.to_string());
    let mut t = vec![
        (
            "workloads.build_ms".to_string(),
            "ms",
            ms("workloads.build"),
        ),
        (
            "rewriter.randomize_ms".to_string(),
            "ms",
            ms("rewriter.randomize"),
        ),
    ];
    for e in &points {
        t.push((
            format!("rewriter.randomize_ms.{e}"),
            "ms",
            Src::Ms(format!("rewriter.randomize.{e}")),
        ));
    }
    for e in &points {
        t.push((
            format!("isa.machine_new_ms.{e}"),
            "ms",
            Src::Ms(format!("isa.machine_new.{e}")),
        ));
    }
    t.push((
        "isa.reference_minsts_per_s".into(),
        "Minsts/s",
        Src::Rate("isa.reference".into()),
    ));
    for c in matrix::COLS {
        t.push((
            format!("sim.minsts_per_s.{}", c.name),
            "Minsts/s",
            Src::Rate(format!("sim.run.{}", c.name)),
        ));
    }
    t.extend([
        (
            "sim.session_new_ms".to_string(),
            "ms",
            ms("sim.session_new"),
        ),
        (
            "sim.superblock_frac".into(),
            "ratio",
            Src::Ratio("sim.sb_insts", "sim.insts"),
        ),
        ("sim.checkpoint_ms".into(), "ms", ms("sim.checkpoint")),
        (
            "sim.checkpoint_kb".into(),
            "KiB",
            Src::Median("sim.checkpoint_kb"),
        ),
        ("sim.restore_ms".into(), "ms", ms("sim.restore")),
        ("bench.manifest_ms".into(), "ms", ms("bench.manifest")),
        (
            "bench.tail_idle_frac".into(),
            "ratio",
            Src::Median("bench.tail_idle_frac"),
        ),
        ("bench.merge_ms".into(), "ms", ms("bench.merge")),
        ("gadget.scan_ms".into(), "ms", ms("gadget.scan")),
    ]);
    for e in &points {
        t.push((
            format!("gadget.trial_ms.{e}"),
            "ms",
            Src::Ms(format!("gadget.trial.{e}")),
        ));
    }
    for e in &points {
        t.push((
            format!("gadget.launch_ms.{e}"),
            "ms",
            Src::Ms(format!("gadget.launch.{e}")),
        ));
    }
    t.extend([
        (
            "gadget.mapped_probe_frac".to_string(),
            "ratio",
            Src::Median("gadget.mapped_probe_frac"),
        ),
        ("service.rpc_ms".into(), "ms", ms("service.rpc")),
        ("service.submit_ms".into(), "ms", ms("service.submit")),
        ("service.fetch_ms".into(), "ms", ms("service.fetch")),
        (
            "service.queue_ms".into(),
            "ms",
            Src::Median("service.queue_ms"),
        ),
        ("service.run_ms".into(), "ms", Src::Median("service.run_ms")),
        (
            "service.checkpoints_per_job".into(),
            "count",
            Src::Median("service.checkpoints_per_job"),
        ),
        (
            "service.worker_util".into(),
            "ratio",
            Src::Median("service.worker_util"),
        ),
        (
            "service.refused".into(),
            "count",
            Src::Sum("service.refused"),
        ),
        (
            "fleet.dispatch_ms".into(),
            "ms",
            Src::Median("fleet.dispatch_ms"),
        ),
        ("fleet.chunk_ms".into(), "ms", Src::Median("fleet.chunk_ms")),
        (
            "fleet.redispatches".into(),
            "count",
            Src::Sum("fleet.redispatches"),
        ),
    ]);
    t
}

fn layer_value(src: &Src, spans: &[Span], values: &Values) -> f64 {
    let readings =
        |name: &str| -> Vec<f64> { own_or_probe(values.get(name).into_iter().flatten().copied()) };
    let named = |name: &str| {
        own_or_probe(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s, s.probe)),
        )
    };
    match src {
        Src::Ms(n) => median(&named(n).iter().map(|s| s.secs() * 1e3).collect::<Vec<_>>()),
        Src::Rate(n) => {
            let s = named(n);
            let secs: f64 = s.iter().map(|s| s.secs()).sum();
            s.iter().map(|s| s.work).sum::<u64>() as f64 / secs.max(1e-9) / 1e6
        }
        Src::Median(n) => median(&readings(n)),
        Src::Sum(n) => readings(n).iter().sum(),
        Src::Ratio(a, b) => {
            readings(a).iter().sum::<f64>() / readings(b).iter().sum::<f64>().max(1.0)
        }
    }
}

fn per_layer(
    workload: &str,
    spans: &[Span],
    values: &Values,
    plain: &Pass,
    traced: &Pass,
    lanes: usize,
    ladder: &[f64],
) -> Vec<Metric> {
    let mut out: Vec<Metric> = layer_table()
        .into_iter()
        .map(|(name, unit, src)| metric(name, layer_value(&src, spans, values), unit))
        .collect();

    // The layer-tax table: self time of the workload's own spans per
    // layer, as a share of lanes × traced wall; the rest is idle.
    let total = lanes as f64 * traced.wall_s.max(1e-9);
    let by_layer = trace::layer_self(spans, |s| !s.probe);
    let busy: f64 = by_layer.values().sum();
    println!(
        "layer-tax {workload} (self time over {lanes} lane(s) x {:.3} s)",
        traced.wall_s
    );
    for (layer, secs) in by_layer
        .iter()
        .map(|(l, s)| (*l, *s))
        .chain([("idle", (total - busy).max(0.0))])
    {
        println!(
            "  {layer:<10} {:>7.2}%  {secs:>9.4} s",
            100.0 * secs / total
        );
        out.push(metric(format!("tax.{layer}"), secs / total, "ratio"));
    }
    println!("ladder (ms per step; + over the step before)");
    for (i, (step, ms)) in probe::LADDER.iter().zip(ladder).enumerate() {
        let delta = if i == 0 { *ms } else { ms - ladder[i - 1] };
        println!("  {step:<10} {ms:>10.3}  {delta:>+10.3}");
        out.push(metric(format!("ladder.{step}_ms"), *ms, "ms"));
    }
    let rate = |p: &Pass| p.jobs_ms.len() as f64 / p.wall_s.max(1e-9);
    let overhead = if rate(traced) > 0.0 {
        rate(plain) / rate(traced) - 1.0
    } else {
        0.0
    };
    println!(
        "trace overhead: {:.2}% ({:.3} vs {:.3} jobs/s untraced)",
        100.0 * overhead,
        rate(traced),
        rate(plain)
    );
    out.push(metric("trace.overhead_frac", overhead, "ratio"));
    out
}
