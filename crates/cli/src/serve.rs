//! The service-facing subcommands: `vcfr serve` runs the daemon,
//! `vcfr submit` / `vcfr jobs` / `vcfr top` / `vcfr shutdown` talk to
//! it.

use crate::args::Args;
use crate::commands::{engine_arg, CliError};
use std::fmt::Write as _;
use std::path::PathBuf;
use vcfr_bench::RunSpec;
use vcfr_obs::Json;
use vcfr_service::{serve, Client, ServeOptions};

fn state_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("dir").unwrap_or("results/service"))
}

/// `vcfr serve [--dir D] [--port P] [--workers N] [--queue N]` — runs
/// the batch-simulation daemon until a client asks it to shut down.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let opts = ServeOptions {
        dir: state_dir(args),
        port: args.u64_or("port", 0)? as u16,
        workers: args.u64_or("workers", 2)? as usize,
        queue_capacity: args.u64_or("queue", 16)? as usize,
    };
    serve(&opts)?;
    Ok(format!("service stopped; state in {}", opts.dir.display()))
}

/// `vcfr submit <workload> [--mode M] [--drc N] [--max N] [--seed N]
/// [--rerand-epoch N] [--checkpoint-every N] [--scale N] [--cores N]
/// [--dir D] [--ooo] [--faults] [--watch]`.
pub fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let mut spec = RunSpec::new(args.positional(0, "workload name")?);
    spec.faults = args.flag("faults");
    spec.engine = engine_arg(args)?;
    // `--mode` takes both the canonical (`base`/`vcfr128`) and the
    // historical (`baseline`/`vcfr` + `--drc`) vocabularies.
    let drc = args.u64_or("drc", vcfr_bench::DEFAULT_DRC_ENTRIES as u64)? as usize;
    spec.mode = vcfr_bench::ModeSpec::from_wire(args.value("mode").unwrap_or("vcfr"), drc)
        .map_err(|e| CliError::Msg(e.to_string()))?;
    spec.max_insts = args.u64_or("max", spec.max_insts)?;
    spec.seed = args.u64_or("seed", spec.seed)?;
    spec.checkpoint_every = args.u64_or("checkpoint-every", spec.checkpoint_every)?;
    spec.scale = args.u64_or("scale", spec.scale)?;
    if args.value("rerand-epoch").is_some() {
        spec.rerand_epoch = Some(args.u64_or("rerand-epoch", 0)?);
    }
    spec.validate().map_err(|e| CliError::Msg(e.0))?;

    let mut client = Client::connect(&state_dir(args))?;
    let id = client.submit(&spec)?;
    let mut out = format!("job {id} submitted: {} {}", spec.workload, spec.mode);
    if args.flag("watch") {
        // Event-driven: the daemon pushes `progress` lines as the
        // job's telemetry tap fires and `status` lines on phase
        // changes; between events its watch loop sleeps with capped
        // exponential backoff, so neither side polls on a fixed tick.
        out.push('\n');
        client.watch(id, |ev| {
            let _ = writeln!(out, "  {}", render_watch_event(id, ev));
        })?;
        out.pop();
    }
    Ok(out)
}

/// One human-readable line per watch event (`progress` or `status`).
fn render_watch_event(id: u64, ev: &Json) -> String {
    let num = |k: &str| ev.get(k).and_then(Json::as_u64).unwrap_or(0);
    match ev.get("event").and_then(Json::as_str) {
        Some("progress") => {
            let insts = num("instructions");
            let max = num("max_insts").max(1);
            let cycles = num("cycles");
            let sb_insts = ev.get_path("superblock.insts").and_then(Json::as_u64).unwrap_or(0);
            format!(
                "job {id}: {insts}/{max} insts ({:.0}%)  ipc {:.3}  sb {:.1}%",
                insts as f64 / max as f64 * 100.0,
                if cycles == 0 { 0.0 } else { insts as f64 / cycles as f64 },
                sb_insts as f64 / insts.max(1) as f64 * 100.0,
            )
        }
        _ => {
            let phase = ev.get("phase").and_then(Json::as_str).unwrap_or("?");
            match ev.get("error").and_then(Json::as_str) {
                Some(e) => format!("job {id}: {phase} at {} instructions  error: {e}", num("instructions")),
                None => format!("job {id}: {phase} at {} instructions", num("instructions")),
            }
        }
    }
}

/// `vcfr jobs [--dir D]` — lists every job the daemon knows about.
pub fn cmd_jobs(args: &Args) -> Result<String, CliError> {
    let mut client = Client::connect(&state_dir(args))?;
    let jobs = client.jobs()?;
    if jobs.is_empty() {
        return Ok("no jobs".to_string());
    }
    let mut out = format!(
        "{:>4}  {:<12} {:<10} {:<8} {:>14}/{:<14} {:>6}\n",
        "id", "workload", "mode", "phase", "insts", "budget", "ckpts"
    );
    for j in &jobs {
        let field = |k: &str| j.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
        let num = |k: &str| j.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>4}  {:<12} {:<10} {:<8} {:>14}/{:<14} {:>6}{}",
            num("id"),
            field("workload"),
            field("mode"),
            field("phase"),
            num("instructions"),
            num("max_insts"),
            num("checkpoints"),
            match j.get("error").and_then(|v| v.as_str()) {
                Some(e) => format!("  error: {e}"),
                None => String::new(),
            },
        );
    }
    out.pop();
    Ok(out)
}

/// Renders one frame of the `vcfr top` dashboard from a `metrics`
/// response body — also reused by `vcfr fleet top`, whose aggregated
/// body has the same shape (`title` names the surface).
pub(crate) fn render_top(title: &str, m: &Json) -> String {
    let num = |path: &str| m.get_path(path).and_then(Json::as_u64).unwrap_or(0);
    let fnum = |path: &str| m.get_path(path).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title} — up {:.0}s  |  queue {}/{} waiting, {} in flight",
        fnum("uptime_secs"),
        num("queue.depth"),
        num("queue.capacity"),
        num("queue.in_flight"),
    );
    let _ = writeln!(
        out,
        "jobs: {} queued  {} running  {} done  {} failed",
        num("jobs.queued"),
        num("jobs.running"),
        num("jobs.done"),
        num("jobs.failed"),
    );
    let _ = writeln!(
        out,
        "throughput: {} insts retired  ({:.2}M insts/s)  |  {} progress events",
        num("throughput.instructions"),
        fnum("throughput.insts_per_sec") / 1e6,
        num("progress_events"),
    );
    if let Some(workers) = m.get("workers").and_then(Json::as_arr) {
        for (i, w) in workers.iter().enumerate() {
            let util = w.get("utilization").and_then(Json::as_f64).unwrap_or(0.0);
            let bars = (util * 20.0).round() as usize;
            let _ = writeln!(
                out,
                "worker {i}: [{:<20}] {:>5.1}%  {} jobs  busy {:.1}s",
                "#".repeat(bars.min(20)),
                util * 100.0,
                w.get("jobs").and_then(Json::as_u64).unwrap_or(0),
                w.get("busy_secs").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    let lat = |k: &str| m.get_path(&format!("job_latency_ms.{k}")).and_then(Json::as_u64);
    if let (Some(n), Some(min), Some(max)) = (lat("count"), lat("min"), lat("max")) {
        let sum = lat("sum").unwrap_or(0);
        let _ = writeln!(
            out,
            "job latency: {n} finished  min {min}ms  mean {:.0}ms  max {max}ms",
            sum as f64 / n.max(1) as f64,
        );
    }
    out.pop();
    out
}

/// `vcfr top [--dir D] [--interval MS] [--count N] [--once]` — a
/// polling dashboard over the daemon's `metrics` endpoint: queue
/// occupancy, per-worker utilization, job phases, throughput totals
/// and the job-latency histogram. `--once` prints a single frame and
/// exits (scripting-friendly); otherwise the terminal is redrawn every
/// `--interval` milliseconds (default 1000), `--count` times (default:
/// until the daemon goes away).
pub fn cmd_top(args: &Args) -> Result<String, CliError> {
    let dir = state_dir(args);
    let interval = args.u64_or("interval", 1_000)?;
    let once = args.flag("once");
    let frames = if once { 1 } else { args.u64_or("count", u64::MAX)? };
    let mut client = Client::connect(&dir)?;
    let mut n = 0u64;
    loop {
        let metrics = client.metrics()?;
        let frame = render_top("vcfr serve", &metrics);
        n += 1;
        if n >= frames {
            return Ok(frame);
        }
        // Clear + home between frames so the dashboard redraws in
        // place (plain prints under --once / --count 1 keep the output
        // pipe-friendly).
        println!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_millis(interval.max(100)));
    }
}

/// `vcfr shutdown [--dir D]` — asks the daemon to checkpoint every
/// in-flight job and exit.
pub fn cmd_shutdown(args: &Args) -> Result<String, CliError> {
    let mut client = Client::connect(&state_dir(args))?;
    client.shutdown()?;
    Ok("shutdown requested; in-flight jobs checkpointed".to_string())
}
