//! The fleet-facing subcommands: `vcfr fleet serve` runs the
//! coordinator, `vcfr fleet join` runs a worker daemon that registers
//! with it, and `vcfr fleet submit` / `status` / `top` / `shutdown`
//! talk to the coordinator. See `docs/fleet.md` for the runbook.

use crate::args::Args;
use crate::commands::CliError;
use crate::serve::{render_top, serve_options};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use vcfr_bench::{shard_campaign, shard_matrix, RunSpec};
use vcfr_obs::{Backoff, Json};
use vcfr_service::{serve, serve_fleet, Client, FleetOptions};

fn fleet_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("fleet").unwrap_or("results/fleet"))
}

/// `vcfr fleet serve [--fleet D] [--port P] [--chunks N]
/// [--heartbeat-ms N] [--heartbeat-cap-ms N] [--lost-after N]` — runs
/// the coordinator until a client asks it to shut down.
pub fn cmd_fleet_serve(args: &Args) -> Result<String, CliError> {
    let defaults = FleetOptions::default();
    let opts = FleetOptions {
        dir: fleet_dir(args),
        port: args.u64_or("port", 0)? as u16,
        chunk_capacity: args.u64_or("chunks", defaults.chunk_capacity as u64)? as usize,
        heartbeat_ms: args.u64_or("heartbeat-ms", defaults.heartbeat_ms)?,
        heartbeat_cap_ms: args.u64_or("heartbeat-cap-ms", defaults.heartbeat_cap_ms)?,
        lost_after: args.u64_or("lost-after", u64::from(defaults.lost_after))? as u32,
    };
    serve_fleet(&opts)?;
    Ok(format!(
        "fleet stopped; merged manifests in {}",
        opts.dir.join("results").join("manifests").display()
    ))
}

/// `vcfr fleet join --fleet D --dir W [--slots N] [--port P]
/// [--workers N] [--queue N]` — runs a worker daemon and registers it
/// with the coordinator. The registration happens on a side thread the
/// moment the daemon publishes its endpoint file, with capped backoff
/// retries, so it does not matter whether the coordinator or the
/// worker starts first.
pub fn cmd_fleet_join(args: &Args) -> Result<String, CliError> {
    if args.value("dir").is_none() {
        return Err(CliError::Msg("fleet join needs --dir (the worker's state directory)".into()));
    }
    let opts = serve_options(args)?;
    let slots = args.u64_or("slots", opts.workers as u64)?.max(1);
    let coordinator = fleet_dir(args);
    let my_dir = opts.dir.clone();
    std::thread::spawn(move || {
        // Wait for our own daemon to publish its endpoint, then keep
        // trying to register until the coordinator accepts us.
        let mut wait = Backoff::new(Duration::from_millis(50), Duration::from_secs(1));
        let endpoint = my_dir.join(vcfr_service::ENDPOINT_FILE);
        while !endpoint.exists() {
            std::thread::sleep(wait.step());
        }
        let dir = std::fs::canonicalize(&my_dir).unwrap_or(my_dir);
        wait.reset();
        loop {
            if let Ok(mut c) = Client::connect(&coordinator) {
                if c.register(&dir, slots).is_ok() {
                    return;
                }
            }
            std::thread::sleep(wait.step());
        }
    });
    serve(&opts)?;
    Ok(format!("worker stopped; state in {}", opts.dir.display()))
}

/// `vcfr fleet submit [--fleet D] --apps a,b,c [--modes m1,m2 |
/// --campaign] [--max N] [--scale N] [--checkpoint-every N]` — shards
/// an experiment matrix (or the fault campaign) into job chunks and
/// submits each to the coordinator.
pub fn cmd_fleet_submit(args: &Args) -> Result<String, CliError> {
    let Some(apps) = args.value("apps") else {
        return Err(CliError::Msg("fleet submit needs --apps (comma-separated workloads)".into()));
    };
    let apps: Vec<&str> = apps.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
    let max = match args.value("max") {
        Some(_) => Some(args.u64_or("max", 0)?),
        None => None,
    };
    let checkpoint_every = args.u64_or("checkpoint-every", RunSpec::new("x").checkpoint_every)?;
    // Every chunk is validated here, before the first one is submitted:
    // a bad cell never leaves its predecessors pending on the fleet.
    let specs = if args.flag("campaign") {
        shard_campaign(&apps, max, checkpoint_every)
    } else {
        let modes_raw = args.value("modes").unwrap_or("base,naive,vcfr512,vcfr128,vcfr64");
        let modes: Vec<&str> =
            modes_raw.split(',').map(str::trim).filter(|m| !m.is_empty()).collect();
        shard_matrix(&apps, &modes, max, args.u64_or("scale", 1)?, checkpoint_every)
    }
    .map_err(|e| CliError::Msg(e.0))?;

    let mut client = Client::connect(&fleet_dir(args))?;
    let mut out = String::new();
    for spec in &specs {
        let id = client.submit(spec)?;
        let _ = writeln!(out, "chunk {id} submitted: {}", spec.manifest_file_name());
    }
    let _ = write!(out, "{} chunks submitted", specs.len());
    Ok(out)
}

/// Renders the fleet section of `status` / `top`: worker liveness, the
/// chunk phase counts, and the recovery tallies.
fn render_fleet(f: &Json) -> String {
    let num = |path: &str| f.get_path(path).and_then(Json::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chunks: {} pending  {} dispatched  {} done  {} failed  ({} total)",
        num("chunks.pending"),
        num("chunks.dispatched"),
        num("chunks.done"),
        num("chunks.failed"),
        num("chunks.total"),
    );
    let _ = writeln!(
        out,
        "recovery: {} manifests salvaged  {} chunks resumed  {} restarted",
        num("recovery.manifests"),
        num("recovery.resumed"),
        num("recovery.restarted"),
    );
    for w in f.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
        let n = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "node {}: {:<5} {} in flight / {} slots  {} done{}  {}",
            n("id"),
            if matches!(w.get("alive"), Some(Json::Bool(true))) { "alive" } else { "LOST" },
            n("in_flight"),
            n("slots"),
            n("done"),
            if n("misses") > 0 { format!("  ({} missed beats)", n("misses")) } else { String::new() },
            w.get("dir").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    out.pop();
    out
}

/// `vcfr fleet status [--fleet D] [--json]` — the coordinator's view of
/// its workers and chunks.
pub fn cmd_fleet_status(args: &Args) -> Result<String, CliError> {
    let mut client = Client::connect(&fleet_dir(args))?;
    let fleet = client.fleet_status()?;
    if args.flag("json") {
        return Ok(fleet.pretty());
    }
    let mut out = render_fleet(&fleet);
    out.push('\n');
    for c in fleet.get("chunk_list").and_then(Json::as_arr).unwrap_or(&[]) {
        let n = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
        let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(
            out,
            "chunk {:>3}  {:<10}  {}{}{}",
            n("id"),
            s("phase"),
            s("file"),
            if n("redispatches") > 0 {
                format!("  redispatched x{}", n("redispatches"))
            } else {
                String::new()
            },
            match c.get("error").and_then(Json::as_str) {
                Some(e) => format!("  error: {e}"),
                None => String::new(),
            },
        );
    }
    out.pop();
    Ok(out)
}

/// `vcfr fleet top [--fleet D] [--interval MS] [--count N] [--once]` —
/// the `vcfr top` dashboard over the coordinator's aggregated metrics
/// (every node's queues, throughput and latency histograms merged),
/// plus the fleet section: worker liveness and chunk phases.
pub fn cmd_fleet_top(args: &Args) -> Result<String, CliError> {
    let dir = fleet_dir(args);
    let interval = args.u64_or("interval", 1_000)?;
    let frames = if args.flag("once") { 1 } else { args.u64_or("count", u64::MAX)? };
    let mut client = Client::connect(&dir)?;
    let mut n = 0u64;
    loop {
        let metrics = client.metrics()?;
        let mut frame = render_top("vcfr fleet", &metrics);
        let _ = write!(frame, "\nnodes: {}", metrics.get("nodes").and_then(Json::as_u64).unwrap_or(0));
        if let Some(f) = metrics.get("fleet") {
            frame.push('\n');
            frame.push_str(&render_fleet(f));
        }
        n += 1;
        if n >= frames {
            return Ok(frame);
        }
        println!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(Duration::from_millis(interval.max(100)));
    }
}

/// `vcfr fleet shutdown [--fleet D] [--keep-workers]` — stops the
/// coordinator; by default it also shuts down every registered worker
/// daemon (pass `--keep-workers` to leave them draining their local
/// queues).
pub fn cmd_fleet_shutdown(args: &Args) -> Result<String, CliError> {
    let mut client = Client::connect(&fleet_dir(args))?;
    client.shutdown_fleet(!args.flag("keep-workers"))?;
    Ok(if args.flag("keep-workers") {
        "fleet shutdown requested; workers left running".to_string()
    } else {
        "fleet shutdown requested; workers stopped".to_string()
    })
}
