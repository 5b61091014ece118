//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                # run everything
//! repro fig3 fig12     # run selected experiments
//! repro check --threads 4   # CI gate on an explicit worker count
//! repro faults         # 11-app fault-injection campaign (base vs VCFR)
//! repro frontier       # entropy/security frontier sweep (Pareto table)
//! repro frontier --shard 0/2  # one shard of the sweep (fleet node)
//! repro throughput     # superblock fast-path rate on the no-stall program
//! repro fig3 --scale 4 # matrix over the scale-4 suite (longer runs)
//! ```
//!
//! Whenever the simulation matrix runs, per-run wall-clock timing is
//! written to `BENCH_repro.json` in the current directory and one run
//! manifest per (app, configuration) cell goes to `results/manifests/`.
//! The worker count comes from `--threads N` (or `N` via `--threads=N`),
//! falling back to `RAYON_NUM_THREADS` and then the machine's
//! parallelism.

use std::path::Path;
use vcfr_bench::experiments::{self as ex, Matrix, MatrixTiming};
use vcfr_bench::{campaign, manifests};
use vcfr_obs::{Json, Manifest};
use vcfr_workloads::SPEC_NAMES;

fn want(args: &[String], name: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == name)
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper: {paper}");
}

/// Shard `i` of `n` of the frontier sweep.
type Shard = (usize, usize);

/// Pulls `--threads`, `--scale` and `--shard` out of `args`, leaving
/// plain experiment names, and returns the worker count, the workload
/// scale factor and the frontier shard. An absent `--threads` falls
/// back to [`ex::default_threads`]; an absent `--scale` is 1, the
/// calibrated suite. The fleet runs one `repro frontier --shard i/n`
/// per node and merges the manifest trees.
///
/// # Errors
///
/// A message naming the flag whose value is missing, malformed or out
/// of range: `--threads 0`, `--scale 0`, or a shard `i/n` with `i >= n`.
fn parse_flags(args: &mut Vec<String>) -> Result<(usize, u64, Option<Shard>), String> {
    let threads = take_flag(args, "threads", |v| v.parse().ok().filter(|&n: &usize| n > 0))?;
    let scale = take_flag(args, "scale", |v| v.parse().ok().filter(|&n: &u64| n > 0))?;
    let shard = take_flag(args, "shard", |v| {
        let (i, n) = v.split_once('/')?;
        let (i, n): (usize, usize) = (i.parse().ok()?, n.parse().ok()?);
        (i < n).then_some((i, n))
    })?;
    Ok((threads.unwrap_or_else(ex::default_threads), scale.unwrap_or(1), shard))
}

/// Pulls every `--name V` and `--name=V` out of `args`, parsing each
/// value with `parse` (`None` refuses it); the last one wins.
fn take_flag<T>(
    args: &mut Vec<String>,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        let v = if args[i] == flag {
            if i + 1 == args.len() {
                return Err(format!("{flag} needs a value"));
            }
            args.remove(i + 1)
        } else if let Some(v) = args[i].strip_prefix(&flag).and_then(|v| v.strip_prefix('=')) {
            v.to_string()
        } else {
            i += 1;
            continue;
        };
        args.remove(i);
        value = Some(parse(&v).ok_or_else(|| format!("{flag}: invalid value {v:?}"))?);
    }
    Ok(value)
}

/// The workload the frontier sweeps: compact enough that the region
/// span — the attacker's search space — is set by `entropy_bits` at
/// every standard point.
const FRONTIER_APP: &str = "sjeng";

/// Runs the entropy/security frontier sweep (optionally one shard of
/// it), prints the Pareto table, and writes one manifest per point to
/// `out_dir`.
fn run_frontier_cmd(threads: usize, shard: Option<Shard>, out_dir: &Path) {
    let w = vcfr_workloads::by_name(FRONTIER_APP).expect("frontier app exists");
    let points: Vec<vcfr_bench::FrontierPoint> = match shard {
        Some((i, n)) => vcfr_bench::shard_frontier(&vcfr_bench::FRONTIER_POINTS, n).swap_remove(i),
        None => vcfr_bench::FRONTIER_POINTS.to_vec(),
    };
    let fz = vcfr_bench::frontier_fuzz_config();
    eprintln!(
        "frontier: {FRONTIER_APP} x {} point(s), {} trials x {} probes per point, {} thread(s) ...",
        points.len(),
        fz.trials,
        fz.probes_per_trial,
        threads
    );
    let rows = vcfr_bench::run_frontier(&w, &points, &fz, threads);
    header(
        "Entropy/security frontier - Pareto table",
        "attacker success vs slowdown vs fault-detection coverage per entropy point",
    );
    let summaries: Vec<_> = rows.iter().map(|r| r.summary()).collect();
    print!("{}", vcfr_bench::frontier_pareto_table(&summaries));
    let ms = manifests::build_frontier_manifests(&rows, &fz, threads);
    match manifests::write_manifests(out_dir, &ms) {
        Ok(n) => eprintln!("wrote {n} frontier manifests to {}/", out_dir.display()),
        Err(e) => eprintln!("warning: could not write frontier manifests: {e}"),
    }
}

/// Runs the no-stall superblock throughput measurement and prints both
/// rates; returns the fast-path run for the artefact writer.
fn throughput() -> (ex::RunTiming, ex::RunTiming) {
    let (on, off) = ex::nostall_throughput();
    header(
        "Superblock fast path - no-stall replay throughput",
        "decode-once straight-line replay with batched cycle accounting",
    );
    println!("{:<24} {:>14} {:>14}", "configuration", "insts", "insts/s");
    for r in [&on, &off] {
        println!(
            "{:<24} {:>14} {:>14.2e}",
            if r.superblock { "superblocks on" } else { "superblocks off" },
            r.instructions,
            r.insts_per_s
        );
    }
    println!(
        "speedup: {:.2}x{}",
        on.insts_per_s / off.insts_per_s.max(1e-9),
        if on.insts_per_s >= 100e6 { "  (>= 100M insts/s)" } else { "" }
    );
    (on, off)
}

/// Writes the benchmark artefacts of a matrix run: the timing record
/// (`BENCH_repro.json`, shared writer in `vcfr-obs`) and the run
/// manifest of each (app, configuration) cell under `results/manifests/`.
fn write_artifacts(ms: &[Manifest], t: &MatrixTiming) {
    // The artefact also records the superblock fast-path rate on the
    // no-stall program (superblocks on and off), so the throughput
    // claim regenerates with every matrix run.
    let (sb_on, sb_off) = ex::nostall_throughput();
    eprintln!(
        "superblock no-stall throughput: {:.1}M insts/s on, {:.1}M off",
        sb_on.insts_per_s / 1e6,
        sb_off.insts_per_s / 1e6
    );
    let mut timed = t.clone();
    timed.runs.push(sb_on);
    timed.runs.push(sb_off);
    match manifests::bench_record(&timed).write_to(Path::new("BENCH_repro.json")) {
        Ok(()) => eprintln!(
            "wrote BENCH_repro.json ({} runs, {:.2}s matrix wall, {} thread{})",
            timed.runs.len(),
            t.wall_s,
            t.threads,
            if t.threads == 1 { "" } else { "s" }
        ),
        Err(e) => eprintln!("warning: could not write BENCH_repro.json: {e}"),
    }
    match manifests::write_manifests(Path::new("results/manifests"), ms) {
        Ok(n) => eprintln!("wrote {n} run manifests to results/manifests/"),
        Err(e) => eprintln!("warning: could not write run manifests: {e}"),
    }
}

/// Runs the fault-injection campaign over `apps`, prints the coverage
/// table, and writes one manifest per (app, configuration) cell under
/// `out_dir`.
fn run_faults(apps: &[&str], threads: usize, out_dir: &Path) {
    eprintln!(
        "fault campaign: {} app(s) x {{base, vcfr128}}, {} faults per run, {} thread(s) ...",
        apps.len(),
        campaign::FAULTS_PER_RUN,
        threads
    );
    let cells = campaign::run_campaign(apps, None, threads);
    header(
        "Fault-injection campaign - detection coverage",
        "the dependability half: the mediation layer detects corrupted control-flow state",
    );
    print!("{}", campaign::coverage_table(&cells));
    let mut host = Json::obj();
    host.set("threads", Json::U64(threads as u64));
    let ms: Vec<Manifest> =
        cells.iter().map(|(spec, out)| spec.manifest(out, host.clone())).collect();
    match manifests::write_manifests(out_dir, &ms) {
        Ok(n) => eprintln!("wrote {n} campaign manifests to {}/", out_dir.display()),
        Err(e) => eprintln!("warning: could not write campaign manifests: {e}"),
    }
}

/// CI gate: recompute the headline numbers and fail (exit 1) when any
/// leaves its calibrated band.
fn check(threads: usize) -> bool {
    let (m, ms, timing) = ex::matrix_over(&SPEC_NAMES, None, 1, threads);
    write_artifacts(&ms, &timing);
    let mut ok = true;
    let mut gate = |name: &str, value: f64, lo: f64, hi: f64| {
        let pass = (lo..=hi).contains(&value);
        println!(
            "{} {:<28} {:>8.3}  (band {:.3}..{:.3})",
            if pass { "PASS" } else { "FAIL" },
            name,
            value,
            lo,
            hi
        );
        ok &= pass;
    };
    gate("fig4 naive norm IPC mean", ex::mean(ex::fig4(&m).iter().map(|r| r.1)), 0.50, 0.75);
    gate("fig12 vcfr speedup geomean", ex::geomean(ex::fig12(&m).iter().map(|r| r.1)), 1.4, 2.6);
    gate("fig13 vcfr@64 norm IPC mean", ex::mean(ex::fig13(&m).iter().map(|r| r.3)), 0.94, 1.0);
    gate(
        "fig14 drc512 miss mean (%)",
        ex::mean(ex::fig14(&m).iter().map(|r| r.1)),
        0.0,
        10.0,
    );
    gate("fig15 drc power mean (%)", ex::mean(ex::fig15(&m).iter().map(|r| r.1)), 0.0, 1.0);
    let f11 = ex::fig11();
    gate("fig11 removal mean (%)", ex::mean(f11.iter().map(|r| r.removal_pct)), 97.0, 100.0);
    gate(
        "fig11 payloads after (total)",
        f11.iter().map(|r| r.payloads_after as f64).sum(),
        0.0,
        0.0,
    );
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (threads, scale, shard) = parse_flags(&mut args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "check") {
        if scale != 1 {
            eprintln!("note: check gates on the calibrated scale-1 suite; --scale ignored");
        }
        let ok = check(threads);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "throughput") {
        let (on, _) = throughput();
        std::process::exit(if on.insts_per_s > 0.0 { 0 } else { 1 });
    }
    if want(&args, "faults") {
        run_faults(&SPEC_NAMES, threads, Path::new("results/faults"));
    }
    if want(&args, "frontier") {
        run_frontier_cmd(threads, shard, Path::new("results/frontier"));
    }
    let needs_matrix =
        ["fig3", "fig4", "fig12", "fig13", "fig14", "fig15"].iter().any(|e| want(&args, e));
    let matrix: Option<Matrix> = needs_matrix.then(|| {
        eprintln!(
            "running the 11-app x 5-config simulation matrix on {threads} thread(s){} ...",
            if scale != 1 { format!(" at scale {scale}") } else { String::new() }
        );
        // Live per-cell progress lines (stderr, wall-clock only — the
        // observer cannot perturb the simulated results).
        let total = SPEC_NAMES.len() * ex::MODE_NAMES.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let (m, ms, timing) = ex::matrix_over_observed(&SPEC_NAMES, None, scale, threads, &|r| {
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            eprintln!(
                "  [{n:>3}/{total}] {:<10} {:<8} {:>11} insts in {:>6.2}s ({:>6.1}M insts/s)",
                r.app,
                r.mode,
                r.instructions,
                r.wall_s,
                r.insts_per_s / 1e6
            );
        });
        write_artifacts(&ms, &timing);
        m
    });

    if want(&args, "fig2") {
        header("Figure 2 - instruction-level emulation slowdown", "hundreds of times vs native");
        println!("{:<12} {:>14} {:>12}", "app", "emulated CPI", "slowdown");
        let rows = ex::fig2();
        for r in &rows {
            println!("{:<12} {:>14.1} {:>11.0}x", r.name, r.emulated_cpi, r.slowdown);
        }
        println!(
            "{:<12} {:>14} {:>11.0}x",
            "mean",
            "",
            ex::mean(rows.iter().map(|r| r.slowdown))
        );
    }

    if let Some(m) = matrix.as_ref() {
        if want(&args, "fig3") {
            header(
                "Figure 3 - naive hardware ILR cache impact",
                "IL1 miss ratio avg 9.4x; prefetch useless +28%; L2 pressure +36%",
            );
            println!(
                "{:<12} {:>10} {:>10} {:>12} {:>20} {:>16}",
                "app", "base IL1%", "naive IL1%", "miss ratio", "prefetch useless +pp",
                "L2 pressure +%"
            );
            let rows = ex::fig3(m);
            for r in &rows {
                println!(
                    "{:<12} {:>10.3} {:>10.2} {:>11.0}x {:>20.1} {:>16.1}",
                    r.name, r.base_il1_pct, r.naive_il1_pct, r.il1_miss_ratio,
                    r.prefetch_useless_delta_pct, r.l2_pressure_increase_pct
                );
            }
            println!(
                "{:<12} {:>10.3} {:>10.2} {:>11.0}x {:>20.1} {:>16.1}",
                "mean",
                ex::mean(rows.iter().map(|r| r.base_il1_pct)),
                ex::mean(rows.iter().map(|r| r.naive_il1_pct)),
                ex::geomean(rows.iter().map(|r| r.il1_miss_ratio)),
                ex::mean(rows.iter().map(|r| r.prefetch_useless_delta_pct)),
                ex::mean(rows.iter().map(|r| r.l2_pressure_increase_pct)),
            );
        }

        if want(&args, "fig4") {
            header("Figure 4 - naive hardware ILR normalized IPC", "mean ~= 0.61-0.66");
            println!("{:<12} {:>16}", "app", "normalized IPC");
            let rows = ex::fig4(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>16.3}");
            }
            println!("{:<12} {:>16.3}", "mean", ex::mean(rows.iter().map(|r| r.1)));
        }
    }

    if want(&args, "table1") {
        header("Table I - qualitative comparison", "as printed");
        print!("{}", ex::table1());
    }

    if want(&args, "table2") {
        header(
            "Table II - static control-flow statistics",
            "direct >> indirect; xalan has the most indirect calls",
        );
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>12}",
            "app", "direct", "indirect", "calls", "ind. calls"
        );
        for (n, s) in ex::table2() {
            println!(
                "{:<12} {:>10} {:>10} {:>10} {:>12}",
                n, s.direct_transfers, s.indirect_transfers, s.function_calls,
                s.indirect_function_calls
            );
        }
    }

    if want(&args, "fig9") {
        header("Figure 9 - functions with/without ret", "both populations present");
        println!("{:<12} {:>10} {:>12}", "app", "with ret", "without ret");
        for (n, w, wo) in ex::fig9() {
            println!("{n:<12} {w:>10} {wo:>12}");
        }
    }

    if want(&args, "fig11") {
        header(
            "Figure 11 / SecV-B - gadget removal and payload assembly",
            "~98% gadgets removed; payloads before: all, after: none",
        );
        println!(
            "{:<12} {:>10} {:>10} {:>16} {:>15}",
            "app", "gadgets", "removed%", "payloads before", "payloads after"
        );
        let rows = ex::fig11();
        for r in &rows {
            println!(
                "{:<12} {:>10} {:>9.1}% {:>16} {:>15}",
                r.name, r.total_gadgets, r.removal_pct, r.payloads_before, r.payloads_after
            );
        }
        println!(
            "{:<12} {:>10} {:>9.1}%",
            "mean",
            "",
            ex::mean(rows.iter().map(|r| r.removal_pct))
        );
    }

    if want(&args, "ablations") {
        header(
            "Ablations - DRC design space, context switches, page confinement",
            "extensions beyond the paper (DESIGN.md SS6)",
        );
        println!("{:<42} {:>10} {:>10} {:>24}", "setting", "norm IPC", "DRC miss", "note");
        for r in ex::ablations() {
            println!(
                "{:<42} {:>10.3} {:>9.1}% {:>24}",
                r.setting, r.normalized_ipc, r.drc_miss_pct, r.note
            );
        }

        header(
            "SecIV-A option 1 - software return-address randomization",
            "call -> push+jmp expansion 'expands size of the original program'",
        );
        println!("{:<12} {:>15} {:>12} {:>10}", "app", "calls expanded", "extra bytes", "growth");
        for (n, calls, bytes, pct) in ex::call_expansion() {
            println!("{n:<12} {calls:>15} {bytes:>12} {pct:>9.2}%");
        }

        header(
            "SecV-C entropy - bits of placement uncertainty per instruction",
            "large randomization space at instruction granularity",
        );
        for (n, bits) in ex::entropy() {
            println!("{n:<12} {bits:>6.1} bits");
        }
    }

    if want(&args, "variance") {
        header(
            "Layout sensitivity - 5 random layouts per app",
            "conclusions should not depend on the particular layout drawn",
        );
        println!(
            "{:<12} {:>12} {:>10} {:>12} {:>10}",
            "app", "naive mean", "spread", "VCFR mean", "spread"
        );
        for (n, nm, ns, vm, vs) in
            ex::seed_variance(&["bzip2", "hmmer", "h264ref", "lbm"], &[1, 2, 3, 4, 5], threads)
        {
            println!("{n:<12} {nm:>12.3} {ns:>10.3} {vm:>12.3} {vs:>10.3}");
        }
    }

    if want(&args, "multicore") {
        header(
            "SecIV-D demo - two cores, shared L2 (hmmer + h264ref)",
            "randomization applies to multi-core 'with ease' (read-only text)",
        );
        println!(
            "{:<16} {:>16} {:>16} {:>14}",
            "pairing", "core0 norm IPC", "core1 norm IPC", "L2 miss rate"
        );
        for (p, a, b, l2) in ex::multicore_demo() {
            println!("{p:<16} {a:>16.3} {b:>16.3} {l2:>13.1}%");
        }

        header(
            "Multicore rerand cells - VCFR core + baseline sibling",
            "live re-randomization on one core while the other streams the shared L2",
        );
        println!(
            "{:<18} {:>12} {:>14} {:>18} {:>14}",
            "pairing", "epoch swaps", "core0 IPC", "contention cycles", "L2 miss rate"
        );
        let cells = ex::multicore_rerand_cells(threads, 300_000);
        for c in &cells {
            println!(
                "{:<18} {:>12} {:>14.3} {:>18} {:>13.1}%",
                format!("{}+{}", c.vcfr_app, c.base_app),
                c.output.per_core[0].rerand_epochs,
                c.output.per_core[0].ipc(),
                c.output.stats.contention_stall_cycles,
                100.0 * c.output.shared_l2.miss_rate()
            );
        }
        let ms = manifests::build_multicore_manifests(&cells, threads);
        match manifests::write_manifests(Path::new("results/manifests"), &ms) {
            Ok(n) => eprintln!("wrote {n} multicore manifests to results/manifests/"),
            Err(e) => eprintln!("warning: could not write multicore manifests: {e}"),
        }
    }

    if want(&args, "ooo") {
        header(
            "SecIX preview - 4-wide out-of-order core",
            "future work: 'extend the idea to the out-of-order superscalar processor'",
        );
        println!(
            "{:<12} {:>10} {:>16} {:>16}",
            "app", "base IPC", "naive norm IPC", "VCFR norm IPC"
        );
        let rows = ex::ooo_preview(threads);
        for (n, b, nv, vc) in &rows {
            println!("{n:<12} {b:>10.3} {nv:>16.3} {vc:>16.3}");
        }
        println!(
            "{:<12} {:>10.3} {:>16.3} {:>16.3}",
            "mean",
            ex::mean(rows.iter().map(|r| r.1)),
            ex::mean(rows.iter().map(|r| r.2)),
            ex::mean(rows.iter().map(|r| r.3)),
        );
    }

    if let Some(m) = matrix.as_ref() {
        if want(&args, "fig12") {
            header("Figure 12 - VCFR speedup over naive hardware ILR", "mean 1.63x");
            println!("{:<12} {:>10}", "app", "speedup");
            let rows = ex::fig12(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>9.2}x");
            }
            println!("{:<12} {:>9.2}x", "mean", ex::geomean(rows.iter().map(|r| r.1)));
        }

        if want(&args, "fig13") {
            header(
                "Figure 13 - normalized IPC vs DRC size",
                "512: ~98.9%; 64: ~97.9% of baseline",
            );
            println!("{:<12} {:>10} {:>10} {:>10}", "app", "DRC 512", "DRC 128", "DRC 64");
            let rows = ex::fig13(m);
            for (n, a, b, c) in &rows {
                println!("{n:<12} {a:>10.3} {b:>10.3} {c:>10.3}");
            }
            println!(
                "{:<12} {:>10.3} {:>10.3} {:>10.3}",
                "mean",
                ex::mean(rows.iter().map(|r| r.1)),
                ex::mean(rows.iter().map(|r| r.2)),
                ex::mean(rows.iter().map(|r| r.3)),
            );
        }

        if want(&args, "fig14") {
            header("Figure 14 - DRC miss rates", "512 entries: 4.5% avg; 64 entries: 20.6% avg");
            println!("{:<12} {:>10} {:>10}", "app", "DRC 512", "DRC 64");
            let rows = ex::fig14(m);
            for (n, a, b) in &rows {
                println!("{n:<12} {a:>9.1}% {b:>9.1}%");
            }
            println!(
                "{:<12} {:>9.1}% {:>9.1}%",
                "mean",
                ex::mean(rows.iter().map(|r| r.1)),
                ex::mean(rows.iter().map(|r| r.2)),
            );
        }

        if want(&args, "fig15") {
            header("Figure 15 - DRC dynamic power overhead", "0.18% of CPU dynamic power avg");
            println!("{:<12} {:>12}", "app", "overhead");
            let rows = ex::fig15(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>11.3}%");
            }
            println!("{:<12} {:>11.3}%", "mean", ex::mean(rows.iter().map(|r| r.1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_spellings_leave_the_experiment_names() {
        let mut a = args("fig3 --threads 3 --scale=4 frontier --shard=1/2");
        assert_eq!(parse_flags(&mut a), Ok((3, 4, Some((1, 2)))));
        assert_eq!(a, args("fig3 frontier"));
        let mut a = args("--threads=2 --scale 1 --shard 0/1");
        assert_eq!(parse_flags(&mut a), Ok((2, 1, Some((0, 1)))));
        assert!(a.is_empty());
    }

    #[test]
    fn absent_flags_take_their_defaults() {
        let mut a = args("check");
        assert_eq!(parse_flags(&mut a), Ok((ex::default_threads(), 1, None)));
        assert_eq!(a, args("check"));
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        for (line, flag) in [
            ("check --threads", "--threads"),
            ("--scale", "--scale"),
            ("frontier --shard", "--shard"),
        ] {
            let e = parse_flags(&mut args(line)).expect_err(line);
            assert!(e.contains(flag), "{line}: {e}");
        }
    }

    #[test]
    fn malformed_and_out_of_range_values_name_the_flag() {
        for (line, flag) in [
            ("frontier --shard 5/2", "--shard"),
            ("frontier --shard x", "--shard"),
            ("frontier --shard=0/0", "--shard"),
            ("--threads 0", "--threads"),
            ("--threads=x", "--threads"),
            ("--scale 0", "--scale"),
        ] {
            let e = parse_flags(&mut args(line)).expect_err(line);
            assert!(e.contains(flag), "{line}: {e}");
        }
    }
}
