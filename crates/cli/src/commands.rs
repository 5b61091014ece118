//! The CLI commands. Each command is a plain function from parsed
//! arguments to a rendered report string, so they are directly testable.

use crate::args::{Args, ArgsError};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use vcfr_bench::{build_engine_manifest, rand_params_json, ModeSpec};
use vcfr_core::{DrcConfig, RandParams};
use vcfr_gadget::{AttackSurface, Capability};
use vcfr_isa::{Image, Machine, IMAGE_MAGIC};
use vcfr_rewriter::{
    analyze_control_flow, disassemble, randomize, Cfg, RandomizeConfig, RandomizedProgram,
    PROGRAM_MAGIC,
};
use vcfr_obs::{fingerprint, CycleAccounting, Json, Manifest};
use vcfr_sim::{EngineKind, Session, SimConfig, SimStats, VcfrError};

/// A CLI failure. Usage mistakes exit with status 2, everything else
/// with status 1; simulation-stack failures stay typed all the way to
/// the exit-code decision instead of being flattened into strings.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(ArgsError),
    /// The simulation stack failed (config, run, or checkpoint).
    Vcfr(VcfrError),
    /// The batch-simulation service failed (daemon or client side).
    Service(vcfr_service::ServiceError),
    /// Any other failure, already rendered for the user.
    Msg(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Vcfr(e) => write!(f, "{e}"),
            CliError::Service(e) => write!(f, "{e}"),
            CliError::Msg(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(e) => Some(e),
            CliError::Vcfr(e) => Some(e),
            CliError::Service(e) => Some(e),
            CliError::Msg(_) => None,
        }
    }
}

impl From<vcfr_service::ServiceError> for CliError {
    fn from(e: vcfr_service::ServiceError) -> CliError {
        CliError::Service(e)
    }
}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> CliError {
        CliError::Usage(e)
    }
}

impl From<VcfrError> for CliError {
    fn from(e: VcfrError) -> CliError {
        CliError::Vcfr(e)
    }
}

fn fail(msg: impl Into<String>) -> CliError {
    CliError::Msg(msg.into())
}

/// Either kind of on-disk artefact.
pub enum Artefact {
    /// A plain program image.
    Image(Image),
    /// A randomized program (image pair + tables).
    Randomized(Box<RandomizedProgram>),
}

/// Loads a file, dispatching on its magic header.
///
/// # Errors
///
/// I/O failures and unknown/corrupt formats.
pub fn load(path: &str) -> Result<Artefact, CliError> {
    let bytes =
        fs::read(Path::new(path)).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    if bytes.len() >= 8 && bytes[..8] == IMAGE_MAGIC {
        return Ok(Artefact::Image(
            Image::from_bytes(&bytes).map_err(|e| fail(format!("{path}: {e}")))?,
        ));
    }
    if bytes.len() >= 8 && bytes[..8] == PROGRAM_MAGIC {
        return Ok(Artefact::Randomized(Box::new(
            RandomizedProgram::from_bytes(&bytes).map_err(|e| fail(format!("{path}: {e}")))?,
        )));
    }
    Err(fail(format!("{path}: not a VCFR image or randomized program")))
}

fn load_image(path: &str) -> Result<Image, CliError> {
    match load(path)? {
        Artefact::Image(img) => Ok(img),
        Artefact::Randomized(rp) => Ok(rp.original),
    }
}

/// `vcfr build <workload> -o <file> [--scale N]` — builds a named
/// synthetic workload (with its outer repeat count multiplied by
/// `--scale`) and writes its image.
pub fn cmd_build(args: &Args) -> Result<String, CliError> {
    let name = args.positional(0, "workload name")?;
    let out = args.value("o").ok_or_else(|| fail("missing -o/--o output path"))?;
    let scale = args.u64_or("scale", 1)?;
    let w = vcfr_workloads::by_name_scaled(name, scale).ok_or_else(|| {
        fail(format!("unknown workload {name:?}; known: {:?}", vcfr_workloads::SPEC_NAMES))
    })?;
    let bytes = w.image.to_bytes();
    fs::write(out, &bytes).map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "wrote {} ({} bytes, text {} bytes, {} symbols) — {}",
        out,
        bytes.len(),
        w.image.text().bytes.len(),
        w.image.symbols.len(),
        w.description,
    ))
}

/// `vcfr asm <file.s> --o <out>` — assembles textual source into an
/// image file.
pub fn cmd_asm(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "source file")?;
    let out = args.value("o").ok_or_else(|| fail("missing -o/--o output path"))?;
    let base = args.u64_or("base", 0x1000)? as u32;
    let src =
        fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let image = vcfr_isa::parse_asm(&src, base).map_err(|e| fail(format!("{path}: {e}")))?;
    fs::write(out, image.to_bytes()).map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "assembled {path} -> {out} ({} bytes of text, {} symbols, {} relocs)",
        image.text().bytes.len(),
        image.symbols.len(),
        image.relocs.len()
    ))
}

/// `vcfr disasm <file> [--blocks]` — disassembly listing, optionally as
/// basic blocks.
pub fn cmd_disasm(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let image = load_image(path)?;
    let d = disassemble(&image).map_err(|e| fail(e.to_string()))?;
    let mut out = String::new();
    if args.flag("blocks") {
        let targets = vcfr_rewriter::address_taken_targets(&image, &d);
        let cfg = Cfg::build(&image, &d, &targets);
        for (start, block) in &cfg.blocks {
            let succs = cfg.succs.get(start).cloned().unwrap_or_default();
            let _ = writeln!(out, "block {start:#x} -> {succs:x?}");
            for (addr, inst) in &block.insts {
                let _ = writeln!(out, "  {addr:#010x}  {inst}");
            }
        }
    } else {
        let by_addr: std::collections::BTreeMap<u32, &str> =
            image.symbols.iter().map(|s| (s.addr, s.name.as_str())).collect();
        for (addr, inst) in d.iter() {
            if let Some(name) = by_addr.get(&addr) {
                let _ = writeln!(out, "{name}:");
            }
            let reach = if d.is_reachable(addr) { ' ' } else { '?' };
            let _ = writeln!(out, "  {addr:#010x} {reach} {inst}");
        }
    }
    Ok(out)
}

/// `vcfr run <file> [--max N]` — executes on the functional interpreter.
/// Randomized artefacts run their scattered binary.
pub fn cmd_run(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let max = args.u64_or("max", 10_000_000)?;
    let mut machine = match load(path)? {
        Artefact::Image(img) => Machine::new(&img),
        Artefact::Randomized(rp) => rp.scattered_machine(),
    };
    let outcome = machine.run(max).map_err(|e| fail(format!("fault: {e}")))?;
    Ok(format!(
        "stopped: {:?} after {} instructions\noutput: {:?}",
        outcome.stop, outcome.steps, outcome.output
    ))
}

/// `vcfr randomize <file> -o <out> [--seed N] [--page-confined]
/// [--software-returns] [--keep sym ...]`.
pub fn cmd_randomize(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let out = args.value("o").ok_or_else(|| fail("missing -o/--o output path"))?;
    let image = load_image(path)?;
    let mut cfg = RandomizeConfig::with_seed(args.u64_or("seed", 0)?);
    cfg.page_confined = args.flag("page-confined");
    cfg.software_return_randomization = args.flag("software-returns");
    cfg.keep_unrandomized = args.values("keep").map(str::to_owned).collect();
    let rp = randomize(&image, &cfg).map_err(|e| fail(e.to_string()))?;
    fs::write(out, rp.to_bytes()).map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    let s = rp.stats;
    Ok(format!(
        "wrote {out}\n\
         instructions: {} ({} randomized, {} pinned/kept)\n\
         region: {:#x}..{:#x}\n\
         branches rewritten: {}, data slots rewritten: {}\n\
         fail-over entries: {}, scan pins: {}\n\
         calls: {} total, {} safely software-randomizable, {} expanded (+{} bytes)",
        s.instructions,
        s.randomized,
        s.unrandomized,
        rp.region.0,
        rp.region.1,
        s.rewritten_branches,
        s.rewritten_data_slots,
        s.failover_entries,
        s.pinned_by_scan,
        s.call_sites,
        s.safe_return_sites,
        s.software_expanded_calls,
        s.expansion_bytes,
    ))
}

fn render_stats(stats: &SimStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "instructions: {}", stats.instructions);
    let _ = writeln!(out, "cycles:       {}", stats.cycles);
    let _ = writeln!(out, "IPC:          {:.3}", stats.ipc());
    let _ = writeln!(
        out,
        "IL1: {} accesses, {} misses ({:.2}%)",
        stats.il1.accesses,
        stats.il1.misses,
        100.0 * stats.il1.miss_rate()
    );
    let _ = writeln!(
        out,
        "DL1: {} accesses, {} misses ({:.2}%)",
        stats.dl1.accesses,
        stats.dl1.misses,
        100.0 * stats.dl1.miss_rate()
    );
    let _ = writeln!(
        out,
        "L2:  {} accesses, {} misses; {} reads from L1",
        stats.l2.accesses, stats.l2.misses, stats.l2_reads_from_l1
    );
    let _ = writeln!(
        out,
        "branches: {} predicted, {:.2}% mispredicted; BTB misses {}; RAS misses {}",
        stats.branch.predictions,
        100.0 * stats.branch.mispredict_rate(),
        stats.branch.btb_misses,
        stats.branch.ras_mispredictions
    );
    let cyc = stats.cycles.max(1) as f64;
    let pct = |v: u64| 100.0 * v as f64 / cyc;
    if let Some(drc) = stats.drc {
        let _ = writeln!(
            out,
            "DRC: {} lookups ({} derand / {} rand), {:.2}% miss, {} walk cycles ({:.1}% of cycles)",
            drc.lookups,
            drc.derand_lookups,
            drc.rand_lookups,
            100.0 * drc.miss_rate(),
            stats.drc_walk_cycles,
            pct(stats.drc_walk_cycles)
        );
    }
    let _ = writeln!(
        out,
        "stalls: fetch {} ({:.1}%), data {} ({:.1}%), redirect {} ({:.1}%), rerand {} ({:.1}%)",
        stats.fetch_stall_cycles,
        pct(stats.fetch_stall_cycles),
        stats.load_stall_cycles,
        pct(stats.load_stall_cycles),
        stats.redirect_stall_cycles,
        pct(stats.redirect_stall_cycles),
        stats.rerand_stall_cycles,
        pct(stats.rerand_stall_cycles)
    );
    if stats.rerand_epochs > 0 {
        let _ = writeln!(
            out,
            "rerand: {} epoch swaps ({} stall cycles: quiesce + table rebuild + DRC flush)",
            stats.rerand_epochs, stats.rerand_stall_cycles
        );
    }
    let _ = writeln!(
        out,
        "busy:   {} cycles ({:.1}%: {} issue + {} long-op extra)",
        stats.busy_cycles(),
        pct(stats.busy_cycles()),
        stats.instructions,
        stats.exec_extra_cycles
    );
    out
}

/// Builds the single-run manifest written by `vcfr simulate --manifest`:
/// the engine manifest of the run, with an empty sample array (the
/// one-shot run is not interval-sampled) and its own `config` block.
fn single_run_manifest(
    app: &str,
    mode: ModeSpec,
    cfg: &SimConfig,
    seed: u64,
    stats: &SimStats,
    host_s: f64,
) -> Manifest {
    let mode_name = mode.to_string();
    let drc_entries = mode.drc_entries().unwrap_or(0);
    let mut config = Json::obj();
    // The engine kind and the RandParams point live inside the config's
    // Debug form, so engine variants and frontier points all fingerprint
    // distinctly.
    config.set(
        "fingerprint",
        Json::Str(fingerprint(&format!(
            "{cfg:?} mode={mode_name} drc={drc_entries} seed={seed}"
        ))),
    );
    config.set("seed", Json::U64(seed));
    config.set("freq_ghz", Json::F64(cfg.freq_ghz));
    config.set(
        "drc_entries",
        match mode.drc_entries() {
            Some(entries) => Json::U64(entries as u64),
            None => Json::Null,
        },
    );
    if let Some(p) = cfg.rand {
        config.set("rand", rand_params_json(&p));
    }
    let mut host = Json::obj();
    host.set("wall_s", Json::F64(host_s));
    host.set("insts_per_s", Json::F64(stats.instructions as f64 / host_s.max(1e-9)));
    let mut m = build_engine_manifest(app, &mode_name, cfg.engine, stats, &[], host);
    m.set_config(config);
    m
}

/// The engine `--ooo` / `--cores N` select, shared by `vcfr simulate`
/// and `vcfr submit`.
pub(crate) fn engine_arg(args: &Args) -> Result<EngineKind, CliError> {
    let cores = args.u64_or("cores", 1)?;
    if args.flag("ooo") && cores > 1 {
        return Err(fail("--ooo and --cores select different engines; pick one"));
    }
    let engine = if args.flag("ooo") {
        EngineKind::Ooo
    } else if cores == 1 {
        EngineKind::InOrder
    } else {
        EngineKind::Multicore { cores: u32::try_from(cores).unwrap_or(u32::MAX) }
    };
    engine.validate().map_err(|_| {
        fail(format!(
            "--cores must be at least 1 and is capped at {} (got {cores})",
            EngineKind::MAX_CORES
        ))
    })?;
    Ok(engine)
}

/// `vcfr simulate <file> [--mode baseline|naive|vcfr] [--drc N] [--ooo]
/// [--cores N] [--max N] [--seed N] [--rerand-epoch N] [--audit]
/// [--progress] [--dump-trace] [--manifest <out.json>]`.
///
/// `--ooo` runs the 4-wide out-of-order core and `--cores N` runs N
/// in-order cores over the shared L2 (every core executes the same
/// program/mode); both route through the same [`Session`] facade as the
/// in-order default, so sampling, progress, audits, manifests and
/// checkpoints behave identically. `--audit` appends the
/// cycle-accounting audit — engine-kind-appropriate identities — and
/// fails the command when the checks do not hold; `--rerand-epoch N`
/// re-randomizes the live layout every N committed instructions (VCFR
/// only, on every engine kind), charging the quiesce + table-rebuild +
/// DRC-flush pause as rerand stall cycles; `--progress` streams ~20
/// telemetry readings to stderr at deterministic instruction boundaries
/// (results are unchanged by it); `--dump-trace` appends the pipeline
/// trace ring to the report on successful runs (in-order only: the
/// other engines keep no ring); `--manifest` writes the run as a
/// `vcfr-obs` manifest readable by `vcfr report`.
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let drc_arg = args.u64_or("drc", vcfr_bench::DEFAULT_DRC_ENTRIES as u64)? as usize;
    let mode_spec = ModeSpec::from_wire(args.value("mode").unwrap_or("baseline"), drc_arg)
        .map_err(|e| fail(e.to_string()))?;
    let seed = args.u64_or("seed", 0)?;
    let scale = args.u64_or("scale", 1)?;
    let rerand_epoch = args.u64_or("rerand-epoch", 0)?;
    if rerand_epoch > 0 && mode_spec.drc_entries().is_none() {
        return Err(fail("--rerand-epoch requires --mode vcfr (live table swaps need the DRC)"));
    }
    let engine = engine_arg(args)?;
    // --entropy-bits/--sparsity pick a point on the randomization
    // frontier; a VCFR run always carries its RandParams so the point
    // lands in the checkpoint fingerprint and the manifest.
    let rand = match mode_spec.drc_entries() {
        Some(entries) => Some(RandParams {
            entropy_bits: args.u64_or("entropy-bits", 12)? as u32,
            sparsity: args.u64_or("sparsity", 32)? as u32,
            rerand_epoch: (rerand_epoch > 0).then_some(rerand_epoch),
            drc: DrcConfig::direct_mapped(entries),
        }),
        None => {
            if args.value("entropy-bits").is_some() || args.value("sparsity").is_some() {
                return Err(fail(
                    "--entropy-bits/--sparsity parameterize the randomized layout; \
                     they need --mode vcfr",
                ));
            }
            None
        }
    };
    let cfg = SimConfig::builder()
        .engine(engine)
        .rerand_epoch((rerand_epoch > 0).then_some(rerand_epoch))
        .rand_params(rand)
        .build()
        .map_err(|e| fail(e.to_string()))?;

    // Obtain the image: an artefact file, or — when the argument names a
    // known workload instead of a readable file — a fresh build at the
    // requested `--scale`. Prebuilt artefacts have their trip counts
    // baked in, so `--scale` only applies to the workload-name form.
    let (image, workload_budget) = match load(path) {
        Ok(Artefact::Image(img)) => {
            if scale != 1 {
                return Err(fail(
                    "--scale applies when simulating a workload by name; \
                     rebuild the image with `vcfr build --scale` instead",
                ));
            }
            (Artefact::Image(img), None)
        }
        Ok(rp @ Artefact::Randomized(_)) => {
            if scale != 1 {
                return Err(fail(
                    "--scale applies when simulating a workload by name; \
                     rebuild the image with `vcfr build --scale` instead",
                ));
            }
            (rp, None)
        }
        Err(e) => match vcfr_workloads::by_name_scaled(path, scale) {
            Some(w) => (Artefact::Image(w.image), Some(w.max_insts)),
            None => return Err(e),
        },
    };
    let max = match args.value("max") {
        Some(_) => args.u64_or("max", 2_000_000)?,
        None => workload_budget.unwrap_or(2_000_000),
    };
    let (image, rp) = match image {
        Artefact::Image(img) => {
            let rp = if mode_spec != ModeSpec::Base {
                let rcfg = match &rand {
                    Some(p) => RandomizeConfig::from_params(seed, p),
                    None => RandomizeConfig::with_seed(seed),
                };
                Some(randomize(&img, &rcfg).map_err(|e| fail(e.to_string()))?)
            } else {
                None
            };
            (img, rp)
        }
        Artefact::Randomized(rp) => (rp.original.clone(), Some(*rp)),
    };

    let mode = mode_spec
        .sim_mode(&image, rp.as_ref())
        .ok_or_else(|| fail("randomized artefact required for this mode"))?;

    if args.flag("dump-trace") && !engine.keeps_trace_ring() {
        return Err(fail("--dump-trace needs the in-order engine (only it keeps a trace ring)"));
    }

    let host = std::time::Instant::now();
    let mut trace_dump = String::new();
    let mut session =
        Session::new(mode, &cfg, max)?.with_superblocks(!args.flag("no-superblocks"));
    if args.flag("progress") {
        // Live progress on stderr (the report itself lands on
        // stdout at the end): ~20 lines per run, at deterministic
        // instruction boundaries.
        session = session.with_progress((max / 20).max(1), |e| {
            eprintln!(
                "progress: {:>12} insts  {:>12} cycles  ipc {:.3}  sb {:>5.1}%",
                e.instructions,
                e.cycles,
                if e.cycles == 0 { 0.0 } else { e.instructions as f64 / e.cycles as f64 },
                e.sb_hit_rate() * 100.0,
            );
        });
    }
    let outcome = session.run()?;
    let out = outcome.output;
    if args.flag("dump-trace") {
        // Until now the trace ring only surfaced inside SimError;
        // --dump-trace emits it for successful runs too.
        let events = session.trace_events();
        let _ = writeln!(trace_dump, "last {} pipeline events:", events.len());
        for e in &events {
            let _ = writeln!(trace_dump, "  {e}");
        }
    }
    let host_s = host.elapsed().as_secs_f64();

    let engine_note = match engine {
        EngineKind::InOrder => String::new(),
        EngineKind::Ooo => " (4-wide out-of-order)".to_string(),
        EngineKind::Multicore { cores } => format!(" ({cores} in-order cores, shared L2)"),
    };
    let mut report = format!("mode: {mode_spec}{engine_note}\n");
    report.push_str(&render_stats(&out.stats));
    if let Some(mc) = &outcome.multicore {
        for (i, s) in mc.per_core.iter().enumerate() {
            let _ = writeln!(
                report,
                "core {i}: {} insts  {} cycles  ipc {:.3}  contention {} cycles",
                s.instructions,
                s.cycles,
                if s.cycles == 0 { 0.0 } else { s.instructions as f64 / s.cycles as f64 },
                s.contention_stall_cycles,
            );
        }
        let _ = writeln!(
            report,
            "shared L2: {} accesses, {} misses;  makespan: {} cycles",
            mc.shared_l2.accesses, mc.shared_l2.misses, mc.cycles,
        );
    }
    let _ = writeln!(
        report,
        "host wall: {:.3}s ({:.1}M simulated insts/s)",
        host_s,
        out.stats.instructions as f64 / host_s.max(1e-9) / 1e6
    );
    if let (Some(drc), Some(entries)) = (out.stats.drc, mode_spec.drc_entries()) {
        let _ = drc;
        let p = vcfr_power::analyze(&out.stats, &cfg, Some(DrcConfig::direct_mapped(entries)));
        let _ = writeln!(report, "DRC power overhead: {:.3}%", p.drc_overhead_pct());
    }
    if !trace_dump.is_empty() {
        report.push_str(&trace_dump);
    }
    if args.flag("audit") {
        let audit = out.stats.audit(cfg.engine);
        report.push_str(&audit.render());
        if !audit.passed() {
            return Err(CliError::Msg(report));
        }
    }
    if let Some(mpath) = args.value("manifest") {
        let app = Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or(path);
        let m = single_run_manifest(app, mode_spec, &cfg, seed, &out.stats, host_s);
        fs::write(mpath, m.to_string_pretty())
            .map_err(|e| fail(format!("cannot write {mpath}: {e}")))?;
        let _ = writeln!(report, "manifest: wrote {mpath}");
    }
    Ok(report)
}

/// Column order of the standard experiment matrix (via
/// [`ModeSpec::report_rank`]); modes outside the vocabulary — fault and
/// engine-prefixed manifests, frontier points — sort after the known
/// ones, alphabetically.
fn mode_rank(mode: &str) -> (u8, i64) {
    match mode.parse::<ModeSpec>() {
        Ok(spec) => spec.report_rank(),
        Err(_) => (u8::MAX, 0),
    }
}

/// Loads and validates every `*.json` manifest in a directory, sorted by
/// (app, matrix column).
fn load_manifest_dir(dir: &str) -> Result<Vec<Manifest>, CliError> {
    let rd = fs::read_dir(dir).map_err(|e| fail(format!("cannot read {dir}: {e}")))?;
    let mut paths: Vec<std::path::PathBuf> = rd
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let text = fs::read_to_string(&p)
            .map_err(|e| fail(format!("cannot read {}: {e}", p.display())))?;
        out.push(
            Manifest::from_str(&text).map_err(|e| fail(format!("{}: {e}", p.display())))?,
        );
    }
    if out.is_empty() {
        return Err(fail(format!("{dir}: no manifest *.json files")));
    }
    out.sort_by(|a, b| {
        (a.app(), mode_rank(a.mode()), a.mode()).cmp(&(b.app(), mode_rank(b.mode()), b.mode()))
    });
    Ok(out)
}

/// Renders the per-run comparison table plus the per-mode slowdown
/// summary (geomean of cycles vs the same app's base run).
fn render_report(dir: &str, manifests: &[Manifest]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    let mut base_cycles: BTreeMap<&str, u64> = BTreeMap::new();
    for m in manifests {
        if m.mode().parse::<ModeSpec>() == Ok(ModeSpec::Base) {
            base_cycles.insert(m.app(), m.counter("sim.cycles"));
        }
    }
    let apps: BTreeSet<&str> = manifests.iter().map(Manifest::app).collect();
    let mut out = format!("{} run manifests in {dir} ({} apps)\n\n", manifests.len(), apps.len());
    let _ = writeln!(
        out,
        "{:<12} {:<8} {:>6} {:>9} {:>7} {:>7} {:>7} {:>6} {:>7}  audit",
        "app", "mode", "IPC", "slowdown", "IL1%", "DRC%", "fetch%", "load%", "redir%"
    );
    let mut slowdowns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for m in manifests {
        let cycles = m.counter("sim.cycles");
        let slow = base_cycles
            .get(m.app())
            .filter(|&&b| b > 0)
            .map(|&b| cycles as f64 / b as f64);
        if let Some(s) = slow {
            if m.mode().parse::<ModeSpec>() != Ok(ModeSpec::Base) {
                slowdowns.entry(m.mode()).or_default().push(s);
            }
        }
        let acc = m.json().get("audit").and_then(CycleAccounting::from_json);
        let spct = |v: u64| match acc {
            Some(a) if a.cycles > 0 => 100.0 * v as f64 / a.cycles as f64,
            _ => 0.0,
        };
        let (fp, lp, rp) = match acc {
            Some(a) => (spct(a.fetch_stall), spct(a.load_stall), spct(a.redirect_stall)),
            None => (0.0, 0.0, 0.0),
        };
        let verdict = match m.json().get_path("audit.passed") {
            Some(Json::Bool(true)) => "PASS",
            Some(Json::Bool(false)) => "FAIL",
            _ => "-",
        };
        let _ = writeln!(
            out,
            "{:<12} {:<8} {:>6.3} {:>9} {:>7.2} {:>7} {:>7.1} {:>6.1} {:>7.1}  {}",
            m.app(),
            m.mode(),
            m.derived("ipc").unwrap_or(0.0),
            slow.map_or_else(|| "-".into(), |s| format!("{s:.3}x")),
            100.0 * m.derived("il1_miss_rate").unwrap_or(0.0),
            m.derived("drc_miss_rate")
                .map_or_else(|| "-".into(), |r| format!("{:.2}", 100.0 * r)),
            fp,
            lp,
            rp,
            verdict,
        );
    }
    if !slowdowns.is_empty() {
        let _ = writeln!(out, "\nslowdown vs base (geomean over apps with a base run):");
        for (mode, vals) in &slowdowns {
            let g =
                (vals.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp();
            let _ = writeln!(out, "  {mode:<8} {g:.3}x ({} runs)", vals.len());
        }
    }
    out
}

/// Diffs two manifest directories through their canonical
/// (host-stripped) byte forms, pairing runs by `<app>__<mode>` name.
fn render_diff(ours_dir: &str, ours: &[Manifest], theirs_dir: &str, theirs: &[Manifest]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    let a: BTreeMap<String, &Manifest> = ours.iter().map(|m| (m.file_name(), m)).collect();
    let b: BTreeMap<String, &Manifest> = theirs.iter().map(|m| (m.file_name(), m)).collect();
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let (mut identical, mut differing, mut only_left, mut only_right) = (0usize, 0, 0, 0);
    let mut lines = String::new();
    for k in keys {
        match (a.get(k), b.get(k)) {
            (Some(x), Some(y)) if x.canonical_bytes() == y.canonical_bytes() => identical += 1,
            (Some(x), Some(y)) => {
                differing += 1;
                let (xc, yc) = (x.counter("sim.cycles"), y.counter("sim.cycles"));
                let delta =
                    if xc > 0 { 100.0 * (yc as f64 - xc as f64) / xc as f64 } else { 0.0 };
                let _ = writeln!(
                    lines,
                    "  {k}: cycles {xc} -> {yc} ({delta:+.2}%), ipc {:.3} -> {:.3}",
                    x.derived("ipc").unwrap_or(0.0),
                    y.derived("ipc").unwrap_or(0.0)
                );
            }
            (Some(_), None) => {
                only_left += 1;
                let _ = writeln!(lines, "  {k}: only in {ours_dir}");
            }
            (None, Some(_)) => {
                only_right += 1;
                let _ = writeln!(lines, "  {k}: only in {theirs_dir}");
            }
            (None, None) => unreachable!("key came from one of the two maps"),
        }
    }
    let mut out = format!(
        "comparing {ours_dir} ({} runs) against {theirs_dir} ({} runs)\n\
         identical: {identical}, differing: {differing}, \
         only-left: {only_left}, only-right: {only_right}\n",
        ours.len(),
        theirs.len(),
    );
    out.push_str(&lines);
    out
}

/// `vcfr report <manifest-dir> [--against <manifest-dir>]` — renders a
/// comparison table from run manifests written by the experiment matrix
/// (or `simulate --manifest`), or diffs two manifest directories.
pub fn cmd_report(args: &Args) -> Result<String, CliError> {
    let dir = args.positional(0, "manifest directory")?;
    let manifests = load_manifest_dir(dir)?;
    if args.flag("frontier") {
        return render_frontier(dir, &manifests);
    }
    match args.value("against") {
        Some(other) => {
            let theirs = load_manifest_dir(other)?;
            Ok(render_diff(dir, &manifests, other, &theirs))
        }
        None => Ok(render_report(dir, &manifests)),
    }
}

/// `vcfr report <dir> --frontier`: rebuilds the entropy/security Pareto
/// table from the frontier manifests in `dir` (written by `repro
/// frontier`, possibly merged from several fleet shards).
fn render_frontier(dir: &str, manifests: &[Manifest]) -> Result<String, CliError> {
    let mut rows: Vec<vcfr_bench::FrontierSummary> =
        manifests.iter().filter_map(vcfr_bench::frontier_summary_from_manifest).collect();
    if rows.is_empty() {
        return Err(fail(format!("{dir}: no frontier manifests (run `repro frontier` first)")));
    }
    rows.sort_by(|a, b| a.app.cmp(&b.app).then(a.entropy_bits.cmp(&b.entropy_bits)));
    let mut out = format!("entropy/security frontier ({dir}, {} point(s))\n", rows.len());
    out.push_str(&vcfr_bench::frontier_pareto_table(&rows));
    out.push_str("* = Pareto-optimal over (attacker success v, slowdown v, fault coverage ^)\n");
    Ok(out)
}

/// `vcfr gadgets <file> [--against <randomized-file>]`.
pub fn cmd_gadgets(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let image = load_image(path)?;
    let surface = AttackSurface::scan(&image);
    let mut by_cap: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for (c, n) in surface.capability_census() {
        let name = match c {
            Capability::LoadReg(_) => "load-register",
            Capability::WriteMem => "write-memory",
            Capability::ReadMem => "read-memory",
            Capability::MoveReg => "move-register",
            Capability::Arith => "arithmetic",
            Capability::Syscall => "syscall",
            Capability::Pivot => "pivot",
        };
        *by_cap.entry(name).or_default() += n;
    }
    let mut out = format!("{} gadgets in {}\n", surface.gadgets().len(), path);
    for (cap, n) in by_cap {
        let _ = writeln!(out, "  {cap:<14} {n}");
    }
    if args.flag("payloads") {
        for (t, assembled) in surface.payloads() {
            match assembled {
                Some(p) => {
                    let words = surface.stack_words(&p);
                    let _ = writeln!(
                        out,
                        "payload {:<18} chain {:x?} ({} stack words)",
                        t.name,
                        p.chain,
                        words.len()
                    );
                }
                None => {
                    let _ = writeln!(out, "payload {:<18} cannot be assembled", t.name);
                }
            }
        }
    }
    if let Some(rand_path) = args.value("against") {
        let rp = match load(rand_path)? {
            Artefact::Randomized(rp) => *rp,
            Artefact::Image(_) => {
                return Err(fail(format!("{rand_path}: expected a randomized program")))
            }
        };
        let c = surface.against(&rp);
        let _ = writeln!(
            out,
            "against {}: {:.1}% removed ({} of {} usable); payloads {} -> {}",
            rand_path,
            c.removal_pct(),
            c.usable_after,
            c.total_gadgets,
            c.payloads_before,
            c.payloads_after
        );
    }
    Ok(out)
}

/// `vcfr trace <file> [--count N] [--skip N]` — prints an execution
/// trace (pc, instruction, control outcome) from the functional
/// interpreter.
pub fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let count = args.u64_or("count", 32)?;
    let skip = args.u64_or("skip", 0)?;
    let mut machine = match load(path)? {
        Artefact::Image(img) => Machine::new(&img),
        Artefact::Randomized(rp) => rp.scattered_machine(),
    };
    let mut out = String::new();
    for _ in 0..skip {
        if machine.step().map_err(|e| fail(e.to_string()))?.is_none() {
            break;
        }
    }
    for _ in 0..count {
        match machine.step().map_err(|e| fail(e.to_string()))? {
            Some(info) => {
                let note = match info.control {
                    Some(cf) => match cf.taken_target() {
                        Some(t) => format!("-> {t:#x}"),
                        None => "(not taken)".into(),
                    },
                    None => String::new(),
                };
                let _ = writeln!(out, "{:#010x}  {:<28} {}", info.pc, info.inst.to_string(), note);
            }
            None => {
                let _ = writeln!(out, "(stopped: {:?})", machine.stop_reason());
                break;
            }
        }
    }
    Ok(out)
}

/// `vcfr stats <file>` — static control-flow statistics (Table II /
/// Figure 9 rows).
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "input file")?;
    let image = load_image(path)?;
    let d = disassemble(&image).map_err(|e| fail(e.to_string()))?;
    let s = analyze_control_flow(&image, &d);
    Ok(format!(
        "instructions:            {}\n\
         direct transfers:        {}\n\
         indirect transfers:      {}\n\
         function calls:          {}\n\
         indirect function calls: {}\n\
         returns:                 {}\n\
         functions with ret:      {}\n\
         functions without ret:   {}",
        s.instructions,
        s.direct_transfers,
        s.indirect_transfers,
        s.function_calls,
        s.indirect_function_calls,
        s.returns,
        s.funcs_with_ret,
        s.funcs_without_ret,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("vcfr-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn parse(raw: &[&str], flags: &[&str], values: &[&str]) -> Args {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, flags, values).unwrap()
    }

    #[test]
    fn build_run_roundtrip() {
        let img_path = tmp("memcpy.img");
        let a = parse(&["memcpy", "--o", &img_path], &[], &["o"]);
        let msg = cmd_build(&a).unwrap();
        assert!(msg.contains("wrote"));

        let a = parse(&[&img_path], &[], &["max"]);
        let msg = cmd_run(&a).unwrap();
        assert!(msg.contains("output:"), "{msg}");
    }

    #[test]
    fn images_without_text_are_errors_not_panics() {
        use vcfr_isa::{Section, SectionKind};
        let empty = Image {
            sections: vec![],
            entry: 0x1000,
            stack_top: 0xf000,
            symbols: vec![],
            relocs: vec![],
        };
        let data_only = Image {
            sections: vec![Section { kind: SectionKind::Data, base: 0x8000, bytes: vec![7; 16] }],
            ..empty.clone()
        };
        for (name, img) in [("no-sections.img", empty), ("data-only.img", data_only)] {
            let path = tmp(name);
            fs::write(&path, img.to_bytes()).unwrap();
            let e = cmd_disasm(&parse(&[&path], &["blocks"], &[])).unwrap_err();
            assert!(e.to_string().contains("no text section"), "{name}: {e}");
            let out = tmp(&format!("{name}.rand"));
            let e = cmd_randomize(&parse(&[&path, "--o", &out], &[], &["o"])).unwrap_err();
            assert!(e.to_string().contains("no text section"), "{name}: {e}");
        }
    }

    #[test]
    fn randomize_then_run_and_gadgets() {
        let img_path = tmp("bzip2.img");
        let rand_path = tmp("bzip2.rand");
        cmd_build(&parse(&["bzip2", "--o", &img_path], &[], &["o"])).unwrap();
        let msg = cmd_randomize(&parse(
            &[&img_path, "--o", &rand_path, "--seed", "5"],
            &[],
            &["o", "seed"],
        ))
        .unwrap();
        assert!(msg.contains("randomized"));

        // The randomized artefact runs and matches the original output.
        let orig = cmd_run(&parse(&[&img_path], &[], &[])).unwrap();
        let rand = cmd_run(&parse(&[&rand_path], &[], &[])).unwrap();
        let tail = |s: &str| s.lines().last().unwrap().to_string();
        assert_eq!(tail(&orig), tail(&rand));

        let g = cmd_gadgets(&parse(
            &[&img_path, "--against", &rand_path],
            &[],
            &["against"],
        ))
        .unwrap();
        assert!(g.contains("% removed"), "{g}");
    }

    #[test]
    fn simulate_all_modes() {
        let img_path = tmp("hmmer.img");
        cmd_build(&parse(&["hmmer", "--o", &img_path], &[], &["o"])).unwrap();
        for mode in ["baseline", "naive", "vcfr"] {
            let r = cmd_simulate(&parse(
                &[&img_path, "--mode", mode, "--max", "50000"],
                &["ooo"],
                &["mode", "max", "drc", "seed"],
            ))
            .unwrap();
            assert!(r.contains("IPC:"), "{mode}: {r}");
        }
        // OoO flag.
        let r = cmd_simulate(&parse(
            &[&img_path, "--ooo", "--max", "50000"],
            &["ooo"],
            &["mode", "max", "drc", "seed"],
        ))
        .unwrap();
        assert!(r.contains("out-of-order"));
    }

    #[test]
    fn simulate_accepts_workload_names_and_scales_them() {
        let flags: &[&str] = &["ooo", "no-superblocks"];
        let values: &[&str] = &["mode", "max", "drc", "seed", "scale"];
        // A workload name instead of a file, scaled 2x: budget follows
        // the workload's scaled max_insts when --max is absent.
        let r = cmd_simulate(&parse(&["memcpy", "--scale", "2"], flags, values)).unwrap();
        assert!(r.contains("IPC:"), "{r}");
        let insts: u64 = r
            .lines()
            .find(|l| l.starts_with("instructions:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        let base = cmd_simulate(&parse(&["memcpy"], flags, values)).unwrap();
        let base_insts: u64 = base
            .lines()
            .find(|l| l.starts_with("instructions:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(insts > base_insts * 3 / 2, "scaled {insts} vs {base_insts}");
        // The per-instruction path is still reachable for debugging.
        let slow =
            cmd_simulate(&parse(&["memcpy", "--no-superblocks"], flags, values)).unwrap();
        let fast_line = |s: &str| {
            s.lines().find(|l| l.starts_with("cycles:")).map(str::to_owned).unwrap()
        };
        assert_eq!(fast_line(&base), fast_line(&slow), "toggle changed results");
        // --scale on a prebuilt image is rejected (trip counts are baked).
        let img_path = tmp("memcpy-scale.img");
        cmd_build(&parse(&["memcpy", "--o", &img_path], &[], &["o"])).unwrap();
        let e = cmd_simulate(&parse(&[&img_path, "--scale", "2"], flags, values)).unwrap_err();
        assert!(e.to_string().contains("vcfr build --scale"), "{e}");
        // Unknown names still report the original file error.
        assert!(cmd_simulate(&parse(&["nonesuch"], flags, values)).is_err());
    }

    #[test]
    fn simulate_rerand_epoch_audits_and_reports_the_pause() {
        let img_path = tmp("hmmer-rr.img");
        cmd_build(&parse(&["hmmer", "--o", &img_path], &[], &["o"])).unwrap();
        let flags: &[&str] = &["ooo", "audit"];
        let values: &[&str] = &["mode", "max", "drc", "seed", "rerand-epoch", "manifest"];
        let r = cmd_simulate(&parse(
            &[
                &img_path,
                "--mode",
                "vcfr",
                "--rerand-epoch",
                "8000",
                "--max",
                "50000",
                "--audit",
            ],
            flags,
            values,
        ))
        .unwrap();
        assert!(r.contains("audit: PASS"), "{r}");
        assert!(r.contains("rerand") && r.contains("epoch swaps"), "{r}");
        let swaps: u64 = r
            .lines()
            .find(|l| l.starts_with("rerand:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(swaps >= 3, "expected several epoch swaps in 50k insts: {r}");

        // The pause needs VCFR's mediation hardware...
        let e = cmd_simulate(&parse(
            &[&img_path, "--rerand-epoch", "8000", "--max", "50000"],
            flags,
            values,
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--mode vcfr"), "{e}");
        // ...but not the in-order core: the OoO engine drains, swaps and
        // flushes just the same (the guard that rejected this is gone).
        let r = cmd_simulate(&parse(
            &[
                &img_path,
                "--mode",
                "vcfr",
                "--ooo",
                "--rerand-epoch",
                "8000",
                "--max",
                "50000",
                "--audit",
            ],
            flags,
            values,
        ))
        .unwrap();
        assert!(r.contains("out-of-order"), "{r}");
        assert!(r.contains("audit: PASS"), "{r}");
        let swaps: u64 = r
            .lines()
            .find(|l| l.starts_with("rerand:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(swaps >= 3, "OoO epoch swaps: {r}");
    }

    #[test]
    fn simulate_cores_runs_the_multicore_engine() {
        let img_path = tmp("hmmer-mc.img");
        cmd_build(&parse(&["hmmer", "--o", &img_path], &[], &["o"])).unwrap();
        let flags: &[&str] = &["ooo", "audit"];
        let values: &[&str] = &["mode", "max", "drc", "seed", "cores"];
        let r = cmd_simulate(&parse(
            &[&img_path, "--mode", "vcfr", "--cores", "2", "--max", "30000", "--audit"],
            flags,
            values,
        ))
        .unwrap();
        assert!(r.contains("2 in-order cores"), "{r}");
        assert!(r.contains("core 0:") && r.contains("core 1:"), "{r}");
        assert!(r.contains("shared L2:"), "{r}");
        assert!(r.contains("audit: PASS"), "{r}");
        // --cores 1 is the plain in-order engine: no per-core breakdown.
        let one = cmd_simulate(&parse(
            &[&img_path, "--cores", "1", "--max", "30000"],
            flags,
            values,
        ))
        .unwrap();
        assert!(!one.contains("core 0:"), "{one}");
        // Invalid core counts and engine mixes are named errors.
        let e = cmd_simulate(&parse(&[&img_path, "--cores", "0"], flags, values)).unwrap_err();
        assert!(e.to_string().contains("at least 1"), "{e}");
        let e = cmd_simulate(&parse(&[&img_path, "--cores", "65"], flags, values)).unwrap_err();
        assert!(e.to_string().contains("capped"), "{e}");
        let e = cmd_simulate(&parse(
            &[&img_path, "--ooo", "--cores", "2"],
            flags,
            values,
        ))
        .unwrap_err();
        assert!(e.to_string().contains("pick one"), "{e}");
    }

    #[test]
    fn simulate_progress_works_everywhere_but_trace_stays_inorder() {
        let img_path = tmp("hmmer-flags.img");
        cmd_build(&parse(&["hmmer", "--o", &img_path], &[], &["o"])).unwrap();
        let flags: &[&str] = &["ooo", "progress", "dump-trace"];
        let values: &[&str] = &["mode", "max", "cores"];
        // --progress no longer needs the in-order engine.
        cmd_simulate(&parse(
            &[&img_path, "--ooo", "--progress", "--max", "30000"],
            flags,
            values,
        ))
        .unwrap();
        cmd_simulate(&parse(
            &[&img_path, "--cores", "2", "--progress", "--max", "30000"],
            flags,
            values,
        ))
        .unwrap();
        // --dump-trace still does: only the in-order engine keeps a ring.
        for extra in [&["--ooo"][..], &["--cores", "2"][..]] {
            let mut argv = vec![img_path.as_str(), "--dump-trace", "--max", "30000"];
            argv.extend_from_slice(extra);
            let e = cmd_simulate(&parse(&argv, flags, values)).unwrap_err();
            assert!(e.to_string().contains("in-order"), "{e}");
        }
        let r = cmd_simulate(&parse(
            &[&img_path, "--dump-trace", "--max", "30000"],
            flags,
            values,
        ))
        .unwrap();
        assert!(r.contains("pipeline events:"), "{r}");
    }

    #[test]
    fn disasm_and_stats() {
        let img_path = tmp("lbm.img");
        cmd_build(&parse(&["lbm", "--o", &img_path], &[], &["o"])).unwrap();
        let listing = cmd_disasm(&parse(&[&img_path], &["blocks"], &[])).unwrap();
        assert!(listing.contains("lib_init:"), "symbols shown");
        let blocks = cmd_disasm(&parse(&[&img_path, "--blocks"], &["blocks"], &[])).unwrap();
        assert!(blocks.contains("block 0x"));
        let s = cmd_stats(&parse(&[&img_path], &[], &[])).unwrap();
        assert!(s.contains("direct transfers"));
    }

    #[test]
    fn asm_assembles_and_runs() {
        let src_path = tmp("prog.s");
        let img_path = tmp("prog.img");
        fs::write(&src_path, "mov rax, 123\nout rax\nhalt\n").unwrap();
        let msg = cmd_asm(&parse(
            &[&src_path, "--o", &img_path],
            &[],
            &["o", "base"],
        ))
        .unwrap();
        assert!(msg.contains("assembled"));
        let run = cmd_run(&parse(&[&img_path], &[], &[])).unwrap();
        assert!(run.contains("[123]"), "{run}");
    }

    #[test]
    fn trace_shows_instructions_and_stops() {
        let img_path = tmp("mcpy2.img");
        cmd_build(&parse(&["memcpy", "--o", &img_path], &[], &["o"])).unwrap();
        let t = cmd_trace(&parse(
            &[&img_path, "--count", "5"],
            &[],
            &["count", "skip"],
        ))
        .unwrap();
        assert_eq!(t.lines().count(), 5);
        assert!(t.contains("call"), "first instruction is the lib_init call: {t}");
    }

    #[test]
    fn simulate_audit_manifest_and_report() {
        let img_path = tmp("hmmer-obs.img");
        cmd_build(&parse(&["hmmer", "--o", &img_path], &[], &["o"])).unwrap();
        let man_dir = std::env::temp_dir().join("vcfr-cli-tests").join("report-manifests");
        let _ = fs::remove_dir_all(&man_dir);
        fs::create_dir_all(&man_dir).unwrap();
        let base_m = man_dir.join("hmmer-obs__baseline.json");
        let vcfr_m = man_dir.join("hmmer-obs__vcfr.json");

        let flags: &[&str] = &["ooo", "audit"];
        let values: &[&str] = &["mode", "max", "drc", "seed", "manifest"];
        let r = cmd_simulate(&parse(
            &[&img_path, "--audit", "--manifest", base_m.to_str().unwrap(), "--max", "50000"],
            flags,
            values,
        ))
        .unwrap();
        assert!(r.contains("audit: PASS"), "{r}");
        assert!(r.contains("stalls: fetch") && r.contains("%"), "{r}");
        assert!(r.contains("busy:"), "{r}");
        cmd_simulate(&parse(
            &[
                &img_path,
                "--mode",
                "vcfr",
                "--audit",
                "--manifest",
                vcfr_m.to_str().unwrap(),
                "--max",
                "50000",
            ],
            flags,
            values,
        ))
        .unwrap();

        // The written manifests validate and carry the run identity.
        let m = Manifest::from_str(&fs::read_to_string(&vcfr_m).unwrap()).unwrap();
        assert_eq!(m.app(), "hmmer-obs");
        assert_eq!(m.mode(), "vcfr128", "canonical mode names carry the DRC geometry");
        assert!(m.counter("sim.cycles") > 0);

        // The report renders both runs with a slowdown column.
        let dir = man_dir.to_str().unwrap().to_string();
        let rep = cmd_report(&parse(&[&dir], &[], &["against"])).unwrap();
        assert!(rep.contains("hmmer-obs"), "{rep}");
        assert!(rep.contains("slowdown"), "{rep}");
        assert!(rep.contains("1.000x"), "base run slows down by exactly 1x: {rep}");
        assert!(rep.contains("PASS"), "{rep}");
        assert!(rep.contains("slowdown vs base"), "{rep}");

        // Diffing a directory against itself finds every run identical.
        let diff =
            cmd_report(&parse(&[&dir, "--against", &dir], &[], &["against"])).unwrap();
        assert!(diff.contains("identical: 2, differing: 0"), "{diff}");

        // An empty directory is a clean error.
        let empty = std::env::temp_dir().join("vcfr-cli-tests").join("no-manifests");
        fs::create_dir_all(&empty).unwrap();
        let e = cmd_report(&parse(&[empty.to_str().unwrap()], &[], &["against"])).unwrap_err();
        assert!(e.to_string().contains("no manifest"), "{e}");
    }

    #[test]
    fn report_frontier_renders_pareto_table_from_manifests() {
        use vcfr_bench::{build_frontier_manifests, run_frontier, write_manifests, FrontierPoint};
        use vcfr_gadget::FuzzConfig;

        let mut w = vcfr_workloads::by_name("sjeng").unwrap();
        w.max_insts = w.max_insts.min(30_000);
        let points = vec![
            FrontierPoint { entropy_bits: 13, sparsity: 2 },
            FrontierPoint { entropy_bits: 17, sparsity: 2 },
        ];
        let fz = FuzzConfig { seed: 2015, trials: 2, probes_per_trial: 8, exec_budget: 1024 };
        let rows = run_frontier(&w, &points, &fz, 2);
        let manifests = build_frontier_manifests(&rows, &fz, 2);

        let dir = std::env::temp_dir().join("vcfr-cli-tests").join("frontier-manifests");
        let _ = fs::remove_dir_all(&dir);
        write_manifests(&dir, &manifests).unwrap();

        let dir_s = dir.to_str().unwrap().to_string();
        let rep =
            cmd_report(&parse(&[&dir_s, "--frontier"], &["frontier"], &["against"])).unwrap();
        assert!(rep.contains("sjeng-frontier-e13"), "{rep}");
        assert!(rep.contains("sjeng-frontier-e17"), "{rep}");
        assert!(rep.contains("atk-success") && rep.contains("pareto"), "{rep}");
        assert!(rep.contains("Pareto-optimal"), "{rep}");

        // A directory of ordinary manifests is a clean error under --frontier.
        let plain = std::env::temp_dir().join("vcfr-cli-tests").join("frontier-plain");
        let _ = fs::remove_dir_all(&plain);
        fs::create_dir_all(&plain).unwrap();
        let mut ordinary = Manifest::new("sjeng", "base");
        let mut cfg = vcfr_obs::Json::obj();
        cfg.set("fingerprint", vcfr_obs::Json::Str("VCFRCKP1-test".into()));
        ordinary.set_config(cfg);
        ordinary.set_counters(&vcfr_obs::Snapshot::from_counters(std::iter::empty()));
        fs::write(plain.join(ordinary.file_name()), ordinary.to_string_pretty()).unwrap();
        let plain_s = plain.to_str().unwrap().to_string();
        let e = cmd_report(&parse(&[&plain_s, "--frontier"], &["frontier"], &["against"]))
            .unwrap_err();
        assert!(e.to_string().contains("no frontier manifests"), "{e}");
    }

    #[test]
    fn bad_inputs_give_clean_errors() {
        assert!(cmd_build(&parse(&["nonesuch", "--o", "/tmp/x"], &[], &["o"])).is_err());
        assert!(cmd_run(&parse(&["/nonexistent/file"], &[], &[])).is_err());
        let junk = tmp("junk.bin");
        fs::write(&junk, b"garbage").unwrap();
        let e = cmd_run(&parse(&[&junk], &[], &[])).unwrap_err();
        assert!(e.to_string().contains("not a VCFR"));
    }

    #[test]
    fn a_core_count_past_u32_is_refused_before_any_rpc() {
        // 2^32 + 2 cores: a plain `as u32` would submit a 2-core job.
        let dir = tmp("no-daemon-here");
        let engine = |cores: &str| {
            let a = parse(&["bzip2", "--cores", cores, "--dir", &dir], &["ooo"], &["cores", "dir"]);
            (engine_arg(&a), crate::serve::cmd_submit(&a))
        };
        let (kind, submitted) = engine("4294967298");
        assert!(kind.is_err());
        let e = submitted.unwrap_err().to_string();
        assert!(e.contains("--cores"), "{e}");
        assert_eq!(engine("2").0.unwrap(), EngineKind::Multicore { cores: 2 });
        assert_eq!(engine("1").0.unwrap(), EngineKind::InOrder);
        let ooo = parse(&["bzip2", "--ooo"], &["ooo"], &[]);
        assert_eq!(engine_arg(&ooo).unwrap(), EngineKind::Ooo);
    }
}
