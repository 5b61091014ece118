//! One determinism harness. A run is a pure function of its `RunSpec`
//! (docs/architecture.md, "Determinism invariants"), so no way of
//! executing it may change a byte of its canonical manifest.
//!
//! A fixed table of cells runs once as the reference: one worker,
//! superblocks on, no tap, one chunk. Every cell then runs again under each
//! perturbation a real caller uses, and each run must reproduce the
//! reference manifest byte for byte. Every divergence is collected
//! first, named by the spec's JSON and the perturbation, and reported
//! together. `just determinism` runs this test in release.

use std::error::Error;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};
use vcfr_bench::{parallel_map, ModeSpec, RunSpec};
use vcfr_obs::{Json, Manifest};
use vcfr_rewriter::RandomizedProgram;
use vcfr_service::{serve, Client, ServeOptions};
use vcfr_sim::{EngineKind, Session, SessionOutcome, SessionStatus};
use vcfr_workloads::Workload;

/// The apps `tests/engine_golden.rs` pins.
const APPS: [&str; 2] = ["bzip2", "xalan"];
const ENGINES: [EngineKind; 3] =
    [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 2 }];
/// Instructions per run (per core on the multicore engine).
const BUDGET: u64 = 12_000;
/// Instructions between the daemon's checkpoints.
const CHUNK: u64 = 2_500;
/// Re-randomization epoch of the re-randomizing columns.
const EPOCH: u64 = 4_000;
/// Where the restore perturbation checkpoints: a multiple of none of
/// `CHUNK`, `EPOCH`, the sampling interval or the tap interval.
const SPLIT: u64 = 5_555;

/// A way of executing a run that must not change its result. Every run
/// finishes through the one run loop, `RunSpec::execute`; all but
/// Chunked, Restore and Served run it as one chunk.
#[derive(Clone, Copy, Debug)]
enum Perturbation {
    /// Two workers and nothing else: the matrix and campaign fan-out.
    Workers,
    /// The per-instruction path, as `vcfr simulate --no-superblocks`
    /// runs. OoO and multicore never use superblocks.
    NoSuperblocks,
    /// A telemetry tap at the daemon's interval, `max_insts / 100`.
    Tap,
    /// The daemon's loop: `checkpoint_every` instructions at a time,
    /// with a checkpoint after every chunk that leaves the run
    /// unfinished.
    Chunked,
    /// A tapped run checkpointed at [`SPLIT`], resumed from that
    /// checkpoint in a fresh untapped session and finished in the
    /// daemon's chunks: the daemon's resume and the fleet's re-dispatch.
    Restore,
    /// The daemon itself: every cell goes to one in-process `serve` with
    /// two workers and a queue that holds them all, and is watched to
    /// its end and fetched over the wire (see [`served`]).
    Served,
}

/// The perturbations that run in this process, through [`perturbed`].
const PERTURBATIONS: [Perturbation; 5] = [
    Perturbation::Workers,
    Perturbation::NoSuperblocks,
    Perturbation::Tap,
    Perturbation::Chunked,
    Perturbation::Restore,
];

/// The 42 cells. Per app, every engine × {base, naive, vcfr128, vcfr64
/// re-randomizing} and fault campaigns on {base, vcfr128, vcfr128
/// re-randomizing}.
fn cells() -> Vec<RunSpec> {
    let vcfr = |drc_entries| ModeSpec::Vcfr { drc_entries };
    let (base, naive, vcfr128) =
        ((ModeSpec::Base, None), (ModeSpec::Naive, None), (vcfr(128), None));
    let columns = [base, naive, vcfr128, (vcfr(64), Some(EPOCH))];
    let faulted = [base, vcfr128, (vcfr(128), Some(EPOCH))];
    let mut cells = Vec::new();
    for app in APPS {
        let cell = |engine, (mode, rerand_epoch), faults| RunSpec {
            mode,
            rerand_epoch,
            engine,
            faults,
            max_insts: BUDGET,
            checkpoint_every: CHUNK,
            ..RunSpec::new(app)
        };
        for engine in ENGINES {
            cells.extend(columns.map(|c| cell(engine, c, false)));
            cells.extend(faulted.map(|c| cell(engine, c, true)));
        }
    }
    cells
}

/// One app's workload and layout. `RunSpec::prepare` is a pure function
/// of workload, scale and seed, so every cell and perturbation of the
/// app shares one build; `base` cells ignore the layout.
type Prepared = (Workload, Option<RandomizedProgram>);

type Fallible<T> = Result<T, Box<dyn Error + Send + Sync>>;

fn session<'a>(spec: &RunSpec, (w, layout): &'a Prepared) -> Fallible<Session<'a>> {
    Ok(spec.session(&w.image, layout.as_ref())?)
}

/// Finishes `s` through `spec`'s run loop after restoring `resume`,
/// calling `between` after every unfinished chunk.
fn execute(
    spec: &RunSpec,
    mut s: Session<'_>,
    resume: Option<&[u8]>,
    between: impl FnMut(&Session<'_>) -> ControlFlow<()>,
) -> Fallible<SessionOutcome> {
    Ok(spec.execute(&mut s, resume, between)?.ok_or("the run stopped early")?)
}

/// [`execute`] from instruction 0 in one chunk.
fn whole(spec: &RunSpec, s: Session<'_>) -> Fallible<SessionOutcome> {
    let one_chunk = RunSpec { checkpoint_every: u64::MAX, ..spec.clone() };
    execute(&one_chunk, s, None, |_| ControlFlow::Continue(()))
}

/// The reference run: one shot, superblocks on, no tap.
fn plain(spec: &RunSpec, app: &Prepared) -> Fallible<SessionOutcome> {
    whole(spec, session(spec, app)?)
}

fn perturbed(spec: &RunSpec, app: &Prepared, p: Perturbation) -> Fallible<SessionOutcome> {
    let tap_every = spec.max_insts / 100;
    match p {
        Perturbation::Workers => plain(spec, app),
        Perturbation::NoSuperblocks => whole(spec, session(spec, app)?.with_superblocks(false)),
        Perturbation::Tap => {
            let mut fired = 0;
            let out = whole(spec, session(spec, app)?.with_progress(tap_every, |_| fired += 1))?;
            if fired == 0 {
                return Err("the tap never fired".into());
            }
            Ok(out)
        }
        Perturbation::Chunked => execute(spec, session(spec, app)?, None, |s| {
            drop(s.checkpoint());
            ControlFlow::Continue(())
        }),
        Perturbation::Restore => {
            let mut tapped = session(spec, app)?.with_progress(tap_every, |_| {});
            if let SessionStatus::Done(_) = tapped.run_for(SPLIT)? {
                return Err(format!("finished before instruction {SPLIT}").into());
            }
            let mut resumed = true;
            let out = execute(spec, session(spec, app)?, Some(&tapped.checkpoint()), |s| {
                resumed &= s.instructions() > SPLIT;
                ControlFlow::Continue(())
            })?;
            if !resumed {
                return Err(format!("the run did not resume from instruction {SPLIT}").into());
            }
            Ok(out)
        }
        Perturbation::Served => unreachable!("served cells run through one daemon"),
    }
}

/// Runs every cell through one in-process daemon, as `vcfr submit
/// --watch` and the fleet do: submits them all, then watches each to its
/// end and fetches its manifest text.
fn served(cells: &[RunSpec]) -> Fallible<Vec<Fallible<String>>> {
    let dir = std::env::temp_dir().join(format!("vcfr-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        dir: dir.clone(),
        workers: 2,
        queue_capacity: cells.len(),
        ..ServeOptions::default()
    };
    let daemon = std::thread::spawn(move || serve(&opts));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut client = loop {
        match Client::connect(&dir) {
            Ok(client) => break client,
            Err(e) if Instant::now() > deadline => return Err(e.into()),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let ids: Vec<_> = cells.iter().map(|spec| client.submit(spec)).collect();
    let mut fetch = |id| -> Fallible<String> {
        client.watch(id, |_| {})?;
        match client.fetch(id)? {
            (_, Some((_, text))) => Ok(text),
            (job, None) => {
                Err(format!("the job ended without a manifest: {}", job.compact()).into())
            }
        }
    };
    let texts = ids.into_iter().map(|id| fetch(id?)).collect();
    client.shutdown()?;
    daemon.join().map_err(|_| "the daemon panicked")??;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(texts)
}

/// What every reference manifest must hold: a passing audit, its
/// interval samples (a campaign manifest carries fault counters
/// instead), and a parse round trip that keeps the canonical bytes.
fn reference_defects(spec: &RunSpec, m: &Manifest) -> Vec<&'static str> {
    let mut defects = Vec::new();
    if m.json().get_path("audit.passed") != Some(&Json::Bool(true)) {
        defects.push("the audit did not pass");
    }
    let samples = m.json().get("samples").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    if spec.faults && m.counter("fault.injected") == 0 {
        defects.push("no fault was injected");
    } else if !spec.faults && samples == 0 {
        defects.push("the manifest carries no interval samples");
    }
    match Manifest::from_str(&m.to_string_pretty()) {
        Ok(back) if back.canonical_bytes() == m.canonical_bytes() => {}
        Ok(_) => defects.push("the canonical bytes change through a parse round trip"),
        Err(_) => defects.push("the manifest does not parse back"),
    }
    defects
}

#[test]
fn no_perturbation_changes_a_manifest_byte() {
    let apps: Vec<Prepared> =
        APPS.iter().map(|a| RunSpec::new(a).prepare().expect("the app builds")).collect();
    let app_of =
        |spec: &RunSpec| apps.iter().find(|(w, _)| w.name == spec.workload).expect("a table app");
    let cells = cells();
    assert_eq!(cells.len(), 42);
    let name = |c: usize| cells[c].to_json().compact();
    let mut failures = Vec::new();

    let references = parallel_map(cells.clone(), 1, |_, spec| {
        plain(&spec, app_of(&spec))
            .map(|out| spec.manifest(&out, Json::obj()))
            .map_err(|e| e.to_string())
    });
    for (c, reference) in references.iter().enumerate() {
        match reference {
            Ok(m) => {
                let defects = reference_defects(&cells[c], m);
                failures.extend(defects.iter().map(|d| format!("{} reference: {d}", name(c))));
            }
            Err(e) => failures.push(format!("{} reference: {e}", name(c))),
        }
    }

    let runs: Vec<(usize, Perturbation)> =
        (0..cells.len()).flat_map(|c| PERTURBATIONS.map(|p| (c, p))).collect();
    let manifests = parallel_map(runs.clone(), 2, |_, (c, p)| {
        let spec = &cells[c];
        perturbed(spec, app_of(spec), p)
            .map(|out| spec.manifest(&out, Json::obj()).canonical_bytes())
            .map_err(|e| e.to_string())
    });
    let served = match served(&cells) {
        Ok(texts) => texts.into_iter().map(|got| got.map_err(|e| e.to_string())).collect(),
        Err(e) => vec![Err(format!("the daemon failed: {e}")); cells.len()],
    };
    let runs = runs.into_iter().zip(manifests);
    let served = served.into_iter().enumerate().map(|(c, got)| ((c, Perturbation::Served), got));
    for ((c, p), got) in runs.chain(served) {
        let Ok(want) = &references[c] else { continue };
        match got {
            Ok(bytes) if bytes == want.canonical_bytes() => {}
            Ok(_) => failures.push(format!("{} under {p:?}: the manifest differs", name(c))),
            Err(e) => failures.push(format!("{} under {p:?}: {e}", name(c))),
        }
    }

    assert!(failures.is_empty(), "{} divergences:\n{}", failures.len(), failures.join("\n"));
}
