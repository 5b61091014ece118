//! One run description across every surface: admission refuses what the
//! run refuses, sharding validates every cell before a chunk leaves the
//! client, and a `RunSpec` run on its own reproduces, byte for byte, the
//! committed fault campaign and the cells of the experiment matrix.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vcfr_bench::{
    matrix_over, parallel_map, shard_campaign, shard_matrix, ModeSpec, RunSpec, MODE_NAMES,
};
use vcfr_obs::{Json, Manifest};
use vcfr_service::{serve, serve_fleet, Client, FleetOptions, ServeOptions};
use vcfr_workloads::SPEC_NAMES;

/// Runs `spec` through the shared path: prepare, session, execute,
/// manifest.
fn run(spec: &RunSpec) -> Manifest {
    let (w, layout) = spec.prepare().expect("the spec builds");
    let mut session = spec.session(&w.image, layout.as_ref()).expect("a valid spec");
    let out = spec.execute(&mut session, None, |_| ControlFlow::Continue(())).expect("runs");
    spec.manifest(&out.expect("finishes"), Json::obj())
}

/// Specs no run can build, with the field each refusal must name: two
/// rerand epochs the run's configuration rejects, and an unknown app.
fn refused_specs() -> [(RunSpec, &'static str); 3] {
    [
        (
            RunSpec { mode: ModeSpec::Base, rerand_epoch: Some(1_000), ..RunSpec::new("bzip2") },
            "rerand_epoch",
        ),
        (RunSpec { rerand_epoch: Some(0), ..RunSpec::new("bzip2") }, "rerand_epoch"),
        (RunSpec::new("nope"), "workload"),
    ]
}

#[test]
fn admission_refuses_what_the_run_refuses() {
    for (spec, field) in refused_specs() {
        let err = RunSpec::from_json(&spec.to_json()).expect_err("refused at parse time");
        assert!(err.to_string().contains(field), "{}: {err}", spec.to_json().compact());
        match spec.prepare() {
            Err(_) => assert_eq!(field, "workload"),
            Ok((w, layout)) => assert!(spec.session(&w.image, layout.as_ref()).is_err()),
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcfr-run-spec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Connects once the service in `dir` has published its endpoint.
fn connect(dir: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match Client::connect(dir) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => panic!("no endpoint in {}: {e}", dir.display()),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

#[test]
fn the_daemon_and_the_coordinator_refuse_invalid_specs_at_submit() {
    let root = fresh_dir("submit");
    let (daemon_dir, fleet_dir) = (root.join("daemon"), root.join("fleet"));
    let opts = ServeOptions { dir: daemon_dir.clone(), workers: 1, ..ServeOptions::default() };
    let daemon = std::thread::spawn(move || serve(&opts));
    let opts = FleetOptions { dir: fleet_dir.clone(), ..FleetOptions::default() };
    let fleet = std::thread::spawn(move || serve_fleet(&opts));
    let (mut d, mut f) = (connect(&daemon_dir), connect(&fleet_dir));
    for (spec, field) in refused_specs() {
        for client in [&mut d, &mut f] {
            let err = client.submit(&spec).expect_err("refused");
            assert!(err.to_string().contains(field), "{err}");
        }
    }
    let jobs = d.jobs().expect("jobs");
    let chunks = f.fleet_status().expect("status");
    d.shutdown().expect("shutdown");
    f.shutdown_fleet(false).expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    fleet.join().expect("fleet thread").expect("coordinator exits cleanly");
    let persisted = std::fs::read_dir(daemon_dir.join("jobs")).expect("job store").count();
    let _ = std::fs::remove_dir_all(&root);
    assert!(jobs.is_empty(), "{jobs:?}");
    assert_eq!(chunks.get_path("chunks.total").and_then(Json::as_u64), Some(0));
    assert_eq!(persisted, 0, "a refused job is never written to jobs/");
}

#[test]
fn sharding_refuses_an_unknown_mode_before_any_chunk() {
    let err = shard_matrix(&["bzip2"], &["base", "turbo"], None, 1, 100_000).unwrap_err();
    assert!(err.to_string().contains("turbo"), "{err}");
    assert!(shard_matrix(&["bzip2"], &["base"], None, 1, 100_000).is_ok());
}

#[test]
fn faulted_specs_reproduce_the_committed_campaign() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/faults");
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .expect("results/faults")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    committed.sort_unstable();
    let specs = shard_campaign(&SPEC_NAMES, None, 100_000).expect("valid campaign");
    let mut names: Vec<String> = specs.iter().map(RunSpec::manifest_file_name).collect();
    names.sort_unstable();
    assert_eq!(names, committed, "one spec per committed cell");
    let ran = parallel_map(specs, 2, |_, spec| (spec.manifest_file_name(), run(&spec)));
    for (name, manifest) in ran {
        let text = std::fs::read_to_string(dir.join(&name)).expect("committed manifest");
        let want = Manifest::from_str(&text).expect("a valid manifest");
        assert!(
            manifest.canonical_bytes() == want.canonical_bytes(),
            "{name} differs from the committed manifest"
        );
    }
}

#[test]
fn specs_reproduce_the_matrix_cells() {
    const APPS: [&str; 2] = ["bzip2", "xalan"];
    const BUDGET: u64 = 60_000;
    let (_, cells, _) = matrix_over(&APPS, Some(BUDGET), 1, 2);
    let specs = shard_matrix(&APPS, &MODE_NAMES, Some(BUDGET), 1, 100_000).expect("valid");
    assert_eq!(specs.len(), cells.len());
    for spec in &specs {
        let name = spec.manifest_file_name();
        let cell = cells.iter().find(|m| m.file_name() == name).expect("a matrix cell");
        assert!(run(spec).canonical_bytes() == cell.canonical_bytes(), "{name} differs");
    }
}
