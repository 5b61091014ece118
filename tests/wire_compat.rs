//! Pins wire-format backward compatibility of the job spec: specs
//! written by pre-`ModeSpec` clients — the `baseline`/`naive`/`vcfr`
//! mode vocabulary with a separate `drc` field — still admit, and the
//! emitted bytes match the goldens, so a daemon or coordinator reloads
//! the `jobs/` and `chunks/` an earlier build wrote.

use vcfr_bench::{ModeSpec, RunSpec};
use vcfr_sim::EngineKind;

fn parse(spec_json: &str) -> Result<RunSpec, Box<dyn std::error::Error>> {
    let j = vcfr_obs::parse_json(spec_json)?;
    Ok(RunSpec::from_json(&j)?)
}

#[test]
fn old_baseline_specs_still_admit() {
    let spec = parse(r#"{"workload": "bzip2", "mode": "baseline", "drc": 128}"#).unwrap();
    assert_eq!(spec.matrix_mode(), "base");
    assert_eq!(spec.manifest_file_name(), "bzip2__base.json");
}

#[test]
fn old_bare_vcfr_specs_take_the_drc_field() {
    let spec = parse(r#"{"workload": "gcc", "mode": "vcfr", "drc": 64}"#).unwrap();
    assert_eq!(spec.matrix_mode(), "vcfr64");
    let spec = parse(r#"{"workload": "gcc", "mode": "vcfr"}"#).unwrap();
    assert_eq!(spec.matrix_mode(), "vcfr128", "absent drc keeps the paper default");
}

#[test]
fn old_modeless_specs_default_to_vcfr() {
    let spec = parse(r#"{"workload": "mcf", "drc": 512}"#).unwrap();
    assert_eq!(spec.matrix_mode(), "vcfr512");
    let spec = parse(r#"{"workload": "mcf"}"#).unwrap();
    assert_eq!(spec.matrix_mode(), "vcfr128");
}

#[test]
fn canonical_modes_admit_too() {
    for (mode, expect) in [("base", "base"), ("naive", "naive"), ("vcfr64", "vcfr64")] {
        let spec = parse(&format!(r#"{{"workload": "bzip2", "mode": "{mode}"}}"#)).unwrap();
        assert_eq!(spec.matrix_mode(), expect);
    }
}

#[test]
fn unknown_modes_are_still_rejected() {
    for bad in ["turbo", "vcfr0", "vcfr96"] {
        assert!(
            parse(&format!(r#"{{"workload": "bzip2", "mode": "{bad}"}}"#)).is_err(),
            "{bad} should be rejected"
        );
    }
}

#[test]
fn emitted_specs_match_the_golden_bytes() {
    let faulted =
        RunSpec { mode: ModeSpec::Base, faults: true, max_insts: 250_000, ..RunSpec::new("hmmer") };
    let mc2 = RunSpec {
        mode: ModeSpec::Vcfr { drc_entries: 64 },
        engine: EngineKind::Multicore { cores: 2 },
        rerand_epoch: Some(5_000),
        scale: 4,
        seed: 7,
        checkpoint_every: 20_000,
        ..RunSpec::new("gcc")
    };
    let goldens = [
        (
            RunSpec::new("bzip2"),
            r#"{"workload":"bzip2","mode":"vcfr128","drc":128,"max_insts":1000000,"seed":2015,"rerand_epoch":null,"checkpoint_every":100000,"scale":1,"faults":false,"engine":"inorder"}"#,
        ),
        (
            faulted,
            r#"{"workload":"hmmer","mode":"base","drc":null,"max_insts":250000,"seed":2015,"rerand_epoch":null,"checkpoint_every":100000,"scale":1,"faults":true,"engine":"inorder"}"#,
        ),
        (
            mc2,
            r#"{"workload":"gcc","mode":"vcfr64","drc":64,"max_insts":1000000,"seed":7,"rerand_epoch":5000,"checkpoint_every":20000,"scale":4,"faults":false,"engine":"mc2"}"#,
        ),
    ];
    for (spec, golden) in goldens {
        assert_eq!(spec.to_json().compact(), golden);
        assert_eq!(parse(golden).unwrap(), spec, "{golden} reloads as the same spec");
    }
}
