//! The rewriter's contract: a randomized binary is semantically identical
//! to the original. Verified over the entire workload suite, end to end.

use vcfr::rewriter::{randomize, RandomizeConfig};

#[test]
fn every_workload_survives_randomization() {
    for w in vcfr::workloads::all() {
        let want = w.run_reference().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let rp = randomize(&w.image, &RandomizeConfig::with_seed(99))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let got = rp
            .scattered_machine()
            .run(w.max_insts)
            .unwrap_or_else(|e| panic!("{} (scattered): {e}", w.name));
        assert_eq!(got.output, want.output, "{} diverged after randomization", w.name);
        assert_eq!(got.stop, want.stop, "{} stop reason changed", w.name);
    }
}

#[test]
fn randomization_is_seed_deterministic_but_seed_sensitive() {
    let w = vcfr::workloads::by_name("hmmer").unwrap();
    let a = randomize(&w.image, &RandomizeConfig::with_seed(5)).unwrap();
    let b = randomize(&w.image, &RandomizeConfig::with_seed(5)).unwrap();
    let c = randomize(&w.image, &RandomizeConfig::with_seed(6)).unwrap();
    let collect = |rp: &vcfr::rewriter::RandomizedProgram| {
        rp.layout().iter().collect::<Vec<_>>()
    };
    assert_eq!(collect(&a), collect(&b));
    assert_ne!(collect(&a), collect(&c));
}

#[test]
fn failover_functions_keep_working_across_the_boundary() {
    // Randomize a workload but pin some library functions: calls cross
    // from randomized into un-randomized code and back.
    let w = vcfr::workloads::by_name("bzip2").unwrap();
    let want = w.run_reference().unwrap();
    let mut cfg = RandomizeConfig::with_seed(3);
    cfg.keep_unrandomized = vec!["lib2".into(), "lib6".into(), "summarize".into()];
    let rp = randomize(&w.image, &cfg).unwrap();
    assert!(rp.stats.unrandomized > 0);
    let got = rp.scattered_machine().run(w.max_insts).unwrap();
    assert_eq!(got.output, want.output);
}
