//! Phase-behaviour trace: per-interval IPC of the three machines over a
//! workload's execution, as an ASCII time series.
//!
//! ```text
//! cargo run --release --example phase_trace [workload]
//! ```

use vcfr::core::DrcConfig;
use vcfr::rewriter::{randomize, RandomizeConfig};
use vcfr::sim::{IntervalSample, Mode, Session, SimConfig};

fn bar(v: f64, max: f64) -> String {
    let cells = ((v / max) * 40.0).round() as usize;
    "#".repeat(cells.min(40))
}

fn render(name: &str, samples: &[IntervalSample]) {
    println!("\n{name}:");
    for s in samples.iter().take(24) {
        println!(
            "  @{:>8}  ipc {:>5.2} |{:<40}| il1 {:>5.2}%  drc {:>5.1}%",
            s.first_inst,
            s.ipc,
            bar(s.ipc, 1.0),
            100.0 * s.il1_miss_rate,
            100.0 * s.drc_miss_rate,
        );
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bzip2".into());
    let w = vcfr::workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"));
    let cfg = SimConfig::default();
    let interval = w.max_insts / 24;
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(3)).expect("randomizes");

    let sampled = |mode| {
        let session = Session::new(mode, &cfg, w.max_insts).expect("valid configuration");
        session.with_sampling(interval).run().expect("runs").samples
    };
    let base = sampled(Mode::Baseline(&w.image));
    let naive = sampled(Mode::NaiveIlr(&rp));
    let vcfr = sampled(Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) });

    println!("workload: {} — {} (interval = {} insts)", w.name, w.description, interval);
    render("baseline", &base);
    render("naive hardware ILR", &naive);
    render("VCFR (DRC 128)", &vcfr);
}
