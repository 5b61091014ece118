//! Periodic re-randomization (§V-C): even a *leaked* translation table is
//! stale after the next re-randomization epoch.
//!
//! ```text
//! cargo run --release --example rerandomize
//! ```

use vcfr::core::{rerandomize, OrigAddr, TranslationTable};
use vcfr::isa::{AluOp, Asm, Cond, Reg};
use vcfr::rewriter::{randomize, RandomizeConfig};

fn main() {
    // A small service we re-randomize across "epochs".
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, 10);
    let top = a.here();
    a.call_named("work");
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.emit_output(Reg::Rax);
    a.halt();
    a.func("work");
    a.alu_ri(AluOp::Add, Reg::Rax, 3);
    a.ret();
    let image = a.finish().expect("assembles");

    let rp = randomize(&image, &RandomizeConfig::with_seed(1)).expect("randomizes");
    let work = image.symbol("work").expect("symbol").addr;
    let epoch0 = rp.layout().to_rand(OrigAddr(work)).expect("mapped");
    println!("epoch 0: work() lives at {epoch0}");

    // Suppose the attacker somehow exfiltrated the epoch-0 table. The
    // defender re-randomizes on a timer:
    let (lo, hi) = rp.region;
    let mut leaked_still_valid = 0;
    let mut table = rp.table.clone();
    for epoch in 1..=5u64 {
        let fresh = rerandomize(table.layout(), lo, hi, epoch);
        table = TranslationTable::from_layout(fresh, 0x4000_0000);
        let now = table.layout().to_rand(OrigAddr(work)).expect("mapped");
        // Does the attacker's stale knowledge still translate?
        let stale_hit = table.derand(vcfr::core::RandAddr(epoch0.raw())).is_ok();
        if stale_hit {
            leaked_still_valid += 1;
        }
        println!(
            "epoch {epoch}: work() moved to {now}; leaked epoch-0 address {} usable: {}",
            epoch0, stale_hit
        );
    }
    println!(
        "\nleaked knowledge remained usable in {leaked_still_valid}/5 epochs — \
         re-randomization invalidates exfiltrated tables."
    );
    assert_eq!(leaked_still_valid, 0, "stale addresses must die across epochs");
}
