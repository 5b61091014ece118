//! Before/after attack-surface comparison (Figure 11 and the §V-B
//! payload experiment).

use crate::attack::AttackSurface;
use crate::payload::{assemble_payload, templates};
use crate::scanner::Gadget;
use vcfr_core::RandAddr;
use vcfr_isa::Image;
use vcfr_rewriter::RandomizedProgram;

/// The result of running the modified-ROPgadget methodology on one
/// binary, before and after randomization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurfaceComparison {
    /// Gadgets found in the original binary.
    pub total_gadgets: usize,
    /// Gadgets still mountable after randomization (their start address
    /// is accepted by the translation tables as an un-randomized
    /// fail-over location).
    pub usable_after: usize,
    /// Payload templates assemblable before randomization.
    pub payloads_before: usize,
    /// Payload templates assemblable after.
    pub payloads_after: usize,
    /// Number of templates tried.
    pub templates_tried: usize,
}

impl SurfaceComparison {
    /// Percentage of gadgets removed by randomization — Figure 11's
    /// y-axis.
    pub fn removal_pct(&self) -> f64 {
        if self.total_gadgets == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.usable_after as f64 / self.total_gadgets as f64)
        }
    }
}

/// Scans `image` and compares its attack surface before and after
/// `rp`'s randomization: [`AttackSurface::against`] in one call.
pub fn compare_surface(image: &Image, rp: &RandomizedProgram) -> SurfaceComparison {
    AttackSurface::scan(image).against(rp)
}

/// Runs the payload assembler over `gadgets`, scanned from the original
/// binary, then over those still mountable under `rp`'s randomization.
///
/// The attacker model matches the paper's: the adversary knows the
/// *original* binary (it is distributed publicly) but cannot observe the
/// randomized layout; a gadget is mountable only if the address the
/// attacker must inject — the original one — still translates, i.e. the
/// location was left un-randomized as a fail-over.
pub(crate) fn compare_gadgets(gadgets: &[Gadget], rp: &RandomizedProgram) -> SurfaceComparison {
    // A gadget is mountable after randomization only when *every* byte it
    // executes still sits at its original address: the start must be an
    // accepted un-randomized location AND each following instruction of
    // the gadget must be, too (a single pinned instruction redirects back
    // into the randomized space immediately after executing, so a gadget
    // spilling past it never runs).
    let identity = |addr: vcfr_isa::Addr| {
        rp.table.derand(RandAddr(addr)).map(|o| o.raw() == addr).unwrap_or(false)
    };
    let gadget_usable = |g: &Gadget| {
        let mut a = g.addr;
        g.insts.iter().all(|i| {
            let ok = identity(a);
            a = a.wrapping_add(i.len() as vcfr_isa::Addr);
            ok
        })
    };

    let usable_flags: Vec<bool> = gadgets.iter().map(gadget_usable).collect();
    let usable_after = usable_flags.iter().filter(|u| **u).count();
    let usable_pool: Vec<_> = gadgets
        .iter()
        .zip(&usable_flags)
        .filter(|(_, u)| **u)
        .map(|(g, _)| g.clone())
        .collect();
    let ts = templates();
    let payloads_before =
        ts.iter().filter(|t| assemble_payload(t, gadgets, |_| true).is_some()).count();
    let payloads_after =
        ts.iter().filter(|t| assemble_payload(t, &usable_pool, |_| true).is_some()).count();

    SurfaceComparison {
        total_gadgets: gadgets.len(),
        usable_after,
        payloads_before,
        payloads_after,
        templates_tried: ts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::{AluOp, Asm, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    fn gadget_rich_program() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.call_named("helper");
        a.emit_output(Reg::Rax);
        a.halt();
        a.func("helper");
        a.push(Reg::Rbx);
        a.pop(Reg::Rbx);
        a.ret();
        a.func("spare");
        a.pop(Reg::Rdi);
        a.ret();
        a.func("writer");
        a.store(Reg::Rbx, 0, Reg::Rax);
        a.ret();
        a.func("hidden_sys");
        a.alu_ri(AluOp::And, Reg::R10, 0x0303);
        a.ret();
        a.func("pivot");
        a.alu_ri(AluOp::Add, Reg::Rax, 1);
        a.jmp_r(Reg::Rcx);
        a.finish().unwrap()
    }

    #[test]
    fn full_randomization_removes_everything() {
        let img = gadget_rich_program();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let c = compare_surface(&img, &rp);
        assert!(c.total_gadgets > 5);
        assert_eq!(c.usable_after, 0);
        assert!((c.removal_pct() - 100.0).abs() < 1e-9);
        assert_eq!(c.payloads_before, c.templates_tried);
        assert_eq!(c.payloads_after, 0);
    }

    #[test]
    fn failover_functions_leave_residual_surface() {
        let img = gadget_rich_program();
        let mut cfg = RandomizeConfig::with_seed(2);
        cfg.keep_unrandomized.push("spare".into());
        let rp = randomize(&img, &cfg).unwrap();
        let c = compare_surface(&img, &rp);
        assert!(c.usable_after > 0, "fail-over gadgets should survive");
        assert!(c.usable_after < c.total_gadgets);
        assert!(c.removal_pct() > 50.0);
    }

    #[test]
    fn removal_pct_handles_empty() {
        let c = SurfaceComparison {
            total_gadgets: 0,
            usable_after: 0,
            payloads_before: 0,
            payloads_after: 0,
            templates_tried: 3,
        };
        assert_eq!(c.removal_pct(), 0.0);
    }
}
