//! The consolidated attack-surface API: one entry point over the
//! scanner, classifier, payload assembler, and chain executor.
//!
//! [`AttackSurface`] owns the gadget population of one binary and exposes
//! everything an attacker (or an attacker model) does with it — census the
//! capabilities, assemble template payloads, render stack words, launch a
//! chain against the original image or against a randomized rewrite. The
//! `rop_attack` example, the security pipeline tests, `vcfr gadgets`, and
//! the coverage-guided fuzzer all drive this interface.

use std::collections::BTreeMap;

use crate::payload::{assemble_payload, templates, Payload, PayloadTemplate};
use crate::scanner::{classify, scan, Capability, Gadget};
use crate::surface::{compare_gadgets, SurfaceComparison};
use vcfr_isa::{Addr, ExecError, Image, Machine, Reg, StopReason};
use vcfr_rewriter::RandomizedProgram;

/// The outcome of launching one chain: the architectural verdict plus the
/// number of instructions that actually retired before it. The step count
/// is the fuzzer's coverage signal — a probe that decodes and runs even
/// garbage has found mapped code, while an immediate fault has not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainRun {
    /// How the machine stopped: a [`StopReason`] (where
    /// [`StopReason::Shell`] means the chain achieved code execution) or
    /// the fault that contained it.
    pub result: Result<StopReason, ExecError>,
    /// Instructions retired before the stop or fault.
    pub steps: u64,
}

impl ChainRun {
    /// Whether the chain spawned a shell — full compromise.
    pub fn shell(&self) -> bool {
        self.result == Ok(StopReason::Shell)
    }
}

/// The gadget population of one binary, with every operation an exploit
/// pipeline performs on it.
#[derive(Clone, Debug)]
pub struct AttackSurface<'a> {
    image: &'a Image,
    gadgets: Vec<Gadget>,
}

impl<'a> AttackSurface<'a> {
    /// Scans `image` at every byte offset (the modified-ROPgadget
    /// methodology) and wraps the result.
    pub fn scan(image: &'a Image) -> AttackSurface<'a> {
        AttackSurface { image, gadgets: scan(image) }
    }

    /// The binary this surface was scanned from.
    pub fn image(&self) -> &Image {
        self.image
    }

    /// Every gadget found, in address order.
    pub fn gadgets(&self) -> &[Gadget] {
        &self.gadgets
    }

    /// How many gadgets expose each capability.
    pub fn capability_census(&self) -> BTreeMap<Capability, usize> {
        let mut census = BTreeMap::new();
        for g in &self.gadgets {
            for cap in classify(g) {
                *census.entry(cap).or_insert(0) += 1;
            }
        }
        census
    }

    /// The first gadget exposing `cap`, if any.
    pub fn find(&self, cap: Capability) -> Option<&Gadget> {
        self.gadgets.iter().find(|g| classify(g).contains(&cap))
    }

    /// Tries to satisfy `template` from the gadgets whose start address
    /// `usable` accepts (after randomization: un-randomized fail-over
    /// locations only).
    pub fn assemble(
        &self,
        template: &PayloadTemplate,
        usable: impl Fn(Addr) -> bool,
    ) -> Option<Payload> {
        assemble_payload(template, &self.gadgets, usable)
    }

    /// Runs every built-in template through the assembler with the whole
    /// surface usable — the attacker's offline study of the public binary.
    pub fn payloads(&self) -> Vec<(PayloadTemplate, Option<Payload>)> {
        templates()
            .into_iter()
            .map(|t| {
                let p = assemble_payload(&t, &self.gadgets, |_| true);
                (t, p)
            })
            .collect()
    }

    /// Renders `payload` as the exact 64-bit words written to the
    /// victim's stack.
    pub fn stack_words(&self, payload: &Payload) -> Vec<u64> {
        payload.stack_words(&self.gadgets)
    }

    /// Launches a chain against the original (un-randomized) binary, as
    /// an exploited `ret` would.
    pub fn launch(&self, stack_words: &[u64], budget: u64) -> ChainRun {
        run_chain(Machine::new(self.image), self.image.stack_top, stack_words, budget)
    }

    /// Launches a chain against the binary under `rp`'s randomization:
    /// the same stack smash, but control lands in the scattered address
    /// space the attacker cannot observe.
    pub fn launch_against(
        &self,
        rp: &RandomizedProgram,
        stack_words: &[u64],
        budget: u64,
    ) -> ChainRun {
        run_chain(rp.scattered_machine(), rp.scattered.stack_top, stack_words, budget)
    }

    /// The full before/after comparison (Figure 11's pipeline), over
    /// this surface's gadgets.
    pub fn against(&self, rp: &RandomizedProgram) -> SurfaceComparison {
        compare_gadgets(&self.gadgets, rp)
    }
}

/// Writes `stack_words` below `stack_top`, aims the stack pointer past
/// the first entry, jumps to it, and runs — the shared chain launcher
/// behind [`AttackSurface::launch`] and [`AttackSurface::launch_against`].
fn run_chain(mut m: Machine, stack_top: Addr, stack_words: &[u64], budget: u64) -> ChainRun {
    let base = stack_top.wrapping_sub((stack_words.len() as Addr + 4) * 8);
    for (i, w) in stack_words.iter().enumerate() {
        m.mem_mut().write_u64(base + (i as Addr) * 8, *w);
    }
    let first = stack_words.first().copied().unwrap_or(0) as Addr;
    m.set_reg(Reg::Rsp, (base + 8) as u64);
    m.set_pc(first);
    let mut steps = 0u64;
    let result = m.run_with(budget, |_| steps += 1).map(|o| o.stop);
    ChainRun { result, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::{AluOp, Asm};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    fn gadget_rich() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.emit_output(Reg::Rax);
        a.halt();
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
    fn census_counts_every_capability() {
        let img = gadget_rich();
        let s = AttackSurface::scan(&img);
        let census = s.capability_census();
        assert!(census.contains_key(&Capability::Syscall), "hidden sys 3 must be found");
        assert!(census.values().all(|n| *n > 0));
        assert!(s.find(Capability::Syscall).is_some());
    }

    #[test]
    fn randomization_contains_the_same_chain() {
        let img = gadget_rich();
        let s = AttackSurface::scan(&img);
        let rp = randomize(&img, &RandomizeConfig::with_seed(7)).unwrap();
        let (_, p) = s.payloads().into_iter().find(|(t, _)| t.name == "spawn-shell").unwrap();
        let words = s.stack_words(&p.unwrap());
        let run = s.launch_against(&rp, &words, 1_000);
        assert!(!run.shell(), "original addresses must not work in the scattered space");
        let c = s.against(&rp);
        assert_eq!(c.usable_after, 0);
    }
}
