//! Attack-payload templates and the payload assembler (ROPgadget's
//! "auto-roper").

use crate::scanner::{classify, Capability, Gadget};
use vcfr_isa::{Addr, Reg};

/// One requirement of a payload template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Requirement {
    /// A gadget that pops a stack value into *some* register.
    LoadAnyReg,
    /// A gadget that pops a stack value into this specific register.
    LoadReg(Reg),
    /// A gadget that writes memory through a register.
    WriteMem,
    /// A gadget performing register arithmetic.
    Arith,
    /// A gadget ending in an attacker-steerable indirect transfer.
    Pivot,
    /// A gadget raising a syscall.
    Syscall,
}

/// A named payload template: the gadget classes an exploit needs.
#[derive(Clone, Debug)]
pub struct PayloadTemplate {
    /// Human-readable name.
    pub name: &'static str,
    /// What the chain must contain, in order.
    pub required: Vec<Requirement>,
}

/// An assembled payload: one gadget address per requirement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Template name.
    pub name: &'static str,
    /// The gadget chain (addresses the attacker writes to the stack).
    pub chain: Vec<Addr>,
}

impl Payload {
    /// Renders the payload as the exact 64-bit words an attacker writes
    /// to the victim's stack: each gadget address followed by one filler
    /// word per `pop` the gadget performs before transferring onward.
    pub fn stack_words(&self, gadgets: &[Gadget]) -> Vec<u64> {
        let mut out = Vec::new();
        for addr in &self.chain {
            out.push(*addr as u64);
            if let Some(g) = gadgets.iter().find(|g| g.addr == *addr) {
                let pops = g
                    .insts
                    .iter()
                    .filter(|i| matches!(i, vcfr_isa::Inst::Pop { .. }))
                    .count();
                for k in 0..pops {
                    out.push(0x4141_0000 + k as u64); // attacker data
                }
            }
        }
        out
    }
}

/// The built-in templates, modelled on ROPgadget's payload generators.
pub fn templates() -> Vec<PayloadTemplate> {
    vec![
        PayloadTemplate {
            // execve-style: stage a value, then raise a syscall.
            name: "spawn-shell",
            required: vec![Requirement::LoadAnyReg, Requirement::Syscall],
        },
        PayloadTemplate {
            // Classic write-what-where: load address and value, store.
            name: "write-what-where",
            required: vec![
                Requirement::LoadAnyReg,
                Requirement::LoadAnyReg,
                Requirement::WriteMem,
            ],
        },
        PayloadTemplate {
            // JOP-style dispatcher: arithmetic plus an indirect pivot.
            name: "jop-pivot",
            required: vec![Requirement::Arith, Requirement::Pivot],
        },
    ]
}

/// Whether a gadget's stack effect is predictable enough to chain: only
/// `pop`s may move the stack pointer (a `push`, or any other write to
/// `rsp`, desynchronises the attacker's layout — real ROP compilers skip
/// such gadgets too).
fn chainable(g: &Gadget) -> bool {
    g.insts.iter().all(|i| {
        if matches!(i, vcfr_isa::Inst::Push { .. } | vcfr_isa::Inst::PushI { .. }) {
            return false;
        }
        match i {
            vcfr_isa::Inst::Pop { .. } | vcfr_isa::Inst::Ret => true,
            other => !other.writes().contains(Reg::Rsp),
        }
    })
}

fn satisfies(caps: &std::collections::BTreeSet<Capability>, req: Requirement) -> bool {
    match req {
        Requirement::LoadAnyReg => caps.iter().any(|c| matches!(c, Capability::LoadReg(_))),
        Requirement::LoadReg(r) => caps.contains(&Capability::LoadReg(r)),
        Requirement::WriteMem => caps.contains(&Capability::WriteMem),
        Requirement::Arith => caps.contains(&Capability::Arith),
        Requirement::Pivot => caps.contains(&Capability::Pivot),
        Requirement::Syscall => caps.contains(&Capability::Syscall),
    }
}

/// Tries to satisfy `template` from the gadgets for which `usable`
/// returns `true` (the modified-ROPgadget filter: after randomization
/// only un-randomized locations remain usable).
///
/// Returns the first chain found, preferring shorter gadgets (fewer side
/// effects), or `None` when some requirement cannot be met.
pub fn assemble_payload(
    template: &PayloadTemplate,
    gadgets: &[Gadget],
    usable: impl Fn(Addr) -> bool,
) -> Option<Payload> {
    // Pre-classify the usable pool, shortest gadgets first.
    let mut pool: Vec<(&Gadget, std::collections::BTreeSet<Capability>)> = gadgets
        .iter()
        .filter(|g| usable(g.addr) && chainable(g))
        .map(|g| (g, classify(g)))
        .collect();
    pool.sort_by_key(|(g, _)| g.insts.len());

    let mut chain = Vec::with_capacity(template.required.len());
    for req in &template.required {
        let g = pool.iter().find(|(_, caps)| satisfies(caps, *req))?;
        chain.push(g.0.addr);
    }
    Some(Payload { name: template.name, chain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;
    use vcfr_isa::{AluOp, Asm};

    /// A binary with a rich gadget population.
    fn gadget_rich() -> vcfr_isa::Image {
        let mut a = Asm::new(0x1000);
        a.pop(Reg::Rdi);
        a.ret();
        a.store(Reg::Rbx, 0, Reg::Rax);
        a.ret();
        a.alu_ri(AluOp::And, Reg::R10, 0x0303); // hides sys 3
        a.ret();
        a.alu_ri(AluOp::Add, Reg::Rax, 1);
        a.jmp_r(Reg::Rcx);
        a.finish().unwrap()
    }

    #[test]
    fn all_templates_assemble_on_a_rich_binary() {
        let img = gadget_rich();
        let gs = scan(&img);
        for t in templates() {
            let p = assemble_payload(&t, &gs, |_| true)
                .unwrap_or_else(|| panic!("{} should assemble", t.name));
            assert_eq!(p.chain.len(), t.required.len());
        }
    }

    #[test]
    fn nothing_assembles_when_no_address_is_usable() {
        let img = gadget_rich();
        let gs = scan(&img);
        for t in templates() {
            assert!(assemble_payload(&t, &gs, |_| false).is_none());
        }
    }

    #[test]
    fn missing_capability_blocks_a_template() {
        // Only a pop;ret — no syscall gadget anywhere.
        let mut a = Asm::new(0x1000);
        a.pop(Reg::Rdi);
        a.ret();
        let img = a.finish().unwrap();
        let gs = scan(&img);
        let shell = &templates()[0];
        assert!(assemble_payload(shell, &gs, |_| true).is_none());
    }

    #[test]
    fn assembled_shell_payload_actually_executes() {
        let img = gadget_rich();
        let gs = scan(&img);
        let shell = &templates()[0];
        let p = assemble_payload(shell, &gs, |_| true).expect("assembles");
        let words = p.stack_words(&gs);
        // One filler word per pop in the load gadget.
        assert!(words.len() > p.chain.len());
        let run = crate::AttackSurface::scan(&img).launch(&words, 1_000);
        assert!(run.shell(), "ROP chain must pop a shell: {run:?}");
        assert!(run.steps > 0);
    }

    #[test]
    fn specific_register_requirement() {
        let img = gadget_rich();
        let gs = scan(&img);
        let t = PayloadTemplate {
            name: "needs-rdi",
            required: vec![Requirement::LoadReg(Reg::Rdi)],
        };
        assert!(assemble_payload(&t, &gs, |_| true).is_some());
        let t2 = PayloadTemplate {
            name: "needs-r15",
            required: vec![Requirement::LoadReg(Reg::R15)],
        };
        assert!(assemble_payload(&t2, &gs, |_| true).is_none());
    }
}
