//! Control-flow graph recovery: the leader algorithm over a
//! [`Disassembly`], with conservative indirect edges that analyses can
//! later prune (as in De Sutter et al.'s link-time rewriting literature
//! the paper cites).

use crate::disasm::Disassembly;
use std::collections::{BTreeMap, BTreeSet};
use vcfr_isa::{Addr, Image, Inst};

/// How a basic block ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// The block ends because the next instruction is a leader; control
    /// continues sequentially.
    FallThrough(Addr),
    /// Unconditional direct jump.
    Jump(Addr),
    /// Conditional branch with both outcomes.
    Branch {
        /// Target when taken.
        taken: Addr,
        /// Fall-through when not taken.
        fall: Addr,
    },
    /// Direct call; control returns to `ret`.
    Call {
        /// Callee entry.
        target: Addr,
        /// Return site.
        ret: Addr,
    },
    /// Indirect call (`call reg` / `call [m]`); callee unknown until
    /// analysis resolves it.
    IndirectCall {
        /// Return site.
        ret: Addr,
    },
    /// Indirect jump (`jmp reg` / `jmp [m]`).
    IndirectJump,
    /// `ret`.
    Return,
    /// `halt` or `sys 0`.
    Halt,
}

/// A maximal single-entry straight-line instruction sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// The instructions, in address order.
    pub insts: Vec<(Addr, Inst)>,
    /// How the block ends.
    pub term: Terminator,
}

impl BasicBlock {
    /// First address past the last instruction.
    pub fn end(&self) -> Addr {
        let (a, i) = self.insts.last().expect("blocks are non-empty");
        a.wrapping_add(i.len() as Addr)
    }

    /// The final (terminating) instruction.
    pub fn last(&self) -> (Addr, &Inst) {
        let (a, i) = self.insts.last().expect("blocks are non-empty");
        (*a, i)
    }
}

/// The control-flow graph of the reachable code.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Cond, Reg};
/// use vcfr_rewriter::{disassemble, Cfg};
///
/// let mut a = Asm::new(0x1000);
/// let done = a.label();
/// a.cmp_i(Reg::Rax, 0);
/// a.jcc(Cond::Eq, done);
/// a.alu_ri(vcfr_isa::AluOp::Add, Reg::Rax, 1);
/// a.bind(done);
/// a.halt();
/// let img = a.finish().unwrap();
/// let d = disassemble(&img).unwrap();
/// let cfg = Cfg::build(&img, &d, &Default::default());
/// assert_eq!(cfg.blocks.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<Addr, BasicBlock>,
    /// Successor block-start addresses per block.
    pub succs: BTreeMap<Addr, Vec<Addr>>,
    /// Predecessor block-start addresses per block.
    pub preds: BTreeMap<Addr, Vec<Addr>>,
}

impl Cfg {
    /// Builds the CFG over the *reachable* instructions of `disasm`.
    ///
    /// `indirect_targets` is the conservative address-taken set: every
    /// indirect transfer initially gets an edge to each of them, exactly
    /// as the paper describes ("connect all indirect control flow
    /// transfer instructions with all possible (relocatable) targets"),
    /// to be pruned later by [`crate::analysis::resolve_indirect_targets`].
    ///
    /// Leaders and block starts are dense flags over the disassembly's
    /// instruction table, so the build is linear in instructions plus
    /// edges.
    pub fn build(image: &Image, disasm: &Disassembly, indirect_targets: &BTreeSet<Addr>) -> Cfg {
        let insts = disasm.insts();
        let reachable: Vec<usize> =
            (0..insts.len()).filter(|&k| disasm.is_reachable_index(k)).collect();

        // ---- find leaders -------------------------------------------
        // Only reachable instruction starts can begin a block, so a
        // leader anywhere else is never consulted.
        let mut leader = vec![false; insts.len()];
        let mut mark = |addr: Addr| {
            if let Some(k) = disasm.index_of(addr).filter(|&k| disasm.is_reachable_index(k)) {
                leader[k] = true;
            }
        };
        mark(image.entry);
        for s in &image.symbols {
            mark(s.addr);
        }
        for &t in indirect_targets {
            mark(t);
        }
        for &k in &reachable {
            let (addr, inst) = insts[k];
            if let Some(t) = inst.direct_target(addr) {
                mark(t);
            }
            if inst.is_control() {
                mark(addr.wrapping_add(inst.len() as Addr));
            }
        }

        // ---- carve blocks -------------------------------------------
        // Per instruction: the index of the block it starts, if any.
        let mut block_at = vec![usize::MAX; insts.len()];
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut i = 0;
        while i < reachable.len() {
            if !leader[reachable[i]] {
                i += 1;
                continue;
            }
            block_at[reachable[i]] = blocks.len();
            let mut j = i;
            loop {
                let (addr, inst) = insts[reachable[j]];
                let next = addr.wrapping_add(inst.len() as Addr);
                j += 1;
                let next_is_seq = j < reachable.len() && insts[reachable[j]].0 == next;
                if inst.is_control()
                    || !inst.falls_through()
                    || !next_is_seq
                    || leader[reachable[j]]
                {
                    break;
                }
            }
            let block: Vec<(Addr, Inst)> = reachable[i..j].iter().map(|&k| insts[k]).collect();
            let (last_addr, last) = *block.last().expect("non-empty block");
            let fall = last_addr.wrapping_add(last.len() as Addr);
            let term = match last {
                Inst::Jmp { .. } => Terminator::Jump(last.direct_target(last_addr).unwrap()),
                Inst::Jcc { .. } => Terminator::Branch {
                    taken: last.direct_target(last_addr).unwrap(),
                    fall,
                },
                Inst::Call { .. } => Terminator::Call {
                    target: last.direct_target(last_addr).unwrap(),
                    ret: fall,
                },
                Inst::CallR { .. } | Inst::CallM { .. } => Terminator::IndirectCall { ret: fall },
                Inst::JmpR { .. } | Inst::JmpM { .. } => Terminator::IndirectJump,
                Inst::Ret => Terminator::Return,
                Inst::Halt | Inst::Sys { num: 0 } => Terminator::Halt,
                _ => Terminator::FallThrough(fall),
            };
            blocks.push(BasicBlock { start: block[0].0, insts: block, term });
            i = j;
        }

        // ---- edges ----------------------------------------------------
        let block_of =
            |t: Addr| disasm.index_of(t).map(|k| block_at[k]).filter(|&b| b != usize::MAX);
        let mut succs: Vec<Vec<Addr>> = Vec::with_capacity(blocks.len());
        let mut preds: Vec<Vec<Addr>> = vec![Vec::new(); blocks.len()];
        for block in &blocks {
            let mut outs: Vec<Addr> = Vec::new();
            match block.term {
                Terminator::FallThrough(t) | Terminator::Jump(t) => outs.push(t),
                Terminator::Branch { taken, fall } => {
                    outs.push(taken);
                    outs.push(fall);
                }
                Terminator::Call { target, ret } => {
                    outs.push(target);
                    outs.push(ret);
                }
                Terminator::IndirectCall { ret } => {
                    outs.extend(indirect_targets.iter().copied());
                    outs.push(ret);
                }
                Terminator::IndirectJump => outs.extend(indirect_targets.iter().copied()),
                Terminator::Return | Terminator::Halt => {}
            }
            outs.retain(|&t| block_of(t).is_some());
            outs.dedup();
            for &t in &outs {
                preds[block_of(t).expect("retained")].push(block.start);
            }
            succs.push(outs);
        }

        // Every map is bulk-built from address-ordered pairs.
        let starts: Vec<Addr> = blocks.iter().map(|b| b.start).collect();
        Cfg {
            preds: starts.iter().copied().zip(preds).filter(|(_, p)| !p.is_empty()).collect(),
            succs: starts.iter().copied().zip(succs).collect(),
            blocks: starts.into_iter().zip(blocks).collect(),
        }
    }

    /// The block containing `addr`, if any.
    pub fn block_containing(&self, addr: Addr) -> Option<&BasicBlock> {
        self.blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| addr < b.end())
    }

    /// Replaces the conservative successor set of the indirect-transfer
    /// block starting at `block` with `targets` (plus the return site for
    /// indirect calls). Used after target resolution.
    pub fn prune_indirect(&mut self, block: Addr, targets: &[Addr]) {
        let Some(b) = self.blocks.get(&block) else { return };
        let keep_ret = match b.term {
            Terminator::IndirectCall { ret } => Some(ret),
            Terminator::IndirectJump => None,
            _ => return,
        };
        let old = self.succs.insert(
            block,
            targets
                .iter()
                .copied()
                .chain(keep_ret)
                .filter(|t| self.blocks.contains_key(t))
                .collect(),
        );
        // Rebuild preds for affected targets.
        if let Some(old) = old {
            for t in old {
                if let Some(p) = self.preds.get_mut(&t) {
                    p.retain(|s| *s != block);
                }
            }
        }
        for t in self.succs[&block].clone() {
            self.preds.entry(t).or_default().push(block);
        }
    }

    /// Total instruction count across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.values().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use vcfr_isa::{Asm, Cond, Reg};

    fn build(asm: impl FnOnce(&mut Asm)) -> (Image, Cfg) {
        let mut a = Asm::new(0x1000);
        asm(&mut a);
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        let targets: BTreeSet<Addr> = img.relocs.iter().map(|r| r.target).collect();
        let cfg = Cfg::build(&img, &d, &targets);
        (img, cfg)
    }

    #[test]
    fn diamond_shape() {
        let (_, cfg) = build(|a| {
            let els = a.label();
            let end = a.label();
            a.cmp_i(Reg::Rax, 0); // B0
            a.jcc(Cond::Eq, els);
            a.mov_ri(Reg::Rbx, 1); // B1
            a.jmp(end);
            a.bind(els);
            a.mov_ri(Reg::Rbx, 2); // B2
            a.bind(end);
            a.halt(); // B3
        });
        assert_eq!(cfg.blocks.len(), 4);
        let starts: Vec<Addr> = cfg.blocks.keys().copied().collect();
        let (b0, b1, b2, b3) = (starts[0], starts[1], starts[2], starts[3]);
        assert_eq!(cfg.succs[&b0], vec![b2, b1]);
        assert_eq!(cfg.succs[&b1], vec![b3]);
        assert_eq!(cfg.succs[&b2], vec![b3]);
        assert!(cfg.succs[&b3].is_empty());
        let mut p = cfg.preds[&b3].clone();
        p.sort();
        assert_eq!(p, vec![b1, b2]);
    }

    #[test]
    fn call_block_has_target_and_return_edges() {
        let (img, cfg) = build(|a| {
            a.call_named("f");
            a.halt();
            a.func("f");
            a.ret();
        });
        let f = img.symbol("f").unwrap().addr;
        let entry_succs = &cfg.succs[&0x1000];
        assert!(entry_succs.contains(&f));
        assert_eq!(entry_succs.len(), 2);
        match cfg.blocks[&f].term {
            Terminator::Return => {}
            ref other => panic!("expected return terminator, got {other:?}"),
        }
    }

    #[test]
    fn indirect_jump_gets_conservative_edges() {
        let (img, cfg) = build(|a| {
            let c0 = a.label();
            let c1 = a.label();
            let t = a.data_ptr_table(&[c0, c1]);
            a.mov_ri(Reg::Rbx, t.0 as i64);
            a.jmp_m(Reg::Rbx, 0);
            a.bind(c0);
            a.halt();
            a.bind(c1);
            a.halt();
        });
        let dispatch = 0x1000;
        let mut succs = cfg.succs[&dispatch].clone();
        succs.sort();
        let mut want: Vec<Addr> = img.relocs.iter().map(|r| r.target).collect();
        want.sort();
        assert_eq!(succs, want);
    }

    #[test]
    fn prune_indirect_narrows_edges() {
        let (img, mut cfg) = build(|a| {
            let c0 = a.label();
            let c1 = a.label();
            let t = a.data_ptr_table(&[c0, c1]);
            a.mov_ri(Reg::Rbx, t.0 as i64);
            a.jmp_m(Reg::Rbx, 0);
            a.bind(c0);
            a.halt();
            a.bind(c1);
            a.halt();
        });
        let only = img.relocs[0].target;
        cfg.prune_indirect(0x1000, &[only]);
        assert_eq!(cfg.succs[&0x1000], vec![only]);
        assert!(cfg.preds[&img.relocs[1].target].is_empty());
    }

    #[test]
    fn block_containing_locates_interior_addresses() {
        let (_, cfg) = build(|a| {
            a.mov_ri(Reg::Rax, 1); // 10 bytes at 0x1000
            a.nop();
            a.halt();
        });
        let b = cfg.block_containing(0x1005).unwrap();
        assert_eq!(b.start, 0x1000);
        assert!(cfg.block_containing(0x0fff).is_none());
        assert_eq!(cfg.inst_count(), 3);
    }

    #[test]
    fn block_end_and_last() {
        let (_, cfg) = build(|a| {
            a.nop();
            a.halt();
        });
        let b = &cfg.blocks[&0x1000];
        assert_eq!(b.end(), 0x1002);
        assert_eq!(b.last().0, 0x1001);
    }
}
