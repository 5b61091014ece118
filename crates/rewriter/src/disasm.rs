//! Disassembly: recursive descent seeded from entry/symbols/relocations,
//! plus a linear sweep over any remaining gaps.

use std::collections::VecDeque;
use std::fmt;
use vcfr_isa::{decode, Addr, DecodeError, Image, Inst, Section, MAX_INST_LEN};

/// A disassembly failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisasmError {
    /// A reachable address did not decode.
    Undecodable {
        /// The faulting address.
        at: Addr,
        /// The decoder's complaint.
        source: DecodeError,
    },
    /// A direct control transfer targets an address outside the text
    /// section.
    TargetOutsideText {
        /// Address of the transfer instruction.
        at: Addr,
        /// The out-of-range target.
        target: Addr,
    },
}

impl fmt::Display for DisasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisasmError::Undecodable { at, source } => {
                write!(f, "undecodable instruction at {at:#x}: {source}")
            }
            DisasmError::TargetOutsideText { at, target } => {
                write!(f, "transfer at {at:#x} targets {target:#x} outside text")
            }
        }
    }
}

impl std::error::Error for DisasmError {}

/// The recovered instruction map of a program.
///
/// Instructions sit in one address-ordered table, and a per-text-byte
/// index finds the one starting at any address in O(1): every stage of
/// the rewriter reads it without a tree operation per instruction.
#[derive(Clone, Debug, Default)]
pub struct Disassembly {
    /// Base address of the text section `starts` counts from.
    base: Addr,
    /// Every discovered instruction, in address order.
    insts: Vec<(Addr, Inst)>,
    /// Parallel to `insts`: whether recursive descent reached it
    /// (instructions found only by the linear sweep may be alignment
    /// padding or dead code).
    reachable: Vec<bool>,
    /// Per text byte: one plus the index into `insts` of the instruction
    /// starting there, or 0 when none does.
    starts: Vec<u32>,
}

impl Disassembly {
    /// The index into [`Disassembly::insts`] of the instruction starting
    /// at `addr`, if one was discovered there.
    pub(crate) fn index_of(&self, addr: Addr) -> Option<usize> {
        match self.starts.get(addr.wrapping_sub(self.base) as usize) {
            Some(&k) if k != 0 => Some(k as usize - 1),
            _ => None,
        }
    }

    /// The instruction at `addr`, if one was discovered there.
    pub fn at(&self, addr: Addr) -> Option<&Inst> {
        self.index_of(addr).map(|k| &self.insts[k].1)
    }

    /// Whether `addr` is the start of a discovered instruction.
    pub fn is_inst_start(&self, addr: Addr) -> bool {
        self.index_of(addr).is_some()
    }

    /// Whether `addr` starts an instruction recursive descent reached.
    pub fn is_reachable(&self, addr: Addr) -> bool {
        self.index_of(addr).is_some_and(|k| self.reachable[k])
    }

    /// Whether the instruction at `index` was reached by recursive
    /// descent.
    pub(crate) fn is_reachable_index(&self, index: usize) -> bool {
        self.reachable[index]
    }

    /// Number of discovered instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Every discovered instruction, in address order.
    pub fn insts(&self) -> &[(Addr, Inst)] {
        &self.insts
    }

    /// Iterates `(address, instruction)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Inst)> + '_ {
        self.insts.iter().map(|(a, i)| (*a, i))
    }

    /// Iterates the reachable `(address, instruction)` pairs in address
    /// order.
    pub fn reachable(&self) -> impl Iterator<Item = (Addr, &Inst)> + '_ {
        self.iter().zip(&self.reachable).filter(|(_, r)| **r).map(|(p, _)| p)
    }
}

fn decode_in_text(text: &Section, addr: Addr) -> Result<Inst, DisasmError> {
    let off = addr.wrapping_sub(text.base) as usize;
    let end = (off + MAX_INST_LEN).min(text.bytes.len());
    decode(&text.bytes[off..end]).map_err(|source| DisasmError::Undecodable { at: addr, source })
}

/// Disassembles `image`.
///
/// Recursive descent starts from the entry point, every function symbol
/// and every relocation target; direct-transfer targets and fall-throughs
/// are followed, first in first out. A linear sweep then walks any gaps
/// so the whole text section is covered (mirroring the paper's "complete
/// scan of disassembled code" with objdump). Both passes, and the final
/// ordering, are linear in text bytes plus instructions.
///
/// # Errors
///
/// Returns a [`DisasmError`] when a reachable address does not decode or
/// a direct transfer exits the text section.
pub fn disassemble(image: &Image) -> Result<Disassembly, DisasmError> {
    let text = image.text();
    // Instructions in discovery order; `starts` indexes this list until
    // the final pass reorders it by address.
    let mut found: Vec<(Addr, Inst)> = Vec::new();
    let mut starts = vec![0u32; text.bytes.len()];
    let slot = |addr: Addr| addr.wrapping_sub(text.base) as usize;

    // ---- recursive descent ------------------------------------------
    let mut work: VecDeque<Addr> = VecDeque::new();
    work.push_back(image.entry);
    for s in &image.symbols {
        if text.contains(s.addr) {
            work.push_back(s.addr);
        }
    }
    for r in &image.relocs {
        if text.contains(r.target) {
            work.push_back(r.target);
        }
    }

    while let Some(addr) = work.pop_front() {
        // Seeds are pre-filtered, and a transfer pointing outside text is
        // reported at the transfer below, so the range test only guards
        // ill-formed inputs.
        if !text.contains(addr) || starts[slot(addr)] != 0 {
            continue;
        }
        let inst = decode_in_text(text, addr)?;
        found.push((addr, inst));
        starts[slot(addr)] = found.len() as u32;

        if let Some(target) = inst.direct_target(addr) {
            if !text.contains(target) {
                return Err(DisasmError::TargetOutsideText { at: addr, target });
            }
            work.push_back(target);
        }
        if inst.falls_through() {
            work.push_back(addr.wrapping_add(inst.len() as Addr));
        }
    }
    let reached = found.len();

    // ---- linear sweep over gaps --------------------------------------
    let mut addr = text.base;
    let end = text.end();
    while addr < end {
        if let Some(k) = starts[slot(addr)].checked_sub(1) {
            addr = addr.wrapping_add(found[k as usize].1.len() as Addr);
            continue;
        }
        match decode_in_text(text, addr) {
            Ok(inst) if addr.wrapping_add(inst.len() as Addr) <= end => {
                found.push((addr, inst));
                starts[slot(addr)] = found.len() as u32;
                addr = addr.wrapping_add(inst.len() as Addr);
            }
            // Unreachable byte soup (e.g. inline data): skip a byte, as a
            // sweeping disassembler must.
            _ => addr = addr.wrapping_add(1),
        }
    }

    // ---- address order -------------------------------------------------
    let mut insts = Vec::with_capacity(found.len());
    let mut reachable = Vec::with_capacity(found.len());
    for k in starts.iter_mut().filter(|k| **k != 0) {
        let i = *k as usize - 1;
        insts.push(found[i]);
        reachable.push(i < reached);
        *k = insts.len() as u32;
    }
    Ok(Disassembly { base: text.base, insts, reachable, starts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::{Asm, Cond, Reg};

    #[test]
    fn straight_line_coverage() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.nop();
        a.halt();
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.reachable().count(), 3);
        assert!(d.is_inst_start(0x1000));
        assert!(d.is_inst_start(0x100a));
        assert!(!d.is_inst_start(0x1001));
    }

    #[test]
    fn follows_branches_and_calls() {
        let mut a = Asm::new(0x1000);
        let skip = a.label();
        a.cmp_i(Reg::Rax, 0);
        a.jcc(Cond::Eq, skip);
        a.call_named("f");
        a.bind(skip);
        a.halt();
        a.func("f");
        a.ret();
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        let f = img.symbol("f").unwrap().addr;
        assert!(d.is_reachable(f));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn reloc_targets_are_seeds() {
        // A function only reachable through a jump table must still be
        // discovered (via its relocation entry).
        let mut a = Asm::new(0x1000);
        let hidden = a.label();
        let table = a.data_ptr_table(&[hidden]);
        a.mov_ri(Reg::Rbx, table.0 as i64);
        a.jmp_m(Reg::Rbx, 0);
        a.bind(hidden);
        a.halt();
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        assert!(d.is_reachable(img.relocs[0].target));
    }

    #[test]
    fn sweep_covers_dead_code() {
        let mut a = Asm::new(0x1000);
        let end = a.label();
        a.jmp(end);
        a.mov_ri(Reg::Rcx, 9); // dead, but sweepable
        a.bind(end);
        a.halt();
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        // jmp + dead mov + halt all present; only jmp and halt reachable.
        assert_eq!(d.len(), 3);
        assert_eq!(d.reachable().count(), 2);
        assert!(!d.is_reachable(0x1005));
        assert!(d.is_inst_start(0x1005));
    }

    #[test]
    fn transfer_outside_text_is_an_error() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let mut img = a.finish().unwrap();
        // Hand-craft a jmp to nowhere.
        let mut bytes = vcfr_isa::encode(&Inst::Jmp { rel: 0x1000 });
        bytes.push(0x01); // halt
        img.sections[0].bytes = bytes;
        let err = disassemble(&img).unwrap_err();
        assert!(matches!(err, DisasmError::TargetOutsideText { .. }));
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut a = Asm::new(0x1000);
        a.nop();
        a.nop();
        a.halt();
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        let addrs: Vec<Addr> = d.iter().map(|(a, _)| a).collect();
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
        assert!(!d.is_empty());
    }
}
