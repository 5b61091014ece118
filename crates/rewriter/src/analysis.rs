//! Indirect control-transfer target recovery and return-address
//! randomization safety — the analyses §IV-A of the paper applies before
//! randomizing (relocation information, constant propagation, and the
//! byte-by-byte pointer-sized constant scan of Hiser et al.).

use crate::cfg::Cfg;
use crate::disasm::Disassembly;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use vcfr_isa::{Addr, Image, Inst, Reg, SymbolKind};

/// The conservative address-taken set: every address that *could* be the
/// target of an indirect control transfer.
///
/// Union of:
/// * relocation targets (jump tables, vtables — authoritative),
/// * `mov reg, imm` immediates that name an instruction start (constant
///   propagation producers),
/// * the byte-by-byte scan of the data section for pointer-sized
///   constants naming instruction starts (Hiser et al.'s "simple but
///   effective heuristic").
pub fn address_taken_targets(image: &Image, disasm: &Disassembly) -> BTreeSet<Addr> {
    // One flag per instruction: every lookup below is a range test plus
    // an index, and the set is bulk-built in address order at the end.
    let mut taken = vec![false; disasm.len()];
    let mut mark = |addr: Addr| {
        if let Some(k) = disasm.index_of(addr) {
            taken[k] = true;
        }
    };
    for r in &image.relocs {
        mark(r.target);
    }
    for (_, inst) in disasm.iter() {
        if let Inst::MovRI { imm, .. } = inst {
            if let Ok(v) = Addr::try_from(*imm as u64) {
                mark(v);
            }
        }
    }
    if let Some(data) = image.data() {
        // Byte-by-byte, exactly as the paper describes — pointers need
        // not be aligned.
        for window in data.bytes.windows(8) {
            let v = u64::from_le_bytes(window.try_into().expect("8 bytes"));
            if let Ok(v) = Addr::try_from(v) {
                mark(v);
            }
        }
    }
    disasm.iter().zip(taken).filter(|(_, t)| *t).map(|((a, _), _)| a).collect()
}

/// What the analysis concluded about one indirect transfer site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolved {
    /// The exact possible target set.
    Exact(Vec<Addr>),
    /// Could not be resolved; all address-taken targets remain possible
    /// and the site must use un-randomized fail-over addresses.
    Conservative,
}

/// Resolution results for every indirect transfer site.
#[derive(Clone, Debug, Default)]
pub struct IndirectResolution {
    /// Per-site conclusion, keyed by the transfer instruction's address.
    pub sites: BTreeMap<Addr, Resolved>,
}

impl IndirectResolution {
    /// Whether every site resolved exactly.
    pub fn fully_resolved(&self) -> bool {
        self.sites.values().all(|r| matches!(r, Resolved::Exact(_)))
    }

    /// Sites that stayed conservative.
    pub fn conservative_sites(&self) -> impl Iterator<Item = Addr> + '_ {
        self.sites
            .iter()
            .filter(|(_, r)| matches!(r, Resolved::Conservative))
            .map(|(a, _)| *a)
    }
}

/// Abstract value for the intra-block constant propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbsVal {
    /// Statically known constant.
    Const(u64),
    /// Loaded from the table whose first slot is at this address
    /// (scaled-index load with unknown index).
    FromTable(Addr),
    /// Anything.
    Unknown,
}

/// A contiguous run of relocation slots starting at `base`: the classic
/// jump-table shape. Returns the targets in slot order. `by_slot` maps a
/// slot address to its target.
fn reloc_run(by_slot: &HashMap<Addr, Addr>, base: Addr) -> Vec<Addr> {
    let mut out = Vec::new();
    let mut slot = base;
    while let Some(t) = by_slot.get(&slot) {
        out.push(*t);
        slot = slot.wrapping_add(8);
    }
    out
}

/// Resolves indirect transfer targets with a constant propagation over
/// each basic block (registers as the propagation domain, exactly the
/// paper's "analysis is performed on registers over the CFG").
///
/// Recognised idioms:
/// * `call reg` where `reg` holds a constant code address → that single
///   target;
/// * `jmp/call [reg + d]` where `reg` is constant → the jump table at
///   `reg + d` (a contiguous relocation run);
/// * `jmp/call reg` where `reg` was loaded from a table with a scaled
///   index → the whole table's targets.
///
/// Anything else stays [`Resolved::Conservative`].
pub fn resolve_indirect_targets(
    image: &Image,
    _disasm: &Disassembly,
    cfg: &Cfg,
) -> IndirectResolution {
    let mut res = IndirectResolution::default();
    // Slot → target, built once on the first table access; a later
    // relocation of a slot wins.
    let by_slot: OnceCell<HashMap<Addr, Addr>> = OnceCell::new();
    let run_at = |base: Addr| {
        reloc_run(
            by_slot.get_or_init(|| image.relocs.iter().map(|r| (r.at, r.target)).collect()),
            base,
        )
    };

    for block in cfg.blocks.values() {
        // Forward pass with a 16-register abstract state.
        let mut state = [AbsVal::Unknown; 16];
        for (addr, inst) in &block.insts {
            // First, if this instruction *is* an indirect transfer,
            // resolve it against the state before it executes.
            let conclusion = match inst {
                Inst::CallR { target } | Inst::JmpR { target } => {
                    Some(match state[target.index()] {
                        AbsVal::Const(c) => Resolved::Exact(vec![c as Addr]),
                        AbsVal::FromTable(t) => {
                            let run = run_at(t);
                            if run.is_empty() {
                                Resolved::Conservative
                            } else {
                                Resolved::Exact(run)
                            }
                        }
                        AbsVal::Unknown => Resolved::Conservative,
                    })
                }
                Inst::CallM { base, disp } | Inst::JmpM { base, disp } => {
                    Some(match state[base.index()] {
                        AbsVal::Const(c) => {
                            let table = (c as Addr).wrapping_add(*disp as Addr);
                            let run = run_at(table);
                            if run.is_empty() {
                                Resolved::Conservative
                            } else {
                                Resolved::Exact(run)
                            }
                        }
                        _ => Resolved::Conservative,
                    })
                }
                _ => None,
            };
            if let Some(c) = conclusion {
                res.sites.insert(*addr, c);
            }

            // Then apply the transfer function.
            match inst {
                Inst::MovRI { dst, imm } => state[dst.index()] = AbsVal::Const(*imm as u64),
                Inst::MovRR { dst, src } => state[dst.index()] = state[src.index()],
                Inst::Lea { dst, base, disp } => {
                    state[dst.index()] = match state[base.index()] {
                        AbsVal::Const(c) => AbsVal::Const(c.wrapping_add(*disp as i64 as u64)),
                        _ => AbsVal::Unknown,
                    };
                }
                Inst::LoadIdx { dst, base, disp, .. } => {
                    state[dst.index()] = match state[base.index()] {
                        AbsVal::Const(c) => {
                            AbsVal::FromTable((c as Addr).wrapping_add(*disp as Addr))
                        }
                        _ => AbsVal::Unknown,
                    };
                }
                Inst::Load { dst, base, disp } => {
                    // A plain load of slot 0 of a known table is a
                    // degenerate single-entry table access.
                    state[dst.index()] = match state[base.index()] {
                        AbsVal::Const(c) => {
                            AbsVal::FromTable((c as Addr).wrapping_add(*disp as Addr))
                        }
                        _ => AbsVal::Unknown,
                    };
                }
                Inst::LoadB { dst, .. } | Inst::Pop { dst } | Inst::Neg { dst }
                | Inst::Not { dst } => state[dst.index()] = AbsVal::Unknown,
                Inst::AluRR { dst, .. } | Inst::AluRI { dst, .. } => {
                    state[dst.index()] = AbsVal::Unknown;
                }
                _ => {}
            }
        }
    }
    res
}

/// Which call sites may safely push a *randomized* return address.
///
/// The paper's §IV-C: not all return addresses can be randomized — e.g.
/// position-independent-code idioms read the return address off the stack
/// and compute with it. The conservative software analysis here marks a
/// direct call safe only when the callee:
///
/// * is covered by a function symbol,
/// * contains a `ret` (it returns conventionally), and
/// * never loads the return slot (`mov reg, [rsp+0]` at function top
///   level).
///
/// Indirect calls are always unsafe (callee unknown), matching the paper.
/// The *hardware* option (§IV-C's DRC-backed transparent
/// de-randomization) lifts these restrictions; the simulator models both.
pub fn return_address_safety(
    image: &Image,
    disasm: &Disassembly,
    _cfg: &Cfg,
) -> BTreeMap<Addr, bool> {
    // Prefix counts over the address-ordered instructions: a function's
    // properties are then one range query, whatever its extent.
    let insts = disasm.insts();
    let prefix = |hit: fn(&Inst) -> bool| -> Vec<u32> {
        let counts = insts.iter().scan(0, |n, (_, inst)| {
            *n += u32::from(hit(inst));
            Some(*n)
        });
        std::iter::once(0).chain(counts).collect()
    };
    let rets = prefix(|inst| matches!(inst, Inst::Ret));
    let slot_reads = prefix(|inst| matches!(inst, Inst::Load { base: Reg::Rsp, disp: 0, .. }));

    // Pre-compute per-function properties. A later symbol at the same
    // address wins.
    let mut func_safe: HashMap<Addr, bool> = HashMap::new();
    for sym in &image.symbols {
        if sym.kind != SymbolKind::Func {
            continue;
        }
        // `[addr, addr + size)`; a zero size, or an end that wraps past
        // the top of the address space, covers no instruction.
        let end = sym.addr.wrapping_add(sym.size);
        let (lo, hi) = if end > sym.addr {
            let lo = insts.partition_point(|(a, _)| *a < sym.addr);
            (lo, lo + insts[lo..].partition_point(|(a, _)| *a < end))
        } else {
            (0, 0)
        };
        let has_ret = rets[hi] > rets[lo];
        let reads_ret_slot = slot_reads[hi] > slot_reads[lo];
        func_safe.insert(sym.addr, has_ret && !reads_ret_slot);
    }

    disasm
        .iter()
        .filter_map(|(addr, inst)| match inst {
            Inst::Call { .. } => {
                let target = inst.direct_target(addr).expect("direct call has target");
                Some((addr, func_safe.get(&target).copied().unwrap_or(false)))
            }
            Inst::CallR { .. } | Inst::CallM { .. } => Some((addr, false)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use vcfr_isa::Asm;

    fn prep(asm: impl FnOnce(&mut Asm)) -> (Image, Disassembly, Cfg) {
        let mut a = Asm::new(0x1000);
        asm(&mut a);
        let img = a.finish().unwrap();
        let d = disassemble(&img).unwrap();
        let targets = address_taken_targets(&img, &d);
        let cfg = Cfg::build(&img, &d, &targets);
        (img, d, cfg)
    }

    #[test]
    fn address_taken_covers_relocs_immediates_and_data_scan() {
        let (img, d, _) = prep(|a| {
            let f = a.label();
            let g = a.label();
            let _t = a.data_ptr_table(&[f]); // reloc
            a.mov_label(vcfr_isa::Reg::Rax, g); // immediate producer
            a.halt();
            a.bind(f);
            a.ret();
            a.bind(g);
            a.ret();
        });
        let targets = address_taken_targets(&img, &d);
        assert!(targets.contains(&img.relocs[0].target));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn data_scan_finds_unrelocated_pointers() {
        let (img, d, _) = prep(|a| {
            // Store a code pointer as raw bytes with NO relocation entry:
            // only the byte scan can find it.
            let target_addr = 0x1000u64 + 9; // interior of the mov below
            a.data_bytes(&target_addr.to_le_bytes());
            a.mov_ri(vcfr_isa::Reg::Rax, 0); // 10 bytes: 0x1000..0x100a
            a.halt();
        });
        // mov_ri is 10 bytes, so halt is at 0x100a, not 0x1009 — the
        // planted pointer is stale and must NOT be picked up.
        let targets = address_taken_targets(&img, &d);
        assert!(targets.is_empty());

        // Now plant a *correct* pointer.
        let (img, d, _) = prep(|a| {
            a.data_bytes(&(0x1000u64 + 10).to_le_bytes());
            a.mov_ri(vcfr_isa::Reg::Rax, 0);
            a.halt();
        });
        let targets = address_taken_targets(&img, &d);
        assert_eq!(targets.into_iter().collect::<Vec<_>>(), vec![0x100a]);
    }

    #[test]
    fn jump_table_resolves_exactly() {
        let (img, d, cfg) = prep(|a| {
            let c0 = a.label();
            let c1 = a.label();
            let t = a.data_ptr_table(&[c0, c1]);
            a.mov_ri(vcfr_isa::Reg::Rbx, t.0 as i64);
            a.jmp_m(vcfr_isa::Reg::Rbx, 0);
            a.bind(c0);
            a.halt();
            a.bind(c1);
            a.halt();
        });
        let res = resolve_indirect_targets(&img, &d, &cfg);
        assert!(res.fully_resolved());
        let site = res.sites.keys().next().copied().unwrap();
        match &res.sites[&site] {
            Resolved::Exact(ts) => {
                assert_eq!(ts.len(), 2);
                assert_eq!(ts[0], img.relocs[0].target);
            }
            other => panic!("expected exact resolution, got {other:?}"),
        }
    }

    #[test]
    fn scaled_index_table_load_resolves() {
        let (img, d, cfg) = prep(|a| {
            let c0 = a.label();
            let c1 = a.label();
            let t = a.data_ptr_table(&[c0, c1]);
            a.mov_ri(vcfr_isa::Reg::Rbx, t.0 as i64);
            a.load_idx(vcfr_isa::Reg::Rdx, vcfr_isa::Reg::Rbx, vcfr_isa::Reg::Rcx, 3, 0);
            a.jmp_r(vcfr_isa::Reg::Rdx);
            a.bind(c0);
            a.halt();
            a.bind(c1);
            a.halt();
        });
        let res = resolve_indirect_targets(&img, &d, &cfg);
        assert!(res.fully_resolved());
        let Resolved::Exact(ts) = res.sites.values().next().unwrap() else {
            panic!("expected exact");
        };
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn constant_function_pointer_resolves_to_single_target() {
        let (img, d, cfg) = prep(|a| {
            let f = a.label();
            a.mov_label(vcfr_isa::Reg::Rax, f);
            a.call_r(vcfr_isa::Reg::Rax);
            a.halt();
            a.bind(f);
            a.ret();
        });
        let res = resolve_indirect_targets(&img, &d, &cfg);
        let Resolved::Exact(ts) = res.sites.values().next().unwrap() else {
            panic!("expected exact");
        };
        assert_eq!(ts.len(), 1);
        assert!(img.in_text(ts[0]));
    }

    #[test]
    fn unknown_register_stays_conservative() {
        let (img, d, cfg) = prep(|a| {
            let f = a.label();
            let _t = a.data_ptr_table(&[f]); // makes f address-taken
            a.pop(vcfr_isa::Reg::Rax); // value unknowable statically
            a.jmp_r(vcfr_isa::Reg::Rax);
            a.bind(f);
            a.halt();
        });
        let res = resolve_indirect_targets(&img, &d, &cfg);
        assert!(!res.fully_resolved());
        assert_eq!(res.conservative_sites().count(), 1);
    }

    #[test]
    fn return_safety_direct_vs_indirect_and_pic_idiom() {
        let (img, d, cfg) = prep(|a| {
            a.call_named("plain"); // safe
            a.call_named("pic"); // unsafe: reads [rsp+0]
            let f = a.named_label("plain");
            a.mov_label(vcfr_isa::Reg::Rax, f);
            a.call_r(vcfr_isa::Reg::Rax); // unsafe: indirect
            a.halt();
            a.func("plain");
            a.ret();
            a.func("pic");
            a.load(vcfr_isa::Reg::Rbx, vcfr_isa::Reg::Rsp, 0); // reads own return address
            a.ret();
        });
        let safety = return_address_safety(&img, &d, &cfg);
        let mut vals: Vec<bool> = safety.values().copied().collect();
        // Sites in address order: call plain, call pic, call_r.
        assert_eq!(vals.len(), 3);
        assert!(vals.remove(0));
        assert!(!vals.remove(0));
        assert!(!vals.remove(0));
    }
}
