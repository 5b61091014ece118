//! Property-based tests for the disassembler and CFG builder:
//! robustness on arbitrary byte soup and structural invariants on
//! well-formed programs, plus fixed edge inputs of the analyses.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use vcfr::isa::{Asm, Image, Inst, Reg, Reloc, Section, SectionKind};
use vcfr::rewriter::{
    address_taken_targets, disassemble, randomize, resolve_indirect_targets, return_address_safety,
    Cfg, RandomizeConfig, Resolved, Terminator,
};

/// Wraps arbitrary bytes as a text section with a halt-terminated entry
/// so recursive descent stops immediately and the sweep has to cope with
/// the soup.
fn soup_image(bytes: Vec<u8>) -> Image {
    let mut text = vec![0x01]; // halt at the entry
    text.extend(bytes);
    Image {
        sections: vec![Section { kind: SectionKind::Text, base: 0x1000, bytes: text }],
        entry: 0x1000,
        stack_top: 0xf000,
        symbols: vec![],
        relocs: vec![],
    }
}

proptest! {
    /// The sweeping disassembler must never panic and never fabricate
    /// instructions outside the section.
    #[test]
    fn sweep_is_total_and_in_bounds(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let img = soup_image(bytes);
        let end = img.text().end();
        if let Ok(d) = disassemble(&img) {
            for (addr, inst) in d.iter() {
                prop_assert!(addr >= 0x1000);
                prop_assert!(addr + inst.len() as u32 <= end);
            }
            // The entry halt is always reachable.
            prop_assert!(d.is_reachable(0x1000));
        }
    }

    /// The disassembly's lookups agree with its iteration at every
    /// address in and around the text section, soup the sweep skipped
    /// included. Without the leading halt, descent wanders into the soup
    /// and reachability gets interesting.
    #[test]
    fn lookups_agree_with_iteration(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        halt_first in any::<bool>(),
    ) {
        let mut img = soup_image(bytes);
        if !halt_first {
            img.sections[0].bytes.remove(0);
        }
        let Ok(d) = disassemble(&img) else { return Ok(()) };
        let insts: BTreeMap<u32, Inst> = d.iter().map(|(a, i)| (a, *i)).collect();
        prop_assert_eq!(insts.len(), d.len());
        prop_assert!(d.iter().map(|(a, _)| a).collect::<Vec<_>>().windows(2).all(|w| w[0] < w[1]));
        let reachable: BTreeSet<u32> = d.reachable().map(|(a, _)| a).collect();
        prop_assert!(reachable.iter().all(|a| insts.contains_key(a)));
        let text = img.text();
        for addr in text.base - 16..text.end() + 16 {
            prop_assert_eq!(d.at(addr), insts.get(&addr));
            prop_assert_eq!(d.is_inst_start(addr), insts.contains_key(&addr));
            prop_assert_eq!(d.is_reachable(addr), reachable.contains(&addr));
        }
    }

    /// CFG invariants over arbitrary (tiny, halt-prefixed) programs:
    /// blocks are non-empty, disjoint in address, and every successor
    /// edge points at a real block start.
    #[test]
    fn cfg_structural_invariants(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let img = soup_image(bytes);
        let Ok(d) = disassemble(&img) else { return Ok(()) };
        let targets = address_taken_targets(&img, &d);
        let cfg = Cfg::build(&img, &d, &targets);

        let mut prev_end = 0u32;
        for (start, block) in &cfg.blocks {
            prop_assert!(!block.insts.is_empty());
            prop_assert_eq!(*start, block.insts[0].0);
            prop_assert!(*start >= prev_end, "blocks overlap");
            prev_end = block.end();
            // Instructions inside a block are contiguous.
            let mut expect = *start;
            for (a, i) in &block.insts {
                prop_assert_eq!(*a, expect);
                expect = a + i.len() as u32;
            }
        }
        for (from, succs) in &cfg.succs {
            prop_assert!(cfg.blocks.contains_key(from));
            for s in succs {
                prop_assert!(cfg.blocks.contains_key(s), "dangling edge {from:#x}->{s:#x}");
            }
        }
        for (to, preds) in &cfg.preds {
            for p in preds {
                prop_assert!(
                    cfg.succs.get(p).map(|ss| ss.contains(to)).unwrap_or(false),
                    "pred/succ asymmetry {p:#x}->{to:#x}"
                );
            }
        }
        // Terminator sanity: return/halt blocks have no successors.
        for (start, block) in &cfg.blocks {
            if matches!(block.term, Terminator::Return | Terminator::Halt) {
                prop_assert!(cfg.succs[start].is_empty());
            }
        }
    }

    /// Image persistence round-trips even for soup sections.
    #[test]
    fn image_persistence_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let img = soup_image(bytes);
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        prop_assert_eq!(back, img);
    }
}

proptest! {
    /// Artefact deserialization is total: arbitrary bytes (including
    /// valid magic prefixes followed by garbage) never panic.
    #[test]
    fn persistence_never_panics(mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
                                use_magic in any::<bool>()) {
        if use_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"VCFRIMG1");
        }
        let _ = Image::from_bytes(&bytes);
        if use_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"VCFRRP01");
        }
        let _ = vcfr::rewriter::RandomizedProgram::from_bytes(&bytes);
    }
}

/// A function symbol whose extent wraps past the top of the address
/// space covers no instruction, and neither does a zero-size one: their
/// callees are not proven to return, so their call sites stay unsafe.
#[test]
fn wrapping_and_zero_size_symbols_cover_nothing() {
    let mut a = Asm::new(0x1000);
    a.call_named("wraps");
    a.call_named("empty");
    a.call_named("plain");
    a.halt();
    for name in ["wraps", "empty", "plain"] {
        a.func(name);
        a.ret();
    }
    let mut img = a.finish().unwrap();
    for sym in &mut img.symbols {
        match sym.name.as_str() {
            "wraps" => sym.size = u32::MAX,
            "empty" => sym.size = 0,
            _ => {}
        }
    }
    let d = disassemble(&img).unwrap();
    let cfg = Cfg::build(&img, &d, &address_taken_targets(&img, &d));
    let safety = return_address_safety(&img, &d, &cfg);
    assert_eq!(safety.values().copied().collect::<Vec<_>>(), vec![false, false, true]);
    let cfg =
        RandomizeConfig { software_return_randomization: true, ..RandomizeConfig::with_seed(1) };
    let rp = randomize(&img, &cfg).unwrap();
    assert_eq!((rp.stats.safe_return_sites, rp.stats.software_expanded_calls), (1, 1));
}

/// A jump table whose relocation slots end at the top of the address
/// space resolves to exactly its two slots: the run stops where the next
/// slot wraps to an unrelocated address.
#[test]
fn a_relocation_run_ending_at_the_top_of_the_address_space_resolves() {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rbx, 0xffff_fff0);
    a.jmp_m(Reg::Rbx, 0);
    a.halt();
    a.halt();
    let mut img = a.finish().unwrap();
    img.relocs =
        vec![Reloc { at: 0xffff_fff0, target: 0x1010 }, Reloc { at: 0xffff_fff8, target: 0x1011 }];
    let d = disassemble(&img).unwrap();
    let cfg = Cfg::build(&img, &d, &address_taken_targets(&img, &d));
    let res = resolve_indirect_targets(&img, &d, &cfg);
    assert_eq!(res.sites.get(&0x100a), Some(&Resolved::Exact(vec![0x1010, 0x1011])));
    let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
    assert_eq!((rp.stats.conservative_sites, rp.stats.rewritten_data_slots), (0, 0));
}

/// The pointer-sized-constant scan reads only whole 8-byte windows: a
/// data section shorter than a pointer names no target, and one byte
/// more names the halt its bytes point at.
#[test]
fn a_data_section_shorter_than_a_pointer_is_not_scanned() {
    for len in 0..=8 {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 0);
        a.halt();
        let mut img = a.finish().unwrap();
        let bytes = 0x100au64.to_le_bytes()[..len].to_vec();
        img.sections.push(Section { kind: SectionKind::Data, base: 0x8000, bytes });
        let d = disassemble(&img).unwrap();
        let want: Vec<u32> = if len == 8 { vec![0x100a] } else { vec![] };
        assert_eq!(address_taken_targets(&img, &d).into_iter().collect::<Vec<_>>(), want);
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        assert_eq!(rp.stats.pinned_by_scan, want.len(), "{len} data bytes");
    }
}
