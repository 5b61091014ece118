//! On-disk persistence for [`RandomizedProgram`] — the deployable
//! artefact pair the paper's randomization software produces: "a binary
//! file with randomized instruction segments and lookup tables that can
//! be used to de-randomize the instruction space" (§VI-A).

use crate::randomize::{RandomizeStats, RandomizedProgram};
use std::collections::BTreeMap;
use vcfr_core::{LayoutMap, OrigAddr, TranslationTable};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, Image};

/// Magic/version header of serialized randomized programs.
pub const PROGRAM_MAGIC: [u8; 8] = *b"VCFRRP01";

impl RandomizedProgram {
    /// Serializes the whole artefact: both images, the layout, the
    /// fail-over set, the successor map and the rewrite statistics.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_magic(PROGRAM_MAGIC);
        w.bytes(&self.original.to_bytes());
        w.bytes(&self.scattered.to_bytes());

        self.layout().save(&mut w);

        w.u32(self.table.base());
        let mut failover: Vec<u32> = self.table.unrandomized_addrs().map(|a| a.raw()).collect();
        failover.sort_unstable();
        w.u64(failover.len() as u64);
        for a in failover {
            w.u32(a);
        }

        let succ: BTreeMap<Addr, Addr> = self.succ.iter().map(|(k, v)| (*k, *v)).collect();
        w.u64(succ.len() as u64);
        for (k, v) in succ {
            w.u32(k);
            w.u32(v);
        }

        w.u32(self.region.0);
        w.u32(self.region.1);

        let s = &self.stats;
        for v in [
            s.instructions,
            s.randomized,
            s.unrandomized,
            s.rewritten_branches,
            s.rewritten_code_pointers,
            s.rewritten_data_slots,
            s.failover_entries,
            s.pinned_by_scan,
            s.conservative_sites,
            s.safe_return_sites,
            s.call_sites,
            s.software_expanded_calls,
            s.expansion_bytes,
        ] {
            w.u64(v as u64);
        }

        w.u64(self.return_safety.len() as u64);
        for (addr, safe) in &self.return_safety {
            w.u32(*addr);
            w.u8(*safe as u8);
        }

        w.into_bytes()
    }

    /// Deserializes an artefact written by [`RandomizedProgram::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, corruption or a version
    /// mismatch, on a count the input cannot hold, and
    /// [`WireError::BadAddress`] on a layout pair outside the original
    /// text section or repeating an address.
    pub fn from_bytes(buf: &[u8]) -> Result<RandomizedProgram, WireError> {
        let mut r = Reader::with_magic(buf, PROGRAM_MAGIC)?;
        let original = Image::from_bytes(r.bytes()?)?;
        let scattered = Image::from_bytes(r.bytes()?)?;

        let text = original.text();
        let layout = LayoutMap::restore(&mut r, text.base, text.bytes.len())?;

        let table_base = r.u32()?;
        let mut table = TranslationTable::from_layout(layout, table_base);
        for _ in 0..r.count(4)? {
            table.add_unrandomized(OrigAddr(r.u32()?));
        }

        let nsucc = r.count(8)?;
        let mut succ = std::collections::HashMap::with_capacity(nsucc);
        for _ in 0..nsucc {
            let k = r.u32()?;
            let v = r.u32()?;
            succ.insert(k, v);
        }

        let region = (r.u32()?, r.u32()?);

        let mut vals = [0usize; 13];
        for v in vals.iter_mut() {
            *v = r.u64()? as usize;
        }
        let stats = RandomizeStats {
            instructions: vals[0],
            randomized: vals[1],
            unrandomized: vals[2],
            rewritten_branches: vals[3],
            rewritten_code_pointers: vals[4],
            rewritten_data_slots: vals[5],
            failover_entries: vals[6],
            pinned_by_scan: vals[7],
            conservative_sites: vals[8],
            safe_return_sites: vals[9],
            call_sites: vals[10],
            software_expanded_calls: vals[11],
            expansion_bytes: vals[12],
        };

        let mut return_safety = BTreeMap::new();
        for _ in 0..r.count(5)? {
            let addr = r.u32()?;
            let safe = r.u8()? != 0;
            return_safety.insert(addr, safe);
        }

        Ok(RandomizedProgram {
            original,
            scattered,
            table,
            succ,
            region,
            stats,
            return_safety,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomize::{randomize, RandomizeConfig};
    use vcfr_isa::{AluOp, Asm, Cond, Machine, Reg};

    fn program() -> RandomizedProgram {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 20);
        let top = a.here();
        a.call_named("leaf");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        a.func("leaf");
        a.alu_ri(AluOp::Add, Reg::Rax, 2);
        a.ret();
        let img = a.finish().unwrap();
        randomize(&img, &RandomizeConfig::with_seed(77)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_artefact_and_behaviour() {
        let rp = program();
        let bytes = rp.to_bytes();
        let back = RandomizedProgram::from_bytes(&bytes).unwrap();

        assert_eq!(back.original, rp.original);
        assert_eq!(back.scattered, rp.scattered);
        assert_eq!(back.region, rp.region);
        assert_eq!(back.stats, rp.stats);
        assert_eq!(back.succ, rp.succ);
        assert_eq!(back.return_safety, rp.return_safety);
        assert_eq!(back.layout().len(), rp.layout().len());
        for (o, r) in rp.layout().iter() {
            assert_eq!(back.layout().to_rand(o), Some(r));
        }

        // Behavioural equivalence: the reloaded artefact executes.
        let want = Machine::new(&rp.original).run(10_000).unwrap().output;
        let got = back.scattered_machine().run(10_000).unwrap().output;
        assert_eq!(got, want);
    }

    #[test]
    fn table_semantics_survive_the_roundtrip() {
        let rp = program();
        let back = RandomizedProgram::from_bytes(&rp.to_bytes()).unwrap();
        // Prohibition and fail-over behave identically.
        assert_eq!(
            back.table.derand(vcfr_core::RandAddr(0x1000)).is_err(),
            rp.table.derand(vcfr_core::RandAddr(0x1000)).is_err()
        );
        for (o, r) in rp.layout().iter() {
            assert_eq!(back.table.derand(r).unwrap(), o);
        }
    }

    /// A layout pair whose original address lies outside the original
    /// text is refused by name, before anything is sized by it.
    #[test]
    fn a_layout_pair_outside_the_text_is_refused() {
        let rp = program();
        let mut bytes = rp.to_bytes();
        // Magic, the two length-prefixed images, then the pair count.
        let first_pair =
            8 + 8 + rp.original.to_bytes().len() + 8 + rp.scattered.to_bytes().len() + 8;
        bytes[first_pair..first_pair + 4].copy_from_slice(&0x0400_0000u32.to_le_bytes());
        assert_eq!(
            RandomizedProgram::from_bytes(&bytes).unwrap_err(),
            WireError::BadAddress { addr: 0x0400_0000 }
        );
    }

    #[test]
    fn corruption_is_rejected() {
        let rp = program();
        let bytes = rp.to_bytes();
        assert!(RandomizedProgram::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut flipped = bytes.clone();
        flipped[3] ^= 0xff;
        assert!(RandomizedProgram::from_bytes(&flipped).is_err());
    }
}
