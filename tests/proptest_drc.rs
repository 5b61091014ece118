//! Property-based tests of the DRC/translation-table pair: the cache is
//! a *pure accelerator* — its answers always equal the table's, for any
//! geometry and any lookup sequence.

use proptest::prelude::*;
use vcfr::core::{Drc, DrcConfig, LayoutMap, OrigAddr, RandAddr, TranslationTable};

fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::btree_map(1u32..0x1_0000, 0x10_0000u32..0x11_0000, 1..200)
        .prop_map(|m| {
            // Distinct keys from the btree map; make values distinct by
            // indexing.
            m.into_iter()
                .enumerate()
                .map(|(i, (o, _))| (o, 0x10_0000 + i as u32 * 16))
                .collect()
        })
}

fn arb_geometry() -> impl Strategy<Value = DrcConfig> {
    (0usize..4, prop_oneof![Just(1usize), Just(2), Just(4)]).prop_map(|(size_exp, ways)| {
        DrcConfig { entries: (64 << size_exp) * ways / ways, ways }
    })
}

proptest! {
    /// DRC answers equal table answers on hits AND misses, for any
    /// geometry and access pattern.
    #[test]
    fn drc_is_a_transparent_cache(
        pairs in arb_pairs(),
        geometry in arb_geometry(),
        accesses in proptest::collection::vec((any::<bool>(), 0usize..200), 1..400),
    ) {
        let map = LayoutMap::from_pairs(
            pairs.iter().map(|(o, r)| (OrigAddr(*o), RandAddr(*r))),
        ).unwrap();
        let table = TranslationTable::from_layout(map, 0x4000_0000);
        let mut drc = Drc::new(geometry);

        for (derand, idx) in accesses {
            let (o, r) = pairs[idx % pairs.len()];
            if derand {
                let got = drc.derandomize(RandAddr(r), &table).unwrap();
                prop_assert_eq!(got.translated, o);
            } else {
                let got = drc.randomize(OrigAddr(o), &table).unwrap();
                prop_assert_eq!(got.translated, r);
            }
        }
        let s = drc.stats();
        prop_assert!(s.misses <= s.lookups);
        prop_assert_eq!(s.derand_lookups + s.rand_lookups, s.lookups);
    }

    /// Repeating one lookup makes it hit: the second access to any key is
    /// a hit as long as nothing conflicting intervened.
    #[test]
    fn immediate_repeat_hits(pairs in arb_pairs(), which in 0usize..200) {
        let map = LayoutMap::from_pairs(
            pairs.iter().map(|(o, r)| (OrigAddr(*o), RandAddr(*r))),
        ).unwrap();
        let table = TranslationTable::from_layout(map, 0x4000_0000);
        let mut drc = Drc::direct_mapped(64);
        let (_, r) = pairs[which % pairs.len()];
        drc.derandomize(RandAddr(r), &table).unwrap();
        let second = drc.derandomize(RandAddr(r), &table).unwrap();
        prop_assert!(second.hit);
    }

    /// The prohibition property survives arbitrary fail-over additions:
    /// a randomized instruction's original address never translates,
    /// and registered fail-over addresses always do.
    #[test]
    fn prohibition_vs_failover(
        pairs in arb_pairs(),
        failover in proptest::collection::vec(0x20_0000u32..0x20_1000, 0..20),
    ) {
        let map = LayoutMap::from_pairs(
            pairs.iter().map(|(o, r)| (OrigAddr(*o), RandAddr(*r))),
        ).unwrap();
        let mut table = TranslationTable::from_layout(map, 0x4000_0000);
        for f in &failover {
            table.add_unrandomized(OrigAddr(*f));
        }
        for (o, _) in &pairs {
            prop_assert!(table.derand(RandAddr(*o)).is_err());
        }
        for f in &failover {
            prop_assert_eq!(table.derand(RandAddr(*f)).unwrap(), OrigAddr(*f));
        }
    }
}
