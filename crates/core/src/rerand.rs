//! Periodic re-randomization (§V-C).
//!
//! "A common practice to prevent leaking randomization/de-randomization
//! tables to the attackers is to apply regular re-randomization of the
//! binary images" — even a leaked table is outdated after the next
//! re-randomization. This module produces a fresh [`LayoutMap`] over the
//! same set of original instruction addresses.

use crate::{LayoutError, LayoutMap, RandAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a fresh randomized layout for the instructions of `map`, placing
/// every instruction at a new distinct address in
/// `[region_lo, region_hi)`.
///
/// The result maps the *same* original addresses, over the same range,
/// so existing scattered images can be regenerated and old translation
/// tables invalidated. Instructions draw in original-address order, and
/// a draw that lands on a taken address is drawn again.
///
/// # Panics
///
/// Panics if the region cannot hold `map.len()` distinct addresses with a
/// comfortable margin (the region must be at least 4× the instruction
/// count to keep rejection sampling cheap, mirroring the paper's large
/// randomization space).
///
/// # Example
///
/// ```
/// use vcfr_core::{rerandomize, LayoutMap, OrigAddr, RandAddr};
/// let old = LayoutMap::from_pairs([(OrigAddr(0x1000), RandAddr(0x9000))]).unwrap();
/// let new = rerandomize(&old, 0x10_0000, 0x20_0000, 1);
/// assert_eq!(new.len(), 1);
/// assert!(new.to_rand(OrigAddr(0x1000)).is_some());
/// ```
pub fn rerandomize(map: &LayoutMap, region_lo: u32, region_hi: u32, seed: u64) -> LayoutMap {
    let span = region_hi.checked_sub(region_lo).expect("region_hi must exceed region_lo");
    assert!(
        span as u64 >= map.len() as u64 * 4,
        "randomization region too small: {} addresses into {} bytes",
        map.len(),
        span
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (base, len) = map.range();
    let mut fresh = LayoutMap::new(base, len);
    for (orig, _) in map.iter() {
        loop {
            let candidate = RandAddr(region_lo + rng.gen_range(0..span));
            match fresh.insert(orig, candidate) {
                Ok(()) => break,
                Err(LayoutError::DuplicateRand { .. }) => continue,
                Err(e) => unreachable!("the old map's pairs are distinct and in range: {e}"),
            }
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrigAddr;

    fn base_map(n: u32) -> LayoutMap {
        LayoutMap::from_pairs((0..n).map(|i| (OrigAddr(0x1000 + i), RandAddr(0x9000 + i))))
            .unwrap()
    }

    #[test]
    fn preserves_original_addresses() {
        let old = base_map(100);
        let new = rerandomize(&old, 0x10_0000, 0x20_0000, 42);
        assert_eq!(new.len(), old.len());
        for (orig, _) in old.iter() {
            assert!(new.to_rand(orig).is_some());
        }
        assert_eq!(new.range(), old.range());
    }

    #[test]
    fn new_addresses_land_in_region() {
        let new = rerandomize(&base_map(50), 0x10_0000, 0x11_0000, 7);
        for (_, r) in new.iter() {
            assert!(r.raw() >= 0x10_0000 && r.raw() < 0x11_0000);
        }
    }

    #[test]
    fn deterministic_for_a_seed_and_distinct_across_seeds() {
        let old = base_map(64);
        let a = rerandomize(&old, 0x10_0000, 0x20_0000, 1);
        let b = rerandomize(&old, 0x10_0000, 0x20_0000, 1);
        let c = rerandomize(&old, 0x10_0000, 0x20_0000, 2);
        let collect = |m: &LayoutMap| m.iter().collect::<Vec<_>>();
        assert_eq!(collect(&a), collect(&b));
        assert_ne!(collect(&a), collect(&c));
    }

    #[test]
    fn layout_actually_changes() {
        let old = base_map(64);
        let new = rerandomize(&old, 0x9000, 0x10_0000, 3);
        let moved = old
            .iter()
            .filter(|(o, r)| new.to_rand(*o) != Some(*r))
            .count();
        // Practically all instructions move; demand at least half.
        assert!(moved >= 32, "only {moved}/64 instructions moved");
    }

    #[test]
    #[should_panic(expected = "region too small")]
    fn rejects_cramped_regions() {
        let _ = rerandomize(&base_map(1000), 0, 100, 1);
    }
}
