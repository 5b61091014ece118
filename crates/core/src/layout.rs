//! The per-instruction bijection between the original and randomized
//! instruction spaces.

use crate::{OrigAddr, RandAddr};
use std::collections::HashMap;
use std::fmt;
use vcfr_isa::wire::{Reader, WireError, Writer};

/// An error constructing a [`LayoutMap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// Two instructions were assigned the same randomized address.
    DuplicateRand {
        /// The colliding randomized address.
        rand: RandAddr,
    },
    /// The same original address was mapped twice.
    DuplicateOrig {
        /// The colliding original address.
        orig: OrigAddr,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DuplicateRand { rand } => {
                write!(f, "randomized address {rand} assigned twice")
            }
            LayoutError::DuplicateOrig { orig } => {
                write!(f, "original address {orig} mapped twice")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A bijection `original instruction address ↔ randomized instruction
/// address`, one pair per instruction.
///
/// The map is the rewriter's central artefact: the scattered binary image,
/// the successor map and the translation tables are all derived from it.
///
/// # Example
///
/// ```
/// use vcfr_core::{LayoutMap, OrigAddr, RandAddr};
/// let map = LayoutMap::from_pairs([
///     (OrigAddr(0x1000), RandAddr(0x8f00)),
///     (OrigAddr(0x1005), RandAddr(0x1234)),
/// ]).unwrap();
/// assert_eq!(map.to_rand(OrigAddr(0x1005)), Some(RandAddr(0x1234)));
/// assert_eq!(map.to_orig(RandAddr(0x8f00)), Some(OrigAddr(0x1000)));
/// assert_eq!(map.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LayoutMap {
    rand_of: HashMap<OrigAddr, RandAddr>,
    orig_of: HashMap<RandAddr, OrigAddr>,
    /// Dense forward index: `fwd[orig - fwd_base]` is the randomized
    /// address ([`NO_RAND`] when unmapped). Original addresses cover the
    /// (small, contiguous) text section, so the array stays compact; the
    /// simulator performs a forward lookup per simulated instruction in
    /// naive-ILR mode, and this keeps hashing off that path.
    fwd_base: u32,
    fwd: Vec<u32>,
    /// Whether any pair maps to [`NO_RAND`] itself, in which case a
    /// dense miss must be double-checked against the hash map.
    has_sentinel_rand: bool,
}

/// Dense-index slot value for "unmapped".
const NO_RAND: u32 = u32::MAX;

impl LayoutMap {
    /// Builds a map from `(original, randomized)` pairs.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if either side repeats — the map must be
    /// a bijection.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (OrigAddr, RandAddr)>,
    ) -> Result<LayoutMap, LayoutError> {
        let mut m = LayoutMap::default();
        for (o, r) in pairs {
            m.insert(o, r)?;
        }
        Ok(m)
    }

    /// An empty map with room for `n` pairs before either direction
    /// rehashes.
    pub fn with_capacity(n: usize) -> LayoutMap {
        LayoutMap {
            rand_of: HashMap::with_capacity(n),
            orig_of: HashMap::with_capacity(n),
            ..LayoutMap::default()
        }
    }

    /// Adds one pair.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] on a duplicate original or randomized
    /// address.
    pub fn insert(&mut self, orig: OrigAddr, rand: RandAddr) -> Result<(), LayoutError> {
        if self.rand_of.contains_key(&orig) {
            return Err(LayoutError::DuplicateOrig { orig });
        }
        if self.orig_of.contains_key(&rand) {
            return Err(LayoutError::DuplicateRand { rand });
        }
        self.rand_of.insert(orig, rand);
        self.orig_of.insert(rand, orig);
        self.dense_set(orig.0, rand.0);
        Ok(())
    }

    fn dense_set(&mut self, orig: u32, rand: u32) {
        if rand == NO_RAND {
            self.has_sentinel_rand = true;
            return;
        }
        if self.fwd.is_empty() {
            self.fwd_base = orig;
        } else if orig < self.fwd_base {
            let shift = (self.fwd_base - orig) as usize;
            let mut grown = vec![NO_RAND; shift + self.fwd.len()];
            grown[shift..].copy_from_slice(&self.fwd);
            self.fwd = grown;
            self.fwd_base = orig;
        }
        let off = (orig - self.fwd_base) as usize;
        if off >= self.fwd.len() {
            self.fwd.resize(off + 1, NO_RAND);
        }
        self.fwd[off] = rand;
    }

    /// Randomized address of an original instruction, if mapped.
    #[inline]
    pub fn to_rand(&self, orig: OrigAddr) -> Option<RandAddr> {
        let off = orig.0.wrapping_sub(self.fwd_base) as usize;
        match self.fwd.get(off) {
            Some(&r) if r != NO_RAND => Some(RandAddr(r)),
            _ if !self.has_sentinel_rand => None,
            _ => self.rand_of.get(&orig).copied(),
        }
    }

    /// Original address of a randomized instruction, if mapped.
    pub fn to_orig(&self, rand: RandAddr) -> Option<OrigAddr> {
        self.orig_of.get(&rand).copied()
    }

    /// Number of mapped instructions.
    pub fn len(&self) -> usize {
        self.rand_of.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.rand_of.is_empty()
    }

    /// Iterates over `(original, randomized)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (OrigAddr, RandAddr)> + '_ {
        self.rand_of.iter().map(|(o, r)| (*o, *r))
    }

    /// Iterates over all original addresses in the map.
    pub fn origs(&self) -> impl Iterator<Item = OrigAddr> + '_ {
        self.rand_of.keys().copied()
    }

    /// Serialises the map (checkpoint support) as `(original,
    /// randomized)` pairs in sorted original-address order, so the byte
    /// form is deterministic.
    pub fn save(&self, w: &mut Writer) {
        let mut pairs: Vec<(u32, u32)> = self.iter().map(|(o, r)| (o.0, r.0)).collect();
        pairs.sort_unstable();
        w.u64(pairs.len() as u64);
        for (o, r) in pairs {
            w.u32(o);
            w.u32(r);
        }
    }

    /// Rebuilds a map from [`LayoutMap::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input, an implausible pair count, or
    /// duplicated addresses (a valid save never contains them).
    pub fn restore(r: &mut Reader<'_>) -> Result<LayoutMap, WireError> {
        let n = r.u64()?;
        if n > 1 << 28 {
            return Err(WireError::LengthOutOfRange { len: n });
        }
        let mut m = LayoutMap::default();
        for _ in 0..n {
            let o = r.u32()?;
            let rand = r.u32()?;
            if m.insert(OrigAddr(o), RandAddr(rand)).is_err() {
                return Err(WireError::LengthOutOfRange { len: n });
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijection_enforced() {
        let mut m = LayoutMap::default();
        m.insert(OrigAddr(1), RandAddr(10)).unwrap();
        assert_eq!(
            m.insert(OrigAddr(1), RandAddr(11)),
            Err(LayoutError::DuplicateOrig { orig: OrigAddr(1) })
        );
        assert_eq!(
            m.insert(OrigAddr(2), RandAddr(10)),
            Err(LayoutError::DuplicateRand { rand: RandAddr(10) })
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lookup_both_directions() {
        let m = LayoutMap::from_pairs([(OrigAddr(5), RandAddr(50))]).unwrap();
        assert_eq!(m.to_rand(OrigAddr(5)), Some(RandAddr(50)));
        assert_eq!(m.to_orig(RandAddr(50)), Some(OrigAddr(5)));
        assert_eq!(m.to_rand(OrigAddr(6)), None);
        assert_eq!(m.to_orig(RandAddr(51)), None);
    }

    #[test]
    fn out_of_order_inserts_rebase_the_dense_index() {
        let mut m = LayoutMap::default();
        m.insert(OrigAddr(0x2000), RandAddr(7)).unwrap();
        m.insert(OrigAddr(0x1000), RandAddr(8)).unwrap();
        m.insert(OrigAddr(0x3000), RandAddr(9)).unwrap();
        assert_eq!(m.to_rand(OrigAddr(0x1000)), Some(RandAddr(8)));
        assert_eq!(m.to_rand(OrigAddr(0x2000)), Some(RandAddr(7)));
        assert_eq!(m.to_rand(OrigAddr(0x3000)), Some(RandAddr(9)));
        assert_eq!(m.to_rand(OrigAddr(0x2001)), None);
        assert_eq!(m.to_rand(OrigAddr(0x0fff)), None);
        assert_eq!(m.to_rand(OrigAddr(0x3001)), None);
    }

    #[test]
    fn sentinel_valued_randomized_address_still_resolves() {
        let mut m = LayoutMap::default();
        m.insert(OrigAddr(10), RandAddr(u32::MAX)).unwrap();
        m.insert(OrigAddr(11), RandAddr(20)).unwrap();
        assert_eq!(m.to_rand(OrigAddr(10)), Some(RandAddr(u32::MAX)));
        assert_eq!(m.to_rand(OrigAddr(11)), Some(RandAddr(20)));
        assert_eq!(m.to_orig(RandAddr(u32::MAX)), Some(OrigAddr(10)));
    }

    #[test]
    fn save_restore_roundtrip_preserves_lookups() {
        use vcfr_isa::wire::{Reader, Writer};
        let m = LayoutMap::from_pairs([
            (OrigAddr(0x2000), RandAddr(7)),
            (OrigAddr(0x1000), RandAddr(8)),
            (OrigAddr(10), RandAddr(u32::MAX)), // sentinel-valued rand
        ])
        .unwrap();
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let back = LayoutMap::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), 3);
        assert_eq!(back.to_rand(OrigAddr(0x1000)), Some(RandAddr(8)));
        assert_eq!(back.to_rand(OrigAddr(10)), Some(RandAddr(u32::MAX)));
        assert_eq!(back.to_orig(RandAddr(7)), Some(OrigAddr(0x2000)));
        // Byte form is stable under a second save.
        let mut w2 = Writer::with_magic(*b"VCFRTEST");
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), buf);
    }

    #[test]
    fn restore_rejects_duplicate_pairs() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(2);
        w.u32(5);
        w.u32(50);
        w.u32(5); // duplicate original address
        w.u32(51);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(LayoutMap::restore(&mut r).is_err());
    }

    #[test]
    fn iteration_covers_all_pairs() {
        let pairs = [(OrigAddr(1), RandAddr(9)), (OrigAddr(2), RandAddr(8))];
        let m = LayoutMap::from_pairs(pairs).unwrap();
        let mut got: Vec<_> = m.iter().collect();
        got.sort();
        assert_eq!(got, vec![(OrigAddr(1), RandAddr(9)), (OrigAddr(2), RandAddr(8))]);
        assert!(!m.is_empty());
    }
}
