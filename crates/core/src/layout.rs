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
    /// An original address lies outside the range the map was built
    /// for.
    OutOfRange {
        /// The offending original address.
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
            LayoutError::OutOfRange { orig } => {
                write!(f, "original address {orig} outside the mapped range")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl From<LayoutError> for WireError {
    fn from(e: LayoutError) -> WireError {
        let addr = match e {
            LayoutError::DuplicateRand { rand } => rand.raw(),
            LayoutError::DuplicateOrig { orig } | LayoutError::OutOfRange { orig } => orig.raw(),
        };
        WireError::BadAddress { addr }
    }
}

/// A bijection `original instruction address ↔ randomized instruction
/// address`, one pair per instruction, over a fixed range of original
/// addresses (the text section it was built for).
///
/// The map is the rewriter's central artefact: the scattered binary image,
/// the successor map and the translation tables are all derived from it.
/// It keeps one structure per direction: a dense forward index over the
/// original range and a hash map from randomized to original addresses.
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
#[derive(Clone, Debug)]
pub struct LayoutMap {
    orig_of: HashMap<RandAddr, OrigAddr>,
    /// Dense forward index: `fwd[orig - base]` is the randomized address
    /// ([`NO_RAND`] when unmapped). The simulator performs a forward
    /// lookup per simulated instruction in naive-ILR mode, and this keeps
    /// hashing off that path.
    base: u32,
    fwd: Vec<u32>,
    /// The original address mapped to [`NO_RAND`] itself, which the
    /// dense index cannot tell from "unmapped".
    sentinel: Option<OrigAddr>,
}

/// Dense-index slot value for "unmapped".
const NO_RAND: u32 = u32::MAX;

impl LayoutMap {
    /// An empty map over the original addresses `[base, base + len)`.
    pub fn new(base: u32, len: usize) -> LayoutMap {
        LayoutMap { orig_of: HashMap::new(), base, fwd: vec![NO_RAND; len], sentinel: None }
    }

    /// Builds a map from `(original, randomized)` pairs, over the range
    /// from the lowest to the highest original address among them.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if either side repeats — the map must be
    /// a bijection.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (OrigAddr, RandAddr)>,
    ) -> Result<LayoutMap, LayoutError> {
        let pairs: Vec<_> = pairs.into_iter().collect();
        let lo = pairs.iter().map(|(o, _)| o.raw()).min().unwrap_or(0);
        let hi = pairs.iter().map(|(o, _)| o.raw()).max().unwrap_or(0);
        let len = if pairs.is_empty() { 0 } else { (hi - lo) as usize + 1 };
        let mut m = LayoutMap::new(lo, len);
        for (o, r) in pairs {
            m.insert(o, r)?;
        }
        Ok(m)
    }

    /// The original address range `(base, len)` the map covers.
    pub fn range(&self) -> (u32, usize) {
        (self.base, self.fwd.len())
    }

    /// Adds one pair.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] on an original address outside the
    /// map's range, or on a duplicate original or randomized address.
    pub fn insert(&mut self, orig: OrigAddr, rand: RandAddr) -> Result<(), LayoutError> {
        let off = orig.0.wrapping_sub(self.base) as usize;
        if off >= self.fwd.len() {
            return Err(LayoutError::OutOfRange { orig });
        }
        if self.to_rand(orig).is_some() {
            return Err(LayoutError::DuplicateOrig { orig });
        }
        if self.orig_of.contains_key(&rand) {
            return Err(LayoutError::DuplicateRand { rand });
        }
        self.orig_of.insert(rand, orig);
        if rand.0 == NO_RAND {
            self.sentinel = Some(orig);
        } else {
            self.fwd[off] = rand.0;
        }
        Ok(())
    }

    /// Randomized address of an original instruction, if mapped.
    #[inline]
    pub fn to_rand(&self, orig: OrigAddr) -> Option<RandAddr> {
        let off = orig.0.wrapping_sub(self.base) as usize;
        match self.fwd.get(off) {
            Some(&r) if r != NO_RAND => Some(RandAddr(r)),
            _ if self.sentinel == Some(orig) => Some(RandAddr(NO_RAND)),
            _ => None,
        }
    }

    /// Original address of a randomized instruction, if mapped.
    pub fn to_orig(&self, rand: RandAddr) -> Option<OrigAddr> {
        self.orig_of.get(&rand).copied()
    }

    /// Number of mapped instructions.
    pub fn len(&self) -> usize {
        self.orig_of.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.orig_of.is_empty()
    }

    /// Iterates over `(original, randomized)` pairs in original-address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (OrigAddr, RandAddr)> + '_ {
        self.fwd.iter().enumerate().filter_map(|(off, &r)| {
            let o = OrigAddr(self.base.wrapping_add(off as u32));
            (r != NO_RAND || self.sentinel == Some(o)).then_some((o, RandAddr(r)))
        })
    }

    /// Serialises the map (checkpoint support) as `(original,
    /// randomized)` pairs in original-address order.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (o, r) in self.iter() {
            w.u32(o.raw());
            w.u32(r.raw());
        }
    }

    /// Rebuilds a map over the original range `(base, len)` from
    /// [`LayoutMap::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input, a pair count the input cannot
    /// hold, or a pair a valid save never contains: an original address
    /// outside the range, or a repeated address
    /// ([`WireError::BadAddress`] names it).
    pub fn restore(r: &mut Reader<'_>, base: u32, len: usize) -> Result<LayoutMap, WireError> {
        let n = r.count(8)?;
        let mut m = LayoutMap::new(base, len);
        for _ in 0..n {
            let o = r.u32()?;
            let rand = r.u32()?;
            m.insert(OrigAddr(o), RandAddr(rand))?;
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijection_enforced() {
        let mut m = LayoutMap::new(0, 16);
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
    fn the_range_is_fixed_and_inserts_outside_it_are_refused() {
        let mut m = LayoutMap::new(0x1000, 0x2001);
        m.insert(OrigAddr(0x2000), RandAddr(7)).unwrap();
        m.insert(OrigAddr(0x1000), RandAddr(8)).unwrap();
        m.insert(OrigAddr(0x3000), RandAddr(9)).unwrap();
        for orig in [0x0fff, 0x3001, 0x400_0000] {
            assert_eq!(
                m.insert(OrigAddr(orig), RandAddr(10)),
                Err(LayoutError::OutOfRange { orig: OrigAddr(orig) })
            );
        }
        assert_eq!(m.range(), (0x1000, 0x2001));
        assert_eq!(m.to_rand(OrigAddr(0x1000)), Some(RandAddr(8)));
        assert_eq!(m.to_rand(OrigAddr(0x2000)), Some(RandAddr(7)));
        assert_eq!(m.to_rand(OrigAddr(0x3000)), Some(RandAddr(9)));
        assert_eq!(m.to_rand(OrigAddr(0x2001)), None);
        assert_eq!(m.to_rand(OrigAddr(0x0fff)), None);
        assert_eq!(m.to_rand(OrigAddr(0x3001)), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn sentinel_valued_randomized_address_still_resolves() {
        let mut m = LayoutMap::new(10, 2);
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
        let (base, len) = m.range();
        let back = LayoutMap::restore(&mut r, base, len).unwrap();
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
    fn restore_rejects_duplicate_and_out_of_range_pairs() {
        use vcfr_isa::wire::{Reader, Writer};
        let forged = |pairs: &[(u32, u32)]| {
            let mut w = Writer::with_magic(*b"VCFRTEST");
            w.u64(pairs.len() as u64);
            for &(o, r) in pairs {
                w.u32(o);
                w.u32(r);
            }
            let buf = w.into_bytes();
            let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
            LayoutMap::restore(&mut r, 0, 16).unwrap_err()
        };
        // A duplicate original address, a duplicate randomized one, and
        // an original address past the range.
        assert_eq!(forged(&[(5, 50), (5, 51)]), WireError::BadAddress { addr: 5 });
        assert_eq!(forged(&[(5, 50), (6, 50)]), WireError::BadAddress { addr: 50 });
        assert_eq!(forged(&[(0x400_0000, 50)]), WireError::BadAddress { addr: 0x400_0000 });
        // A count the input cannot hold is refused before any pair.
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(1 << 40);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(matches!(
            LayoutMap::restore(&mut r, 0, 16),
            Err(WireError::LengthOutOfRange { len }) if len == 1 << 40
        ));
    }

    #[test]
    fn iteration_walks_pairs_in_original_order() {
        let pairs = [(OrigAddr(2), RandAddr(8)), (OrigAddr(1), RandAddr(9))];
        let m = LayoutMap::from_pairs(pairs).unwrap();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(OrigAddr(1), RandAddr(9)), (OrigAddr(2), RandAddr(8))]);
        assert!(!m.is_empty());
    }
}
