//! A small open-addressed hash map from [`Addr`] keys to `u32` values.
//!
//! The mediation unit keeps the original return address behind each
//! marked stack slot, and the TLB indexes its resident pages. Both maps
//! are consulted and mutated on the per-instruction path, where a
//! general `HashMap` pays a SipHash per operation; this flat table
//! instead uses a Fibonacci multiplicative hash with linear probing and
//! backward-shift deletion, so the common case is one multiply and one
//! probe.

use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::Addr;

/// Initial table capacity (power of two).
const MIN_CAP: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    key: Addr,
    val: u32,
    used: bool,
}

const EMPTY: Slot = Slot { key: 0, val: 0, used: false };

/// An open-addressed `Addr → u32` map (linear probing, backward-shift
/// deletion).
///
/// # Example
///
/// ```
/// use vcfr_sim::FlatMap;
/// let mut m = FlatMap::new();
/// m.insert(0xeff8, 7);
/// assert_eq!(m.get(0xeff8), Some(7));
/// m.remove(0xeff8);
/// assert_eq!(m.get(0xeff8), None);
/// ```
#[derive(Clone, Debug)]
pub struct FlatMap {
    slots: Vec<Slot>,
    len: usize,
    /// `slots.len() - 1`; the table size is always a power of two.
    mask: usize,
}

impl Default for FlatMap {
    fn default() -> FlatMap {
        FlatMap::new()
    }
}

impl FlatMap {
    /// Creates an empty map.
    pub fn new() -> FlatMap {
        FlatMap { slots: vec![EMPTY; MIN_CAP], len: 0, mask: MIN_CAP - 1 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the entries in slot order. The order is a function
    /// of the insertion history only (no per-process hash seed), so it is
    /// stable across runs and hosts.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u32)> + '_ {
        self.slots.iter().filter(|s| s.used).map(|s| (s.key, s.val))
    }

    #[inline]
    fn home(&self, key: Addr) -> usize {
        // Fibonacci hashing: spreads consecutive (8-byte-strided) stack
        // addresses across the table.
        (key.wrapping_mul(0x9e37_79b9) as usize >> 16) & self.mask
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: Addr) -> Option<u32> {
        let mut at = self.home(key);
        loop {
            let s = self.slots[at];
            if !s.used {
                return None;
            }
            if s.key == key {
                return Some(s.val);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Inserts or replaces `key → val`.
    pub fn insert(&mut self, key: Addr, val: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut at = self.home(key);
        loop {
            let s = &mut self.slots[at];
            if !s.used {
                *s = Slot { key, val, used: true };
                self.len += 1;
                return;
            }
            if s.key == key {
                s.val = val;
                return;
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value when present.
    pub fn remove(&mut self, key: Addr) -> Option<u32> {
        let mut at = self.home(key);
        loop {
            let s = self.slots[at];
            if !s.used {
                return None;
            }
            if s.key == key {
                break;
            }
            at = (at + 1) & self.mask;
        }
        let val = self.slots[at].val;
        self.len -= 1;
        // Backward-shift deletion: close the probe chain so later
        // lookups never stop early at a hole.
        let mut hole = at;
        let mut next = (at + 1) & self.mask;
        loop {
            let s = self.slots[next];
            if !s.used {
                break;
            }
            let home = self.home(s.key);
            // `s` may move into the hole only if its home position does
            // not lie strictly between the hole and its current slot
            // (cyclically).
            let between = if hole <= next {
                hole < home && home <= next
            } else {
                hole < home || home <= next
            };
            if !between {
                self.slots[hole] = s;
                hole = next;
            }
            next = (next + 1) & self.mask;
        }
        self.slots[hole] = EMPTY;
        Some(val)
    }

    /// Serialises the raw slot array (checkpoint support), so a restored
    /// map is slot for slot the saved one. No simulation path iterates a
    /// map, so the layout only fixes the checkpoint's bytes; a map's
    /// insertion history decides it, the same on every host.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.slots.len() as u64);
        w.u64(self.len as u64);
        for s in &self.slots {
            w.u8(u8::from(s.used));
            w.u32(s.key);
            w.u32(s.val);
        }
    }

    /// Rebuilds a map from [`FlatMap::save`] output, bit-identical slot
    /// layout included.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input, a degenerate capacity or one
    /// the input cannot hold, or an entry count that disagrees with the
    /// used slots.
    pub fn restore(r: &mut Reader<'_>) -> Result<FlatMap, WireError> {
        // A slot is a flag byte and two `u32`s.
        let cap = r.count(9)?;
        if !cap.is_power_of_two() || cap < MIN_CAP {
            return Err(WireError::LengthOutOfRange { len: cap as u64 });
        }
        let len = r.u64()? as usize;
        let mut slots = Vec::with_capacity(cap);
        let mut used = 0usize;
        for _ in 0..cap {
            let flag = r.u8()?;
            if flag > 1 {
                return Err(WireError::BadTag { tag: flag });
            }
            let key = r.u32()?;
            let val = r.u32()?;
            used += flag as usize;
            slots.push(Slot { key, val, used: flag == 1 });
        }
        if used != len {
            return Err(WireError::LengthOutOfRange { len: len as u64 });
        }
        Ok(FlatMap { slots, len, mask: cap - 1 })
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; (self.mask + 1) * 2]);
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for s in old {
            if s.used {
                self.insert(s.key, s.val);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut m = FlatMap::new();
        assert!(m.is_empty());
        m.insert(8, 1);
        m.insert(16, 2);
        m.insert(8, 3); // replace
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(8), Some(3));
        assert_eq!(m.get(16), Some(2));
        assert_eq!(m.get(24), None);
        assert_eq!(m.remove(8), Some(3));
        assert_eq!(m.remove(8), None);
        assert_eq!(m.get(16), Some(2));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FlatMap::new();
        for i in 0..1000u32 {
            m.insert(i * 8, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(i * 8), Some(i));
        }
    }

    #[test]
    fn matches_std_hashmap_under_churn() {
        // Deterministic mixed workload exercising probe chains and
        // backward-shift deletion.
        let mut m = FlatMap::new();
        let mut reference = HashMap::new();
        let mut x = 0x1234_5678u32;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (x >> 8) % 512 * 8;
            match x % 3 {
                0 => {
                    m.insert(key, x);
                    reference.insert(key, x);
                }
                1 => {
                    assert_eq!(m.remove(key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(m.get(key), reference.get(&key).copied());
                }
            }
            assert_eq!(m.len(), reference.len());
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn iter_yields_every_live_entry_once() {
        let mut m = FlatMap::new();
        for i in 0..100u32 {
            m.insert(i * 8, i);
        }
        for i in 0..50u32 {
            m.remove(i * 16); // every other entry
        }
        let mut got: Vec<(u32, u32)> = m.iter().collect();
        got.sort_unstable();
        let want: Vec<(u32, u32)> = (0..100u32).filter(|i| i % 2 == 1).map(|i| (i * 8, i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn save_restore_preserves_slot_layout() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut m = FlatMap::new();
        for i in 0..200u32 {
            m.insert(i * 8, i);
        }
        for i in 0..100u32 {
            m.remove(i * 16);
        }
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let back = FlatMap::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), m.len());
        // Physical layout — and therefore iteration order — is identical.
        let a: Vec<(u32, u32)> = m.iter().collect();
        let b: Vec<(u32, u32)> = back.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_mismatched_entry_count() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut m = FlatMap::new();
        m.insert(8, 1);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        let mut buf = w.into_bytes();
        buf[16] ^= 0xff; // corrupt the stored entry count
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(FlatMap::restore(&mut r).is_err());
    }

    #[test]
    fn restore_refuses_a_capacity_the_input_cannot_hold() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(1 << 32); // claimed slots
        w.u64(0); // claimed entries
        w.u8(0); // the first slot's flag, and nothing more
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 25);
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert_eq!(
            FlatMap::restore(&mut r).unwrap_err(),
            WireError::LengthOutOfRange { len: 1 << 32 }
        );
    }

    #[test]
    fn zero_key_works() {
        let mut m = FlatMap::new();
        assert_eq!(m.get(0), None);
        m.insert(0, 42);
        assert_eq!(m.get(0), Some(42));
        assert_eq!(m.remove(0), Some(42));
        assert_eq!(m.get(0), None);
    }
}
