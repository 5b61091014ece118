//! Sparse, page-granular flat memory.

use crate::wire::{Reader, WireError, Writer};
use crate::Addr;
use std::fmt;

const PAGE_SHIFT: u32 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: Addr = (PAGE_SIZE as Addr) - 1;
/// Pages in the 32-bit address space.
const NUM_PAGES: usize = 1 << (32 - PAGE_SHIFT);

/// A sparse byte-addressable memory covering the full 32-bit address space.
///
/// Pages (4 KiB) are allocated lazily on first touch; reads of untouched
/// memory return zero, as a freshly mapped anonymous page would.
///
/// The page table is a directly-indexed vector (one slot per possible
/// page), so every access resolves in O(1) with no hashing; word and bulk
/// accesses that stay within one page go through a single page lookup and
/// a slice copy. A slot holds a plain number, not a pointer with a
/// destructor, so dropping a memory frees the 4 MiB table without reading
/// it: the table's untouched parts are never faulted in.
///
/// # Example
///
/// ```
/// use vcfr_isa::Mem;
/// let mut m = Mem::new();
/// m.write_u64(0x8000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x8000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9000), 0); // untouched page reads as zero
/// ```
#[derive(Clone)]
pub struct Mem {
    /// Per page index: one plus the page's position in `pages`, or 0 for
    /// a page not yet touched.
    slots: Vec<u32>,
    /// The materialised pages, in first-touch order.
    pages: Vec<[u8; PAGE_SIZE]>,
    /// The index of each page in `pages`, so that serialising costs
    /// O(live pages) rather than a page-table walk.
    live: Vec<u32>,
}

impl Default for Mem {
    fn default() -> Mem {
        Mem { slots: vec![0; NUM_PAGES], pages: Vec::new(), live: Vec::new() }
    }
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mem").field("pages", &self.live.len()).finish()
    }
}

impl Mem {
    /// Creates an empty memory.
    pub fn new() -> Mem {
        Mem::default()
    }

    /// Number of 4 KiB pages currently materialised.
    pub fn page_count(&self) -> usize {
        self.live.len()
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&[u8; PAGE_SIZE]> {
        match self.slots[(addr >> PAGE_SHIFT) as usize] {
            0 => None,
            slot => Some(&self.pages[slot as usize - 1]),
        }
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        let idx = addr >> PAGE_SHIFT;
        let slot = &mut self.slots[idx as usize];
        if *slot == 0 {
            self.pages.push([0u8; PAGE_SIZE]);
            self.live.push(idx);
            *slot = self.pages.len() as u32;
        }
        &mut self.pages[*slot as usize - 1]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            match self.page(addr) {
                Some(p) => {
                    u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            self.write_bytes(addr, &val.to_le_bytes());
        }
    }

    /// Fills `out` with the bytes starting at `addr` (wrapping at the top
    /// of the address space).
    pub fn read_bytes(&self, addr: Addr, out: &mut [u8]) {
        let mut addr = addr;
        let mut out = out;
        while !out.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = out.len().min(PAGE_SIZE - off);
            let (chunk, rest) = out.split_at_mut(n);
            match self.page(addr) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            out = rest;
            addr = addr.wrapping_add(n as Addr);
        }
    }

    /// Serialises the materialised pages that `unchanged` does not
    /// accept (checkpoint support): the page count, then each page's
    /// index and bytes, in index order so the byte form is
    /// deterministic. `unchanged` gets each page's base address and
    /// bytes.
    pub(crate) fn save_pages(
        &self,
        w: &mut Writer,
        unchanged: impl Fn(Addr, &[u8; PAGE_SIZE]) -> bool,
    ) {
        let mut changed: Vec<(u32, &[u8; PAGE_SIZE])> = self
            .live
            .iter()
            .copied()
            .zip(&self.pages)
            .filter(|&(idx, page)| !unchanged(idx << PAGE_SHIFT, page))
            .collect();
        changed.sort_unstable_by_key(|&(idx, _)| idx);
        w.u64(changed.len() as u64);
        for (idx, page) in changed {
            w.u32(idx);
            w.bytes(page);
        }
    }

    /// Overlays the pages [`Mem::save_pages`] wrote onto this memory.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input, more pages than the address
    /// space holds, a page index out of range or not above the one
    /// before it, or a page of the wrong size.
    pub(crate) fn restore_pages(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let count = r.u64()?;
        if count > NUM_PAGES as u64 {
            return Err(WireError::LengthOutOfRange { len: count });
        }
        // The lowest index the next page may take.
        let mut next = 0u64;
        for _ in 0..count {
            let idx = u64::from(r.u32()?);
            if idx < next || idx >= NUM_PAGES as u64 {
                return Err(WireError::BadIndex { index: idx });
            }
            let bytes = r.bytes()?;
            if bytes.len() != PAGE_SIZE {
                return Err(WireError::LengthOutOfRange { len: bytes.len() as u64 });
            }
            self.page_mut((idx as Addr) << PAGE_SHIFT).copy_from_slice(bytes);
            next = idx + 1;
        }
        Ok(())
    }

    /// Writes `bytes` starting at `addr` (wrapping at the top of the
    /// address space).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            let (chunk, rest) = bytes.split_at(n);
            self.page_mut(addr)[off..off + n].copy_from_slice(chunk);
            bytes = rest;
            addr = addr.wrapping_add(n as Addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Mem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xffff_fff0), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn byte_and_word_access_agree() {
        let mut m = Mem::new();
        m.write_u64(100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(100), 0x08); // little endian
        assert_eq!(m.read_u8(107), 0x01);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Mem::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles first/second page
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Mem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x5000 - 128, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(0x5000 - 128, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn wrapping_at_address_space_top() {
        let mut m = Mem::new();
        m.write_bytes(Addr::MAX, &[1, 2]);
        assert_eq!(m.read_u8(Addr::MAX), 1);
        assert_eq!(m.read_u8(0), 2);
    }

    #[test]
    fn word_straddling_the_address_space_top_wraps() {
        let mut m = Mem::new();
        m.write_u64(Addr::MAX - 3, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(Addr::MAX - 3), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0), 0x44); // bytes 4..8 wrapped to page zero
    }

    /// `m`'s pages that `unchanged` does not accept, as `save_pages`
    /// writes them.
    fn saved(m: &Mem, unchanged: impl Fn(Addr, &[u8; PAGE_SIZE]) -> bool) -> Vec<u8> {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save_pages(&mut w, unchanged);
        w.into_bytes()
    }

    /// Overlays `buf` (a `saved` stream) onto `m`.
    fn overlay(m: &mut Mem, buf: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::with_magic(buf, *b"VCFRTEST").unwrap();
        m.restore_pages(&mut r)?;
        assert!(r.is_exhausted());
        Ok(())
    }

    #[test]
    fn save_restore_roundtrip_preserves_pages() {
        let mut m = Mem::new();
        m.write_u8(0x123_4567, 0x5a); // touched before a lower page
        m.write_u64(0x8000, 0xdead_beef);
        m.write_bytes(Addr::MAX - 1, &[1, 2, 3]); // wraps to page zero
        let mut back = Mem::new();
        overlay(&mut back, &saved(&m, |_, _| false)).unwrap();
        assert_eq!(back.page_count(), m.page_count());
        assert_eq!(back.read_u64(0x8000), 0xdead_beef);
        assert_eq!(back.read_u8(Addr::MAX - 1), 1);
        assert_eq!(back.read_u8(0), 3);
        assert_eq!(back.read_u8(0x123_4567), 0x5a);
        assert_eq!(back.read_u8(0x9999), 0);
        // Index order, not touch order: the stream is deterministic.
        assert_eq!(saved(&back, |_, _| false), saved(&m, |_, _| false));
    }

    #[test]
    fn unchanged_pages_are_skipped_and_overlaid_pages_win() {
        let mut base = Mem::new();
        base.write_u8(0x1000, 1);
        base.write_u8(0x2000, 2);
        let mut m = base.clone();
        m.write_u8(0x2000, 9); // differs from `base`
        m.write_u8(0x3000, 3); // absent from `base`
        let same = |at: Addr, page: &[u8; PAGE_SIZE]| base.page(at).is_some_and(|p| p == page);
        let buf = saved(&m, same);
        let mut back = base.clone();
        overlay(&mut back, &buf).unwrap();
        assert_eq!((back.read_u8(0x1000), back.read_u8(0x2000)), (1, 9));
        assert_eq!(back.read_u8(0x3000), 3);
        // Two pages travel, each an index plus a length-prefixed page.
        assert_eq!(buf.len(), 8 + 8 + 2 * (4 + 8 + PAGE_SIZE));
    }

    /// A stream of `pages` (index, page length) records, each page
    /// zero-filled, behind a count of `count`.
    fn forged(count: u64, pages: &[(u32, usize)]) -> Vec<u8> {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(count);
        for &(idx, len) in pages {
            w.u32(idx);
            w.bytes(&vec![0; len]);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_malformed_pages() {
        let cases = [
            (
                forged(NUM_PAGES as u64 + 1, &[]),
                WireError::LengthOutOfRange { len: NUM_PAGES as u64 + 1 },
            ),
            (forged(1, &[(1 << 20, PAGE_SIZE)]), WireError::BadIndex { index: 1 << 20 }),
            (forged(2, &[(5, PAGE_SIZE), (5, PAGE_SIZE)]), WireError::BadIndex { index: 5 }),
            (forged(2, &[(5, PAGE_SIZE), (4, PAGE_SIZE)]), WireError::BadIndex { index: 4 }),
            (forged(1, &[(5, 100)]), WireError::LengthOutOfRange { len: 100 }),
        ];
        for (buf, want) in cases {
            assert_eq!(overlay(&mut Mem::new(), &buf), Err(want));
        }
        // A page cut short, and a count promising more pages than follow.
        let whole = forged(1, &[(5, PAGE_SIZE)]);
        let mut r = Reader::with_magic(&whole[..whole.len() - 3], *b"VCFRTEST").unwrap();
        assert_eq!(Mem::new().restore_pages(&mut r), Err(WireError::Truncated));
        let short = forged(2, &[(5, PAGE_SIZE)]);
        let mut r = Reader::with_magic(&short, *b"VCFRTEST").unwrap();
        assert_eq!(Mem::new().restore_pages(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn bulk_read_spans_mapped_and_unmapped_pages() {
        let mut m = Mem::new();
        m.write_u8(0x1fff, 0xaa); // page 1 mapped, page 2 untouched
        let mut back = [0xffu8; 4];
        m.read_bytes(0x1ffe, &mut back);
        assert_eq!(back, [0x00, 0xaa, 0x00, 0x00]);
    }
}
