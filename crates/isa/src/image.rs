//! The loadable binary image format.

use crate::mem::PAGE_SIZE;
use crate::{Addr, Mem};

/// Classifies a [`Section`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable instructions.
    Text,
    /// Read-write data (also holds jump tables and function-pointer
    /// tables, which are what the rewriter's relocation fix-ups patch).
    Data,
}

/// A contiguous range of initialised bytes at a fixed virtual address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// What the section holds.
    pub kind: SectionKind,
    /// Base virtual address.
    pub base: Addr,
    /// Section contents.
    pub bytes: Vec<u8>,
}

impl Section {
    /// The first address past the section.
    pub fn end(&self) -> Addr {
        self.base.wrapping_add(self.bytes.len() as Addr)
    }

    /// Whether `addr` falls inside the section.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Classifies a [`Symbol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point.
    Func,
    /// A data object.
    Object,
}

/// A named address, as a linker would record it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address of the symbol.
    pub addr: Addr,
    /// Size in bytes (0 when unknown).
    pub size: u32,
    /// Function or object.
    pub kind: SymbolKind,
}

/// A relocation: a 64-bit slot in the data section holding an absolute
/// code address.
///
/// These are exactly the entries Hiser et al.'s ILR relies on to patch
/// jump tables and function-pointer tables after randomization, and what
/// the conservative "pointer-sized constant scan" recovers when relocation
/// information is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reloc {
    /// Address of the 8-byte slot holding the pointer.
    pub at: Addr,
    /// The code address stored in the slot.
    pub target: Addr,
}

/// A complete loadable program: sections, entry point, symbols and
/// relocations.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Machine, Reg};
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 1);
/// a.halt();
/// let image = a.finish().unwrap();
/// assert!(image.text().contains(image.entry));
/// let mut m = Machine::new(&image);
/// m.run(10).unwrap();
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    /// All sections; exactly one [`SectionKind::Text`] section.
    pub sections: Vec<Section>,
    /// Address of the first instruction executed.
    pub entry: Addr,
    /// Initial stack pointer (stack grows down from here).
    pub stack_top: Addr,
    /// Named addresses.
    pub symbols: Vec<Symbol>,
    /// Code pointers stored in data (jump tables, vtables).
    pub relocs: Vec<Reloc>,
}

impl Image {
    /// Returns the text section.
    ///
    /// # Panics
    ///
    /// Panics if the image has no text section, which [`crate::Asm`] can
    /// never produce and [`Image::from_bytes`] refuses.
    pub fn text(&self) -> &Section {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::Text)
            .expect("image has a text section")
    }

    /// Returns the data section, if the program has one.
    pub fn data(&self) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == SectionKind::Data)
    }

    /// Whether `addr` falls inside the text section.
    pub fn in_text(&self, addr: Addr) -> bool {
        self.text().contains(addr)
    }

    /// Looks up a function symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Copies every section into `mem` at its base address.
    pub fn load_into(&self, mem: &mut Mem) {
        for s in &self.sections {
            mem.write_bytes(s.base, &s.bytes);
        }
    }

    /// Whether [`Image::load_into`] on an empty memory leaves exactly
    /// `page` in the 4 KiB page at `base`: each section's bytes where it
    /// covers the page, a later section over an earlier one, and zeros
    /// elsewhere. A section running past the top of the address space
    /// wraps to page zero, as [`Mem::write_bytes`] does.
    pub(crate) fn leaves_page(&self, base: Addr, page: &[u8; PAGE_SIZE]) -> bool {
        let mut loaded = [0u8; PAGE_SIZE];
        for s in &self.sections {
            let (lo, hi) = (u64::from(s.base), u64::from(s.base) + s.bytes.len() as u64);
            // The page, then each alias of it a wrapping section reaches.
            let mut at = u64::from(base);
            while at < hi {
                let (from, to) = (lo.max(at), hi.min(at + PAGE_SIZE as u64));
                if from < to {
                    loaded[(from - at) as usize..(to - at) as usize]
                        .copy_from_slice(&s.bytes[(from - lo) as usize..(to - lo) as usize]);
                }
                at += 1 << 32;
            }
        }
        loaded == *page
    }

    /// Total size of all sections in bytes.
    pub fn loaded_size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_image() -> Image {
        Image {
            sections: vec![
                Section { kind: SectionKind::Text, base: 0x1000, bytes: vec![0x00, 0x01] },
                Section { kind: SectionKind::Data, base: 0x8000, bytes: vec![7; 16] },
            ],
            entry: 0x1000,
            stack_top: 0xf000,
            symbols: vec![Symbol {
                name: "main".into(),
                addr: 0x1000,
                size: 2,
                kind: SymbolKind::Func,
            }],
            relocs: vec![],
        }
    }

    #[test]
    fn section_bounds() {
        let img = tiny_image();
        let t = img.text();
        assert!(t.contains(0x1000));
        assert!(t.contains(0x1001));
        assert!(!t.contains(0x1002));
        assert!(!t.contains(0x0fff));
        assert_eq!(t.end(), 0x1002);
    }

    #[test]
    fn symbol_lookup() {
        let img = tiny_image();
        assert_eq!(img.symbol("main").unwrap().addr, 0x1000);
        assert!(img.symbol("missing").is_none());
    }

    #[test]
    fn load_into_memory() {
        let img = tiny_image();
        let mut mem = Mem::new();
        img.load_into(&mut mem);
        assert_eq!(mem.read_u8(0x1000), 0x00);
        assert_eq!(mem.read_u8(0x1001), 0x01);
        assert_eq!(mem.read_u8(0x8003), 7);
        assert_eq!(img.loaded_size(), 18);
    }

    #[test]
    fn leaves_page_agrees_with_load_into() {
        let mut img = tiny_image();
        img.sections.extend([
            // Overlaps the data section: the later bytes win.
            Section { kind: SectionKind::Data, base: 0x8008, bytes: vec![9; 4] },
            // Runs past the top of the address space into page zero.
            Section { kind: SectionKind::Data, base: 0xffff_fff0, bytes: vec![3; 32] },
        ]);
        let mut mem = Mem::new();
        img.load_into(&mut mem);
        for base in [0, 0x1000, 0x2000, 0x8000, 0xffff_f000] {
            let mut page = [0u8; PAGE_SIZE];
            mem.read_bytes(base, &mut page);
            assert!(img.leaves_page(base, &page), "page {base:#x}");
            page[17] ^= 1;
            assert!(!img.leaves_page(base, &page), "page {base:#x} with a flipped byte");
        }
    }
}
