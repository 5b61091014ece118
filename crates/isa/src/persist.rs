//! On-disk persistence for [`Image`] (the randomizer's input/output
//! container format).

use crate::image::{Image, Reloc, Section, SectionKind, Symbol, SymbolKind};
use crate::wire::{Reader, WireError, Writer};

/// Magic/version header of serialized images.
pub const IMAGE_MAGIC: [u8; 8] = *b"VCFRIMG1";

impl Image {
    /// Serializes the image to the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_magic(IMAGE_MAGIC);
        w.u32(self.entry);
        w.u32(self.stack_top);
        w.u64(self.sections.len() as u64);
        for s in &self.sections {
            w.u8(match s.kind {
                SectionKind::Text => 0,
                SectionKind::Data => 1,
            });
            w.u32(s.base);
            w.bytes(&s.bytes);
        }
        w.u64(self.symbols.len() as u64);
        for s in &self.symbols {
            w.string(&s.name);
            w.u32(s.addr);
            w.u32(s.size);
            w.u8(match s.kind {
                SymbolKind::Func => 0,
                SymbolKind::Object => 1,
            });
        }
        w.u64(self.relocs.len() as u64);
        for r in &self.relocs {
            w.u32(r.at);
            w.u32(r.target);
        }
        w.into_bytes()
    }

    /// Deserializes an image written by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, corruption or a version
    /// mismatch, and [`WireError::NoTextSection`] when no section holds
    /// text: every consumer of an image reads its text section.
    ///
    /// # Example
    ///
    /// ```
    /// use vcfr_isa::{Asm, Image, Reg};
    /// let mut a = Asm::new(0x1000);
    /// a.mov_ri(Reg::Rax, 5);
    /// a.halt();
    /// let img = a.finish().unwrap();
    /// let bytes = img.to_bytes();
    /// assert_eq!(Image::from_bytes(&bytes).unwrap(), img);
    /// ```
    pub fn from_bytes(buf: &[u8]) -> Result<Image, WireError> {
        let mut r = Reader::with_magic(buf, IMAGE_MAGIC)?;
        let entry = r.u32()?;
        let stack_top = r.u32()?;
        let nsec = r.u64()?;
        let mut sections = Vec::with_capacity(nsec.min(1024) as usize);
        for _ in 0..nsec {
            let kind = match r.u8()? {
                0 => SectionKind::Text,
                1 => SectionKind::Data,
                tag => return Err(WireError::BadTag { tag }),
            };
            let base = r.u32()?;
            let bytes = r.bytes()?.to_vec();
            sections.push(Section { kind, base, bytes });
        }
        let nsym = r.u64()?;
        let mut symbols = Vec::with_capacity(nsym.min(1 << 20) as usize);
        for _ in 0..nsym {
            let name = r.string()?;
            let addr = r.u32()?;
            let size = r.u32()?;
            let kind = match r.u8()? {
                0 => SymbolKind::Func,
                1 => SymbolKind::Object,
                tag => return Err(WireError::BadTag { tag }),
            };
            symbols.push(Symbol { name, addr, size, kind });
        }
        let nrel = r.u64()?;
        let mut relocs = Vec::with_capacity(nrel.min(1 << 24) as usize);
        for _ in 0..nrel {
            let at = r.u32()?;
            let target = r.u32()?;
            relocs.push(Reloc { at, target });
        }
        if !sections.iter().any(|s| s.kind == SectionKind::Text) {
            return Err(WireError::NoTextSection);
        }
        Ok(Image { sections, entry, stack_top, symbols, relocs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    fn sample() -> Image {
        let mut a = Asm::new(0x1000);
        let f = a.label();
        let _t = a.data_ptr_table(&[f]);
        a.call_named("main_body");
        a.halt();
        a.func("main_body");
        a.mov_ri(Reg::Rax, 9);
        a.ret();
        a.bind(f);
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let img = sample();
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn truncated_files_error() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 8, 16, bytes.len() - 1] {
            assert!(Image::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn foreign_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(Image::from_bytes(&bytes), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn images_without_text_are_refused() {
        let empty = Image {
            sections: vec![],
            entry: 0x1000,
            stack_top: 0xf000,
            symbols: vec![],
            relocs: vec![],
        };
        let data_only = Image {
            sections: vec![Section { kind: SectionKind::Data, base: 0x8000, bytes: vec![7; 16] }],
            ..empty.clone()
        };
        for img in [empty, data_only] {
            assert_eq!(Image::from_bytes(&img.to_bytes()), Err(WireError::NoTextSection));
        }
    }

    #[test]
    fn bad_section_tag_rejected() {
        let img = sample();
        let mut bytes = img.to_bytes();
        // First section tag sits right after magic + entry + stack + count.
        let off = 8 + 4 + 4 + 8;
        bytes[off] = 9;
        assert!(matches!(Image::from_bytes(&bytes), Err(WireError::BadTag { tag: 9 })));
    }
}
