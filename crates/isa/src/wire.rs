//! A minimal, versioned, little-endian wire format used to persist
//! images and randomization artefacts to disk (no external
//! serialization dependency).

use std::fmt;

/// A wire-format decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The magic/version header did not match.
    BadMagic {
        /// What was expected.
        expected: [u8; 8],
        /// What was found.
        found: [u8; 8],
    },
    /// A length field exceeded sanity bounds.
    LengthOutOfRange {
        /// The offending length.
        len: u64,
    },
    /// An address field fell outside the range it must lie in, or
    /// repeated where each address may appear once.
    BadAddress {
        /// The offending address.
        addr: u32,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An enum discriminant was unknown.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// An index field (a page or a cache line) was out of range or not
    /// strictly above the one before it.
    BadIndex {
        /// The offending index.
        index: u64,
    },
    /// An image held no text section, so there is nothing to run or
    /// rewrite.
    NoTextSection,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            WireError::LengthOutOfRange { len } => write!(f, "length field {len} out of range"),
            WireError::BadAddress { addr } => {
                write!(f, "address field {addr:#010x} out of range or repeated")
            }
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
            WireError::BadIndex { index } => {
                write!(f, "index field {index} out of range or out of order")
            }
            WireError::NoTextSection => write!(f, "image has no text section"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted collection/byte-array length (guards corrupt files).
const MAX_LEN: u64 = 1 << 32;

/// An append-only encoder.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an encoder beginning with the 8-byte `magic` header.
    pub fn with_magic(magic: [u8; 8]) -> Writer {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&magic);
        w
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte array.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A block of `u64` event counters described by one list:
/// [`Counters::visit`] yields each counter's manifest name and field in
/// checkpoint order, and saving, restoring, summing and naming the block
/// all walk that list, so a new counter is one line in it.
///
/// Every method takes the block mutably, because `visit` hands out its
/// fields; the blocks are `Copy`, so a reader walks a copy. The methods
/// take no `Self` by value, so a container can walk blocks of different
/// types as `&mut dyn Counters`.
pub trait Counters {
    /// Calls `f` with each counter's name and field, in checkpoint order.
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64));

    /// Writes every counter, in list order.
    fn save(&mut self, w: &mut Writer) {
        self.visit(&mut |_, v| w.u64(*v));
    }

    /// Reads every counter, in list order, as [`Counters::save`] wrote
    /// them.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let mut res = Ok(());
        self.visit(&mut |_, v| match r.u64() {
            Ok(x) => *v = x,
            Err(e) => res = Err(e),
        });
        res
    }

    /// Adds `other`, a block with the same list, counter by counter.
    fn add(&mut self, other: &mut dyn Counters) {
        let mut theirs = other.named().into_iter();
        self.visit(&mut |_, v| *v += theirs.next().map_or(0, |(_, x)| x));
    }

    /// Each counter's name and value, in list order.
    fn named(&mut self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        self.visit(&mut |name, v| out.push((name, *v)));
        out
    }
}

/// A lone counter is a block of one, named by its container alone.
impl Counters for u64 {
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
        f("", self);
    }
}

/// A cursor-based decoder.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a decoder, checking the 8-byte `magic` header.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] when the header mismatches,
    /// [`WireError::Truncated`] when the input is shorter than a header.
    pub fn with_magic(buf: &'a [u8], magic: [u8; 8]) -> Result<Reader<'a>, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let mut found = [0u8; 8];
        found.copy_from_slice(&buf[..8]);
        if found != magic {
            return Err(WireError::BadMagic { expected: magic, found });
        }
        Ok(Reader { buf, pos: 8 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` item count for a collection whose items take
    /// `item_bytes` bytes each on the wire, so a reader can size its
    /// collection by the count without trusting it.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOutOfRange`] when that many items cannot fit
    /// in the bytes left; [`WireError::Truncated`] at end of input.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let left = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(item_bytes as u64) > left {
            return Err(WireError::LengthOutOfRange { len: n });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::LengthOutOfRange`].
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::LengthOutOfRange { len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::BadUtf8`] plus the byte-array errors.
    pub fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"VCFRTEST";

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = Writer::with_magic(MAGIC);
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.bytes(&[1, 2, 3]);
        w.string("héllo");
        let buf = w.into_bytes();

        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.string().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn bad_magic_rejected() {
        let w = Writer::with_magic(MAGIC);
        let buf = w.into_bytes();
        let err = Reader::with_magic(&buf, *b"OTHERMAG").unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = Writer::with_magic(MAGIC);
        w.u64(42);
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let r = Reader::with_magic(&buf[..cut], MAGIC);
            match r {
                Ok(mut r) => assert!(r.u64().is_err()),
                Err(e) => assert_eq!(e, WireError::Truncated),
            }
        }
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut w = Writer::with_magic(MAGIC);
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert!(matches!(r.bytes(), Err(WireError::LengthOutOfRange { .. })));
    }

    #[test]
    fn counts_must_fit_in_the_bytes_left() {
        let mut w = Writer::with_magic(MAGIC);
        w.u64(2);
        w.u32(1);
        w.u32(2);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.count(4).unwrap(), 2);
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.count(5).unwrap_err(), WireError::LengthOutOfRange { len: 2 });
        let mut w = Writer::with_magic(MAGIC);
        w.u64(u64::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert!(matches!(r.count(8), Err(WireError::LengthOutOfRange { .. })));
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Pair {
        a: u64,
        b: u64,
    }

    impl Counters for Pair {
        fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
            f("a", &mut self.a);
            f("b", &mut self.b);
        }
    }

    #[test]
    fn counters_walk_their_list() {
        let mut p = Pair { a: 3, b: 5 };
        assert_eq!(p.named(), vec![("a", 3), ("b", 5)]);
        let mut w = Writer::with_magic(MAGIC);
        p.save(&mut w);
        let buf = w.into_bytes();
        let mut back = Pair::default();
        back.restore(&mut Reader::with_magic(&buf, MAGIC).unwrap()).unwrap();
        assert_eq!(back, p);
        back.add(&mut p);
        assert_eq!(back, Pair { a: 6, b: 10 });
        let mut r = Reader::with_magic(&buf[..12], MAGIC).unwrap();
        assert_eq!(Pair::default().restore(&mut r), Err(WireError::Truncated));
        assert_eq!(7u64.named(), vec![("", 7)]);
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::with_magic(MAGIC);
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, MAGIC).unwrap();
        assert_eq!(r.string().unwrap_err(), WireError::BadUtf8);
    }
}
