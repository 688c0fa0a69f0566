//! The one strict codec behind every byte format the engine reads back:
//! values and tuples, WAL record payloads and the WAL file header, the
//! heap-file header page, and (through the engine) checkpoint snapshots
//! and DDL records.
//!
//! Integers are little-endian; a string is a `u32` byte length followed by
//! its UTF-8 bytes. A [`Reader`] is a cursor over a byte slice whose every
//! read is bounds-checked, and every failure is a
//! [`StorageError::Corrupt`] naming what was being read — truncation, a bad
//! tag, invalid UTF-8 or trailing bytes are never a panic and never a
//! shorter value. The `put_*` writers append the matching encodings.

use crate::error::StorageError;

/// A strict cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A [`StorageError::Corrupt`] saying that `what` is wrong.
///
/// The variant is built here, inline, and only its message out of line: a
/// caller that propagates the error with `?` then knows it is an `Err`
/// without looking, so its fast path keeps no registers for a resume.
#[inline(always)]
pub fn corrupt(what: impl std::fmt::Display) -> StorageError {
    StorageError::Corrupt(message(format_args!("{what}")))
}

/// The error of a read of `what` that ran past the end of its buffer.
#[inline(always)]
fn truncated(what: &str) -> StorageError {
    StorageError::Corrupt(message(format_args!("truncated {what}")))
}

#[cold]
#[inline(never)]
fn message(args: std::fmt::Arguments<'_>) -> String {
    args.to_string()
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// A reader at offset `pos` of `buf`.
    #[inline]
    pub fn at(buf: &'a [u8], pos: usize) -> Self {
        Reader { buf, pos }
    }

    /// The offset of the next read.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes read since offset `start`.
    #[inline]
    pub fn since(&self, start: usize) -> &'a [u8] {
        self.buf.get(start..self.pos).unwrap_or_default()
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], StorageError> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => Err(truncated(what)),
        }
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], StorageError> {
        let bytes = self.bytes(N, what)?;
        bytes.try_into().map_err(|_| truncated(what))
    }

    /// Everything not yet read (possibly nothing); the reader ends up at
    /// the end.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        rest
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, StorageError> {
        self.array(what).map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &str) -> Result<u16, StorageError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, StorageError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, StorageError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, what: &str) -> Result<i64, StorageError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed.
    pub fn str(&mut self, what: &str) -> Result<&'a str, StorageError> {
        let len = self.u32(what)? as usize;
        utf8(self.bytes(len, what)?, what)
    }

    /// Ends the read: `Corrupt` unless every byte of `what` was consumed.
    pub fn finish(self, what: &str) -> Result<(), StorageError> {
        match self.buf.len().saturating_sub(self.pos) {
            0 => Ok(()),
            left => Err(corrupt(format_args!("{left} trailing bytes after {what}"))),
        }
    }
}

/// `bytes` as UTF-8, or `Corrupt` naming `what`.
#[inline]
pub fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, StorageError> {
    std::str::from_utf8(bytes).map_err(|e| corrupt(format_args!("invalid utf-8 in {what}: {e}")))
}

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64`, little-endian.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string as [`Reader::str`] reads it: `u32` length, then bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_roundtrip() {
        let mut out = vec![7u8];
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, u32::MAX);
        put_u64(&mut out, 1 << 40);
        put_i64(&mut out, i64::MIN);
        put_str(&mut out, "日本語");
        out.extend_from_slice(b"tail");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), u32::MAX);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.i64("e").unwrap(), i64::MIN);
        assert_eq!(r.str("f").unwrap(), "日本語");
        assert_eq!(
            r.clone().finish("g"),
            Err(corrupt("4 trailing bytes after g"))
        );
        assert_eq!(r.bytes(4, "h").unwrap(), b"tail");
        assert_eq!(r.pos(), out.len());
        assert_eq!(r.rest(), b"");
        r.finish("i").unwrap();
    }

    #[test]
    fn every_failure_is_corrupt_and_names_its_field() {
        let mut out = Vec::new();
        put_u64(&mut out, 1);
        put_str(&mut out, "name");
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            let err = r
                .u64("the count")
                .and_then(|_| r.str("the name").map(drop))
                .unwrap_err();
            let StorageError::Corrupt(msg) = err else {
                panic!("cut {cut}: {err:?}");
            };
            let field = if cut < 8 { "the count" } else { "the name" };
            assert!(msg.contains(field), "cut {cut}: {msg}");
        }
        let bad = [2, 0, 0, 0, 0xff, 0xfe];
        let err = Reader::new(&bad).str("the name").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(m) if m.contains("utf-8 in the name")));
        // A length near `usize::MAX` is truncation, not an overflow.
        assert!(Reader::at(&bad, 1).bytes(usize::MAX, "x").is_err());
    }
}
