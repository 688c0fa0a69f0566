//! The value model: typed cell values with a total order and a compact
//! byte serialization.
//!
//! The paper's evaluation table has `INTEGER` key columns and a
//! `VARCHAR(512)` payload; [`Value`] covers both plus `NULL`.

use std::cmp::Ordering;
use std::fmt;

use crate::codec::{self, Reader};
use crate::error::StorageError;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// 64-bit signed integer (covers the paper's INTEGER columns).
    Int(i64),
    /// Variable-length string (covers the paper's VARCHAR payload).
    Str(String),
}

impl Value {
    /// Serialization tag for NULL.
    const TAG_NULL: u8 = 0;
    /// Serialization tag for integers.
    const TAG_INT: u8 = 1;
    /// Serialization tag for strings.
    const TAG_STR: u8 = 2;

    /// Returns the integer payload, if this value is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this value is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The borrowing view of this value — what a [`ColumnRef`] decoded
    /// from its encoding would show.
    #[inline]
    pub fn view(&self) -> ColumnView<'_> {
        match self {
            Value::Null => ColumnView::Null,
            Value::Int(v) => ColumnView::Int(*v),
            Value::Str(s) => ColumnView::Str(s),
        }
    }

    /// Number of bytes [`Value::encode`] will append.
    pub fn encoded_len(&self) -> usize {
        self.view().encoded_len()
    }

    /// Appends the compact binary encoding of the value to `out`: the tag,
    /// then an `i64` or a [`codec::put_str`] string.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(Self::TAG_NULL),
            Value::Int(v) => {
                out.push(Self::TAG_INT);
                codec::put_i64(out, *v);
            }
            Value::Str(s) => {
                out.push(Self::TAG_STR);
                codec::put_str(out, s);
            }
        }
    }

    /// The one tag/length/bounds step every value read takes: the tag and
    /// the payload bytes of the value at `r`, with the reader past both.
    /// Validates no UTF-8 — the sweep's column skip runs on it, which is
    /// why it is always inlined: out of line, the reader and the result go
    /// through memory on every skipped column.
    #[inline(always)]
    fn extent<'a>(r: &mut Reader<'a>) -> Result<(u8, &'a [u8]), StorageError> {
        let tag = r.u8("value tag")?;
        let len = match tag {
            Self::TAG_NULL => 0,
            Self::TAG_INT => 8,
            Self::TAG_STR => r.u32("string value length")? as usize,
            other => return Err(codec::corrupt(format_args!("unknown value tag {other}"))),
        };
        Ok((tag, r.bytes(len, "value payload")?))
    }

    /// Reads a *borrowing* view of the value at `r`: the one extent step plus
    /// the payload's decoding (UTF-8 checked for strings).
    #[inline]
    pub fn read<'a>(r: &mut Reader<'a>) -> Result<ColumnRef<'a>, StorageError> {
        let start = r.pos();
        let (tag, payload) = Self::extent(r)?;
        let view = match tag {
            Self::TAG_INT => ColumnView::Int(Reader::new(payload).i64("int value")?),
            Self::TAG_STR => ColumnView::Str(codec::utf8(payload, "string value")?),
            _ => ColumnView::Null,
        };
        Ok(ColumnRef {
            raw: r.since(start),
            view,
        })
    }

    /// Advances `pos` past one encoded value without materialising it.
    pub fn skip(buf: &[u8], pos: &mut usize) -> Result<(), StorageError> {
        let mut r = Reader::at(buf, *pos);
        Self::extent(&mut r)?;
        *pos = r.pos();
        Ok(())
    }

    /// Decodes a *borrowing* view of the value at `buf[*pos..]`, advancing
    /// `pos` — the zero-copy counterpart of [`Value::decode`]: string
    /// payloads are borrowed, not copied.
    pub fn decode_ref<'a>(buf: &'a [u8], pos: &mut usize) -> Result<ColumnRef<'a>, StorageError> {
        let mut r = Reader::at(buf, *pos);
        let col = Self::read(&mut r)?;
        *pos = r.pos();
        Ok(col)
    }

    /// Decodes a value from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value, StorageError> {
        Self::decode_ref(buf, pos).map(|col| col.to_value())
    }
}

/// A borrowed view of one encoded column value: the exact encoded byte
/// extent plus the decoded payload, with nothing copied or allocated.
///
/// Produced by [`Value::decode_ref`] / `Tuple::read_column_raw`; this is what
/// the scan fast path compares instead of materialising a [`Value`]. Because
/// the encoding is canonical (one byte sequence per value), raw-byte equality
/// of two well-formed extents is exactly [`Value`] equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnRef<'a> {
    raw: &'a [u8],
    view: ColumnView<'a>,
}

/// The decoded payload of a [`ColumnRef`], borrowing string bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnView<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Borrowed UTF-8 string payload.
    Str(&'a str),
}

impl ColumnView<'_> {
    /// Materialises an owned [`Value`] (allocates for strings).
    pub fn to_value(&self) -> Value {
        match *self {
            ColumnView::Null => Value::Null,
            ColumnView::Int(v) => Value::Int(v),
            ColumnView::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// Number of bytes the value's encoding takes ([`Value::encoded_len`]).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        match self {
            ColumnView::Null => 1,
            ColumnView::Int(_) => 1 + 8,
            ColumnView::Str(s) => 1 + 4 + s.len(),
        }
    }
}

impl<'a> ColumnRef<'a> {
    /// The encoded bytes of this value (tag + payload), exactly as
    /// [`Value::encode`] would produce them.
    #[inline]
    pub fn raw(&self) -> &'a [u8] {
        self.raw
    }

    /// The decoded, borrowing payload.
    #[inline]
    pub fn view(&self) -> ColumnView<'a> {
        self.view
    }

    /// Materialises an owned [`Value`] (allocates for strings).
    pub fn to_value(&self) -> Value {
        self.view.to_value()
    }

    /// Compares against an owned [`Value`] under the same total order as
    /// [`Value::cmp`] (`Null < Int(_) < Str(_)`), without allocating.
    #[inline]
    pub fn cmp_value(&self, other: &Value) -> Ordering {
        match (self.view, other) {
            (ColumnView::Null, Value::Null) => Ordering::Equal,
            (ColumnView::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (ColumnView::Int(a), Value::Int(b)) => a.cmp(b),
            (ColumnView::Int(_), Value::Str(_)) => Ordering::Less,
            (ColumnView::Str(_), Value::Int(_)) => Ordering::Greater,
            (ColumnView::Str(a), Value::Str(b)) => a.cmp(b.as_str()),
        }
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: `Null < Int(_) < Str(_)`; same-variant values compare by
    /// payload. Cross-type comparisons never happen for well-typed columns
    /// but must still be total so values can key a B+-tree.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut pos = 0;
        let out = Value::decode(&buf, &mut pos).expect("decode");
        assert_eq!(pos, buf.len());
        out
    }

    #[test]
    fn roundtrip_null() {
        assert_eq!(roundtrip(&Value::Null), Value::Null);
    }

    #[test]
    fn roundtrip_int_extremes() {
        for v in [0, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(roundtrip(&Value::Int(v)), Value::Int(v));
        }
    }

    #[test]
    fn roundtrip_strings() {
        for s in ["", "a", "ORD", "Frankfurt Airport", "日本語"] {
            assert_eq!(roundtrip(&Value::from(s)), Value::from(s));
        }
    }

    #[test]
    fn order_null_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::from(""));
        assert!(Value::Int(i64::MAX) < Value::from(""));
    }

    #[test]
    fn order_within_types() {
        assert!(Value::Int(3) < Value::Int(4));
        assert!(Value::from("FRA") < Value::from("ORD"));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Value::Int(12345).encode(&mut buf);
        buf.truncate(5);
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let buf = vec![9u8];
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let buf = vec![Value::TAG_STR, 2, 0, 0, 0, 0xff, 0xfe];
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn decode_ref_matches_decode() {
        for v in [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("Frankfurt Airport"),
            Value::from("日本語"),
        ] {
            let mut buf = vec![0xAAu8; 3]; // leading garbage: extents must be exact
            let start = buf.len();
            v.encode(&mut buf);
            let mut pos = start;
            let col = Value::decode_ref(&buf, &mut pos).expect("decode_ref");
            assert_eq!(pos, buf.len());
            assert_eq!(col.raw(), &buf[start..]);
            assert_eq!(col.to_value(), v);
        }
    }

    #[test]
    fn decode_ref_rejects_what_decode_rejects() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![9u8],
            vec![Value::TAG_INT, 1, 2, 3],
            vec![Value::TAG_STR, 2, 0, 0, 0, 0xff, 0xfe],
            vec![Value::TAG_STR, 5, 0, 0, 0, b'a'],
        ];
        for buf in cases {
            let mut p1 = 0;
            let mut p2 = 0;
            assert_eq!(
                Value::decode(&buf, &mut p1).is_err(),
                Value::decode_ref(&buf, &mut p2).is_err()
            );
            assert!(Value::decode_ref(&buf, &mut p2).is_err());
        }
    }

    #[test]
    fn cmp_value_mirrors_ord() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::Int(42),
            Value::from(""),
            Value::from("ORD"),
        ];
        for a in &values {
            let mut buf = Vec::new();
            a.encode(&mut buf);
            let col = Value::decode_ref(&buf, &mut 0).expect("decode_ref");
            for b in &values {
                assert_eq!(col.cmp_value(b), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::from("x").to_string(), "'x'");
    }
}
