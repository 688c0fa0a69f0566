//! Tuples: rows of [`Value`]s with a compact binary encoding.

use std::fmt;

use crate::codec::{self, Reader};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::{ColumnRef, Value};

/// A row of values. Tuples are schema-agnostic containers; validation against
/// a [`Schema`] happens at table boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Wraps a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Borrows all values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Borrows the value at column position `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consumes the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Size of [`Tuple::to_bytes`] output.
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Serializes the tuple: a little-endian u16 arity, then each value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        codec::put_u16(&mut out, self.values.len() as u16);
        for v in &self.values {
            v.encode(&mut out);
        }
        out
    }

    /// Deserializes a tuple previously produced by [`Tuple::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, StorageError> {
        let (mut r, arity) = Self::open(buf)?;
        let values = (0..arity)
            .map(|_| Value::read(&mut r).map(|col| col.to_value()))
            .collect::<Result<_, _>>()?;
        r.finish("tuple")?;
        Ok(Tuple { values })
    }

    /// Serializes after validating against `schema`.
    pub fn to_bytes_checked(&self, schema: &Schema) -> Result<Vec<u8>, StorageError> {
        schema.validate(&self.values)?;
        Ok(self.to_bytes())
    }

    /// Decodes only the value at column position `idx` from serialized tuple
    /// bytes, skipping earlier columns without materialising them.
    ///
    /// This is the table-scan hot path: paper Algorithm 1 evaluates the
    /// query predicate `q(t)` against a single column, so decoding the
    /// payload column (a up-to-512-byte string) for every visited tuple
    /// would dominate the scan cost.
    pub fn read_column(buf: &[u8], idx: usize) -> Result<Value, StorageError> {
        let mut pos = Self::seek_column(buf, idx)?;
        Value::decode(buf, &mut pos)
    }

    /// Zero-copy variant of [`Tuple::read_column`]: borrows the encoded
    /// extent of column `idx` as a [`ColumnRef`] instead of materialising a
    /// [`Value`], so the scan fast path evaluates predicates — and the
    /// sweep stages buffer entries — without allocating. Validation and
    /// failure modes match `read_column` exactly.
    #[inline]
    pub fn read_column_raw(buf: &[u8], idx: usize) -> Result<ColumnRef<'_>, StorageError> {
        let mut pos = Self::seek_column(buf, idx)?;
        Value::decode_ref(buf, &mut pos)
    }

    /// The tuple's arity header, and a reader at its first column.
    #[inline]
    fn open(buf: &[u8]) -> Result<(Reader<'_>, usize), StorageError> {
        let mut r = Reader::new(buf);
        let arity = r.u16("tuple arity header")?;
        Ok((r, usize::from(arity)))
    }

    /// The one column seek behind the two column reads: checks the arity
    /// header, then skips (and structurally validates) the columns before
    /// `idx`, returning the offset where column `idx`'s encoding starts.
    #[inline]
    fn seek_column(buf: &[u8], idx: usize) -> Result<usize, StorageError> {
        let (r, arity) = Self::open(buf)?;
        if idx >= arity {
            return Err(codec::corrupt(format_args!(
                "column {idx} out of range for arity {arity}"
            )));
        }
        let mut pos = r.pos();
        for _ in 0..idx {
            Value::skip(buf, &mut pos)?;
        }
        Ok(pos)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![Value::Int(7), Value::from("ORD"), Value::Null])
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(Tuple::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new(vec![]);
        assert_eq!(Tuple::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Tuple::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        assert!(Tuple::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Tuple::from_bytes(&[1]).is_err());
    }

    #[test]
    fn checked_serialization_respects_schema() {
        use crate::schema::{Column, Schema};
        let schema = Schema::new(vec![Column::int("k"), Column::str("v")]);
        let good = Tuple::new(vec![Value::Int(1), Value::from("x")]);
        let bad = Tuple::new(vec![Value::from("x"), Value::Int(1)]);
        assert!(good.to_bytes_checked(&schema).is_ok());
        assert!(bad.to_bytes_checked(&schema).is_err());
    }

    #[test]
    fn display_form() {
        assert_eq!(sample().to_string(), "(7, 'ORD', NULL)");
    }

    #[test]
    fn read_column_projects_without_full_decode() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(Tuple::read_column(&bytes, 0).unwrap(), Value::Int(7));
        assert_eq!(Tuple::read_column(&bytes, 1).unwrap(), Value::from("ORD"));
        assert_eq!(Tuple::read_column(&bytes, 2).unwrap(), Value::Null);
        assert!(Tuple::read_column(&bytes, 3).is_err());
        assert!(Tuple::read_column(&[1], 0).is_err());
    }

    #[test]
    fn read_column_raw_agrees_with_read_column() {
        let t = sample();
        let bytes = t.to_bytes();
        for idx in 0..4 {
            let owned = Tuple::read_column(&bytes, idx);
            let raw = Tuple::read_column_raw(&bytes, idx);
            match (owned, raw) {
                (Ok(v), Ok(c)) => {
                    assert_eq!(c.to_value(), v);
                    let mut enc = Vec::new();
                    v.encode(&mut enc);
                    assert_eq!(c.raw(), &enc[..]);
                }
                (Err(_), Err(_)) => {}
                (o, r) => panic!("column {idx}: owned={o:?} raw={r:?}"),
            }
        }
        assert!(Tuple::read_column_raw(&[1], 0).is_err());
    }

    #[test]
    fn read_column_rejects_truncation_mid_skip() {
        let t = Tuple::new(vec![Value::from("long string payload"), Value::Int(1)]);
        let bytes = t.to_bytes();
        assert!(Tuple::read_column(&bytes[..5], 1).is_err());
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(7)));
        assert_eq!(t.get(3), None);
        assert_eq!(t.clone().into_values().len(), 3);
    }
}
