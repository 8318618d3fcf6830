//! Cell values and totally-ordered floating-point keys.
//!
//! The paper's evaluation tables consist of 8-byte numeric columns (plus
//! NULLs in the wide Stock table), so the value model is deliberately small:
//! 64-bit integers, 64-bit floats, and NULL.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value stored in a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// SQL NULL. Compares less than any non-null value (PostgreSQL's
    /// `NULLS FIRST` convention) so that sorting rows with missing readings
    /// is deterministic.
    Null,
    /// 64-bit signed integer (used for timestamps / day ordinals / keys).
    Int(i64),
    /// 64-bit IEEE-754 float (used for prices, sensor readings, etc.).
    Float(f64),
}

impl Value {
    /// True if the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, NULL mapping to `None`.
    ///
    /// Integers convert losslessly for |v| < 2^53; the workloads in this
    /// repository stay far below that.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Null => None,
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
        }
    }

    /// Integer view of the value, truncating floats.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Null => None,
            Value::Int(v) => Some(v),
            Value::Float(v) => Some(v as i64),
        }
    }

    /// Total ordering across the value domain: NULL < Int/Float by numeric
    /// value; NaN floats sort greatest (via `f64::total_cmp` semantics for
    /// the float/float case).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (a, b) => {
                // Mixed int/float: compare as f64 (safe for workload ranges).
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.total_cmp(&y)
            }
        }
    }
}

/// Bytes in one encoded cell: a tag byte plus an 8-byte little-endian body.
pub const CELL_BYTES: usize = 9;

/// A cell image whose tag byte names no [`Value`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadCellTag(pub u8);

/// The one cell codec: `0` NULL (zero body) | `1` i64 | `2` f64, body
/// little-endian. A heap record, a WAL row and a `Rows` frame on the wire
/// are all runs of exactly these nine bytes, which is what lets a row's
/// image go from a pinned page into a response without being decoded.
#[inline]
pub fn encode_cell(v: &Value) -> [u8; CELL_BYTES] {
    let (tag, body) = match *v {
        Value::Null => (0, [0u8; 8]),
        Value::Int(x) => (1, x.to_le_bytes()),
        Value::Float(x) => (2, x.to_le_bytes()),
    };
    let mut cell = [tag; CELL_BYTES];
    cell[1..].copy_from_slice(&body);
    cell
}

/// Strict inverse of [`encode_cell`]: an unknown tag is an error, for the
/// caller to map onto its own (the WAL's torn record, the wire's malformed
/// payload). A NULL's body is not inspected.
#[inline]
pub fn decode_cell(cell: &[u8; CELL_BYTES]) -> Result<Value, BadCellTag> {
    let [tag, body @ ..] = *cell;
    match tag {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(i64::from_le_bytes(body))),
        2 => Ok(Value::Float(f64::from_le_bytes(body))),
        _ => Err(BadCellTag(tag)),
    }
}

/// [`decode_cell`] over a run of cell images, in order. Bytes past the last
/// whole cell are ignored; callers that care check the length first.
pub fn decode_cells(cells: &[u8]) -> impl Iterator<Item = Result<Value, BadCellTag>> + '_ {
    cells
        .chunks_exact(CELL_BYTES)
        .map(|cell| decode_cell(cell.try_into().expect("chunks_exact yields whole cells")))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Self {
        match v {
            Some(v) => Value::Float(v),
            None => Value::Null,
        }
    }
}

/// An `f64` wrapper with a total order (`f64::total_cmp`), usable as a
/// B+-tree or hash-map key.
///
/// Index keys throughout the repository are `f64` (integer columns convert
/// losslessly in the workload ranges); this wrapper supplies the `Ord` and
/// `Hash` implementations `f64` itself lacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64Key(pub f64);

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for F64Key {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 to 0.0 so values that compare equal via == in the
        // workload space hash identically.
        let v = if self.0 == 0.0 { 0.0f64 } else { self.0 };
        v.to_bits().hash(state);
    }
}

impl From<f64> for F64Key {
    fn from(v: f64) -> Self {
        F64Key(v)
    }
}

impl fmt::Display for F64Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Float(f64::NEG_INFINITY).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.5)), Ordering::Less);
        assert_eq!(Value::Float(4.0).total_cmp(&Value::Int(4)), Ordering::Equal);
        assert_eq!(Value::Int(5).total_cmp(&Value::Float(4.5)), Ordering::Greater);
    }

    #[test]
    fn as_f64_roundtrip() {
        assert_eq!(Value::Int(42).as_f64(), Some(42.0));
        assert_eq!(Value::Float(1.25).as_f64(), Some(1.25));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn f64key_total_order() {
        let mut keys = [
            F64Key(1.0),
            F64Key(f64::NEG_INFINITY),
            F64Key(-0.5),
            F64Key(f64::INFINITY),
            F64Key(0.0),
        ];
        keys.sort();
        let raw: Vec<f64> = keys.iter().map(|k| k.0).collect();
        assert_eq!(raw, vec![f64::NEG_INFINITY, -0.5, 0.0, 1.0, f64::INFINITY]);
    }

    #[test]
    fn f64key_negative_zero_hashes_like_zero() {
        let h = |k: F64Key| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(F64Key(0.0)), h(F64Key(-0.0)));
        assert_eq!(F64Key(0.0), F64Key(-0.0).clone());
    }

    #[test]
    fn cell_codec_roundtrips_and_rejects_unknown_tags() {
        for v in [Value::Null, Value::Int(-7), Value::Int(i64::MAX), Value::Float(-0.5)] {
            assert_eq!(decode_cell(&encode_cell(&v)), Ok(v));
        }
        assert_eq!(encode_cell(&Value::Null), [0u8; CELL_BYTES], "a zeroed cell is NULL");
        assert_eq!(encode_cell(&Value::Int(1)), [1, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_cell(&[3, 0, 0, 0, 0, 0, 0, 0, 0]), Err(BadCellTag(3)));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }
}
