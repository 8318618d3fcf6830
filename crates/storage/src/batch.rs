//! Batched, page-locality-aware row access.
//!
//! The query executor's validation phase fetches one or two cells from many
//! candidate rows. Doing that one `value_f64` call at a time costs a buffer
//! pool lock + frame lookup *per cell*; the batch API
//! ([`crate::paged::PagedTable::for_each_row_batch`]) instead visits
//! candidates grouped by page, seeing each page once and handing the caller
//! a borrowed [`RowRef`] from which any number of cells can be read for free.

use crate::schema::ColumnId;
use crate::value::{Value, CELL_BYTES};

/// A borrowed view of one live row, valid only inside a heap visitor
/// callback (a batch or a scan): the row's record — 9 bytes per cell, tag +
/// payload — borrowed from its pinned page, or from the window of records a
/// batch copied out of the pool.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    bytes: &'a [u8],
}

impl<'a> RowRef<'a> {
    /// View the encoded record `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        RowRef { bytes }
    }

    /// Numeric view of one cell (`None` for NULL or an out-of-range column).
    #[inline]
    pub fn f64(&self, cid: ColumnId) -> Option<f64> {
        self.value(cid).as_f64()
    }

    /// Full [`Value`] view of one cell (`Value::Null` for an out-of-range
    /// column).
    #[inline]
    pub fn value(&self, cid: ColumnId) -> Value {
        crate::paged::heap::decode_cell_at(self.bytes, cid)
    }

    /// One cell's image ([`crate::value::encode_cell`]); NULL for an
    /// out-of-range column.
    #[inline]
    fn cell(&self, cid: ColumnId) -> [u8; CELL_BYTES] {
        self.bytes
            .get(cid * CELL_BYTES..(cid + 1) * CELL_BYTES)
            .and_then(|image| image.try_into().ok())
            .unwrap_or([0; CELL_BYTES])
    }

    /// Write the row's cell images into `out`, `CELL_BYTES` per cell: the
    /// columns in `cols`, in that order, or the whole row when `None`. The
    /// whole row is one copy of the record; a projection goes cell by cell.
    /// An out-of-range column is written as NULL. `out` is expected to be
    /// exactly as long as the cells asked for; nothing is written past it.
    /// Allocates nothing.
    #[inline]
    pub fn write_cells(&self, cols: Option<&[ColumnId]>, out: &mut [u8]) {
        match cols {
            None => {
                let n = self.bytes.len().min(out.len());
                out[..n].copy_from_slice(&self.bytes[..n]);
                out[n..].fill(0);
            }
            Some(cols) => {
                for (cell, &cid) in out.chunks_exact_mut(CELL_BYTES).zip(cols) {
                    cell.copy_from_slice(&self.cell(cid));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::encode_cell;

    #[test]
    fn rowref_reads_cells() {
        let row = [Value::Int(7), Value::Float(2.5), Value::Null];
        let record: Vec<u8> = row.iter().flat_map(encode_cell).collect();
        let r = RowRef::new(&record);
        assert_eq!(r.f64(0), Some(7.0));
        assert_eq!(r.f64(1), Some(2.5));
        assert_eq!(r.f64(2), None);
        assert_eq!(r.f64(99), None, "out-of-range column reads as NULL");
        assert_eq!(r.value(1), Value::Float(2.5));
    }

    /// The whole row and a projection write the codec's images.
    #[test]
    fn write_cells_matches_the_codec() {
        let row = [Value::Int(7), Value::Float(2.5), Value::Null];
        let record: Vec<u8> = row.iter().flat_map(encode_cell).collect();
        let view = RowRef::new(&record);
        let mut whole = [0xAAu8; 3 * CELL_BYTES];
        view.write_cells(None, &mut whole);
        assert_eq!(whole[..], record[..]);

        // Reordered, repeated, and one column the row does not have.
        let cols = [2, 0, 0, 9];
        let mut cut = [0xAAu8; 4 * CELL_BYTES];
        view.write_cells(Some(&cols), &mut cut);
        let want: Vec<u8> = [Value::Null, Value::Int(7), Value::Int(7), Value::Null]
            .iter()
            .flat_map(encode_cell)
            .collect();
        assert_eq!(cut[..], want[..]);
    }
}
