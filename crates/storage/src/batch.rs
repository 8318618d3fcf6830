//! Batched, page-locality-aware row access shared by both heap substrates.
//!
//! The query executor's validation phase fetches one or two cells from many
//! candidate rows. Doing that one `value_f64` call at a time costs a buffer
//! pool lock + frame lookup *per cell* on the paged substrate; the batch
//! APIs here ([`crate::paged::PagedTable::for_each_row_batch`],
//! [`crate::Table::for_each_row_batch`]) instead visit candidates grouped
//! by page, pinning each page once and handing the caller a borrowed
//! [`RowRef`] from which any number of cells can be read for free.

use crate::schema::ColumnId;
use crate::table::Table;
use crate::value::{encode_cell, Value, CELL_BYTES};

/// A borrowed view of one live row, valid only inside a heap visitor
/// callback (a batch or a scan).
///
/// Both substrates are represented: the in-memory columnar heap hands out
/// `(table, row index)` pairs, the paged heap hands out the row's encoded
/// bytes while its page is pinned.
pub enum RowRef<'a> {
    /// A row of the in-memory columnar [`Table`].
    Columnar {
        /// The table the row lives in.
        table: &'a Table,
        /// Dense row index within the table's columns.
        idx: usize,
    },
    /// A serialized row of a paged heap (9 bytes per cell: tag + payload).
    Encoded {
        /// The row's record bytes, borrowed from the pinned page.
        bytes: &'a [u8],
    },
}

impl RowRef<'_> {
    /// Numeric view of one cell (`None` for NULL or an out-of-range column).
    #[inline]
    pub fn f64(&self, cid: ColumnId) -> Option<f64> {
        match self {
            RowRef::Columnar { table, idx } => table.column(cid).ok().and_then(|c| c.get_f64(*idx)),
            RowRef::Encoded { bytes } => crate::paged::heap::decode_cell_at(bytes, cid).as_f64(),
        }
    }

    /// Full [`Value`] view of one cell (`Value::Null` for an out-of-range
    /// column on the encoded representation).
    #[inline]
    pub fn value(&self, cid: ColumnId) -> Value {
        match self {
            RowRef::Columnar { table, idx } => {
                table.column(cid).map(|c| c.get(*idx)).unwrap_or(Value::Null)
            }
            RowRef::Encoded { bytes } => crate::paged::heap::decode_cell_at(bytes, cid),
        }
    }

    /// One cell's image ([`crate::value::encode_cell`]); NULL for an
    /// out-of-range column.
    #[inline]
    fn cell(&self, cid: ColumnId) -> [u8; CELL_BYTES] {
        match self {
            RowRef::Columnar { .. } => encode_cell(&self.value(cid)),
            RowRef::Encoded { bytes } => bytes
                .get(cid * CELL_BYTES..(cid + 1) * CELL_BYTES)
                .and_then(|image| image.try_into().ok())
                .unwrap_or([0; CELL_BYTES]),
        }
    }

    /// Write the row's cell images into `out`, `CELL_BYTES` per cell: the
    /// columns in `cols`, in that order, or the whole row when `None`. The
    /// whole row of a paged heap is one copy of the record off its pinned
    /// page; the columnar substrate and a projection go cell by cell. An
    /// out-of-range column is written as NULL. `out` is expected to be
    /// exactly as long as the cells asked for; nothing is written past it.
    /// Allocates nothing, so it may run under a pool shard lock.
    // hermit-lint: hot-path
    #[inline]
    pub fn write_cells(&self, cols: Option<&[ColumnId]>, out: &mut [u8]) {
        match (self, cols) {
            (RowRef::Encoded { bytes }, None) => {
                let n = bytes.len().min(out.len());
                out[..n].copy_from_slice(&bytes[..n]);
                out[n..].fill(0);
            }
            (_, Some(cols)) => {
                for (cell, &cid) in out.chunks_exact_mut(CELL_BYTES).zip(cols) {
                    cell.copy_from_slice(&self.cell(cid));
                }
            }
            (RowRef::Columnar { .. }, None) => {
                for (cid, cell) in out.chunks_exact_mut(CELL_BYTES).enumerate() {
                    cell.copy_from_slice(&self.cell(cid));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};

    #[test]
    fn columnar_rowref_reads_cells() {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("a"),
            ColumnDef::float_null("b"),
        ]);
        let mut t = Table::new(schema);
        t.insert(&[Value::Int(7), Value::Float(2.5), Value::Null]).unwrap();
        let r = RowRef::Columnar { table: &t, idx: 0 };
        assert_eq!(r.f64(0), Some(7.0));
        assert_eq!(r.f64(1), Some(2.5));
        assert_eq!(r.f64(2), None);
        assert_eq!(r.f64(99), None, "out-of-range column reads as NULL");
        assert_eq!(r.value(1), Value::Float(2.5));
    }

    /// Both substrates write the same images, whole row and projected.
    #[test]
    fn write_cells_matches_the_codec_on_both_substrates() {
        let schema = Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("a"),
            ColumnDef::float_null("b"),
        ]);
        let row = [Value::Int(7), Value::Float(2.5), Value::Null];
        let mut t = Table::new(schema);
        t.insert(&row).unwrap();
        let record: Vec<u8> = row.iter().flat_map(encode_cell).collect();
        let views = [RowRef::Columnar { table: &t, idx: 0 }, RowRef::Encoded { bytes: &record }];
        for view in &views {
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
}
