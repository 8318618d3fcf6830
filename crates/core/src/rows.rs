//! [`RowBlock`]: a query's materialized rows as one flat run of cell images.
//!
//! The paper's lookup ends in base-table validation (§5.2, Fig. 3 phase 4):
//! the tuple is fetched to re-check the predicate, and that fetched tuple
//! *is* the answer. So the executor's validate stage writes each matching
//! row's cells into a block from the copy it validated, and nothing visits
//! the heap a second time. The cells are the 9-byte images of
//! [`hermit_storage::encode_cell`] — what the page holds and what the wire
//! ships — so a caller that wants bytes (the server) copies them on and a
//! caller that wants [`Value`]s decodes them with [`RowBlock::row`].

use hermit_storage::{decode_cells, ColumnId, RowRef, Value, CELL_BYTES};

/// Materialized rows, `cells_per_row` cells each, back to back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBlock {
    cells_per_row: usize,
    rows: usize,
    bytes: Vec<u8>,
}

impl RowBlock {
    /// Cells in each row (the width of the projection).
    pub fn cells_per_row(&self) -> usize {
        self.cells_per_row
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Every row's cell images, `cells_per_row * CELL_BYTES` bytes per row.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Row `i`, decoded.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        assert!(i < self.rows, "row {i} of a {}-row block", self.rows);
        let stride = self.cells_per_row * CELL_BYTES;
        // Only `RowRef::write_cells` fills a block, so every tag is one the
        // codec wrote.
        decode_cells(&self.bytes[i * stride..(i + 1) * stride])
            .map(|cell| cell.unwrap_or(Value::Null))
            .collect()
    }

    /// The rows in order, decoded.
    pub fn iter(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Every row decoded into the boxed shape `Response::Rows` carries.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().collect()
    }

    /// Keep the first `rows` rows (a `LIMIT`).
    pub(crate) fn truncate(&mut self, rows: usize) {
        if rows < self.rows {
            self.rows = rows;
            self.bytes.truncate(rows * self.cells_per_row * CELL_BYTES);
        }
    }
}

/// Fills a [`RowBlock`] from inside a heap visitor. The block is sized for
/// every candidate before the pass, so [`emit`](Self::emit) never
/// allocates; matches are written at consecutive slots and the unused tail
/// is cut off at the end.
pub(crate) struct BlockWriter<'p> {
    cols: &'p [ColumnId],
    /// `cols` is `0..heap width`: rows are copied whole.
    whole_row: bool,
    block: RowBlock,
}

impl<'p> BlockWriter<'p> {
    /// A writer of `cols` with room for `slots` rows.
    pub(crate) fn new(cols: &'p [ColumnId], heap_width: usize, slots: usize) -> Self {
        BlockWriter {
            cols,
            whole_row: cols.iter().copied().eq(0..heap_width),
            block: RowBlock {
                cells_per_row: cols.len(),
                rows: 0,
                bytes: vec![0; slots * cols.len() * CELL_BYTES],
            },
        }
    }

    /// Write `row`'s cells at `slot`. A slot past the sized block grows it —
    /// only a scan that meets rows inserted after it was sized gets there.
    #[inline]
    pub(crate) fn emit(&mut self, slot: usize, row: &RowRef<'_>) {
        let stride = self.cols.len() * CELL_BYTES;
        let end = (slot + 1) * stride;
        if self.block.bytes.len() < end {
            self.block.bytes.resize(end, 0);
        }
        let cols = if self.whole_row { None } else { Some(self.cols) };
        row.write_cells(cols, &mut self.block.bytes[slot * stride..end]);
    }

    /// The block of the first `rows` slots.
    pub(crate) fn finish(mut self, rows: usize) -> RowBlock {
        self.block.rows = rows;
        self.block.bytes.truncate(rows * self.cols.len() * CELL_BYTES);
        self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermit_storage::encode_cell;

    fn record(row: &[Value]) -> Vec<u8> {
        row.iter().flat_map(encode_cell).collect()
    }

    #[test]
    fn whole_rows_at_consecutive_slots_decode_back() {
        let rows: Vec<Vec<Value>> = (0..5i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5), Value::Null])
            .collect();
        let cols = [0, 1, 2];
        let mut w = BlockWriter::new(&cols, 3, rows.len());
        assert!(w.whole_row);
        // Four matches of five candidates, written where a validation pass
        // writes them: at the next free slot.
        let kept = [&rows[0], &rows[1], &rows[3], &rows[4]];
        for (slot, row) in kept.iter().enumerate() {
            w.emit(slot, &RowRef::new(&record(row)));
        }
        let block = w.finish(kept.len());
        assert_eq!(block.len(), 4);
        assert_eq!(block.cells_per_row(), 3);
        assert_eq!(block.to_rows(), kept.map(|r| r.clone()).to_vec());
        assert_eq!(block.as_bytes().len(), 4 * 3 * CELL_BYTES);
    }

    #[test]
    fn projection_limit_and_the_empty_select() {
        let bytes = record(&[Value::Int(9), Value::Float(1.5)]);
        let cols = [1, 1, 0];
        let mut w = BlockWriter::new(&cols, 2, 1);
        assert!(!w.whole_row);
        w.emit(0, &RowRef::new(&bytes));
        w.emit(1, &RowRef::new(&bytes)); // past the sized block
        let mut block = w.finish(2);
        let want = vec![Value::Float(1.5), Value::Float(1.5), Value::Int(9)];
        assert_eq!(block.to_rows(), vec![want.clone(), want.clone()]);
        block.truncate(1);
        assert_eq!(block.to_rows(), vec![want]);
        block.truncate(5);
        assert_eq!(block.len(), 1, "a limit above the row count keeps every row");

        // `select([])`: rows with no cells still count.
        let mut w = BlockWriter::new(&[], 2, 3);
        w.emit(2, &RowRef::new(&bytes));
        let block = w.finish(3);
        assert_eq!((block.len(), block.as_bytes().len()), (3, 0));
        assert_eq!(block.to_rows(), vec![Vec::<Value>::new(); 3]);
    }
}
