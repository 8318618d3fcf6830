//! In-memory columnar table heap with block+offset row locations.
//!
//! This is the "DBMS-X" substrate: a main-memory table whose rows live in
//! typed column vectors, addressed by [`RowLoc`] (a `block + offset` pair,
//! the paper's physical-pointer format). Deletes are tombstones; updates
//! overwrite in place. Per-column statistics are maintained incrementally.

use crate::batch::RowRef;
use crate::column::Column;
use crate::error::StorageError;
use crate::schema::{ColumnId, ColumnType, Schema};
use crate::stats::ColumnStats;
use crate::value::Value;
use crate::Result;

/// Number of rows per logical block. Row locations are `block * BLOCK + off`;
/// the split mirrors the "blockID+offset" format described in §5.1.
pub const ROWS_PER_BLOCK: u32 = 4096;

/// Physical row location: block id + offset within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowLoc {
    /// Block containing the row.
    pub block: u32,
    /// Offset of the row within its block.
    pub offset: u32,
}

impl RowLoc {
    /// Construct from block and offset.
    #[inline]
    pub fn new(block: u32, offset: u32) -> Self {
        RowLoc { block, offset }
    }

    /// Construct from a dense row index.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        RowLoc {
            block: (idx as u64 / ROWS_PER_BLOCK as u64) as u32,
            offset: (idx as u64 % ROWS_PER_BLOCK as u64) as u32,
        }
    }

    /// Dense row index this location refers to.
    #[inline]
    pub fn index(&self) -> usize {
        self.block as usize * ROWS_PER_BLOCK as usize + self.offset as usize
    }

    /// Pack into a `u64` (for storage inside a [`crate::Tid`]).
    #[inline]
    pub fn encode(&self) -> u64 {
        ((self.block as u64) << 32) | self.offset as u64
    }

    /// Unpack from a `u64`.
    #[inline]
    pub fn decode(v: u64) -> Self {
        RowLoc { block: (v >> 32) as u32, offset: v as u32 }
    }
}

/// An in-memory columnar table.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    stats: Vec<ColumnStats>,
    /// Tombstone bitmap, one bit per row.
    deleted: Vec<u64>,
    live_rows: usize,
    total_rows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        let stats = schema.columns().iter().map(|_| ColumnStats::default()).collect();
        Table { schema, columns, stats, deleted: Vec::new(), live_rows: 0, total_rows: 0 }
    }

    /// Create an empty table with per-column capacity reserved.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let columns = schema.columns().iter().map(|c| Column::with_capacity(c.ty, cap)).collect();
        let stats = schema.columns().iter().map(|_| ColumnStats::default()).collect();
        Table {
            schema,
            columns,
            stats,
            deleted: Vec::with_capacity(cap / 64 + 1),
            live_rows: 0,
            total_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live (non-deleted) rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True if the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Total rows ever inserted, including tombstoned ones.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Insert a row; returns its physical location.
    ///
    /// Values are type-checked against the schema; NULLs are rejected on
    /// non-nullable columns.
    pub fn insert(&mut self, row: &[Value]) -> Result<RowLoc> {
        if row.len() != self.schema.width() {
            return Err(StorageError::ArityMismatch {
                got: row.len(),
                expected: self.schema.width(),
            });
        }
        for (cid, v) in row.iter().enumerate() {
            let def = self.schema.column(cid)?;
            match (v, def.ty) {
                (Value::Null, _) if !def.nullable => {
                    return Err(StorageError::UnexpectedNull { column: cid })
                }
                (Value::Null, _) => {}
                (Value::Int(_), ColumnType::Int) | (Value::Float(_), ColumnType::Float) => {}
                (_, ty) => {
                    return Err(StorageError::TypeMismatch { column: cid, expected: ty.name() })
                }
            }
        }
        let idx = self.total_rows;
        for (cid, v) in row.iter().enumerate() {
            self.columns[cid].push(*v);
            self.stats[cid].observe(v);
        }
        if idx / 64 >= self.deleted.len() {
            self.deleted.push(0);
        }
        self.total_rows += 1;
        self.live_rows += 1;
        Ok(RowLoc::from_index(idx))
    }

    #[inline]
    fn is_deleted(&self, idx: usize) -> bool {
        (self.deleted[idx / 64] >> (idx % 64)) & 1 == 1
    }

    #[inline]
    fn check_live(&self, loc: RowLoc) -> Result<usize> {
        let idx = loc.index();
        if idx >= self.total_rows || self.is_deleted(idx) {
            return Err(StorageError::RowNotFound { loc: loc.encode() });
        }
        Ok(idx)
    }

    /// Fetch a full row by location.
    pub fn get(&self, loc: RowLoc) -> Result<Vec<Value>> {
        let idx = self.check_live(loc)?;
        Ok(self.columns.iter().map(|c| c.get(idx)).collect())
    }

    /// Fetch one cell by location and column.
    #[inline]
    pub fn value(&self, loc: RowLoc, cid: ColumnId) -> Result<Value> {
        let idx = self.check_live(loc)?;
        self.schema.column(cid)?;
        Ok(self.columns[cid].get(idx))
    }

    /// Numeric view of one cell; the hot accessor for validation. Returns
    /// `Ok(None)` for NULL.
    #[inline]
    pub fn value_f64(&self, loc: RowLoc, cid: ColumnId) -> Result<Option<f64>> {
        let idx = self.check_live(loc)?;
        Ok(self.columns[cid].get_f64(idx))
    }

    /// Visit every candidate in `locs`, passing its index and row view
    /// (`None` for a deleted or out-of-range row) to `f`, in ascending
    /// [`RowLoc`] order — sorted through the reusable `order` buffer, the
    /// order [`crate::paged::PagedTable::for_each_row_batch`] visits in, so
    /// the executor drives either substrate through one code path and gets
    /// the same row order from both.
    pub fn for_each_row_batch(
        &self,
        locs: &[RowLoc],
        order: &mut Vec<u32>,
        mut f: impl FnMut(usize, Option<RowRef<'_>>),
    ) {
        order.clear();
        order.extend(0..locs.len() as u32);
        order.sort_unstable_by_key(|&i| locs[i as usize]);
        for &i in order.iter() {
            match self.check_live(locs[i as usize]) {
                Ok(idx) => f(i as usize, Some(RowRef::Columnar { table: self, idx })),
                Err(_) => f(i as usize, None),
            }
        }
    }

    /// Stream every live row through a [`RowRef`] visitor, in insertion
    /// order. The visitor returns `false` to stop early (a `LIMIT`ed
    /// sequential scan); the final return value reports whether the scan
    /// ran to completion.
    ///
    /// This is the full-table-scan access path: unlike
    /// [`scan`](Self::scan), no per-row liveness re-check or allocation
    /// happens downstream — the caller reads any cells it needs from the
    /// borrowed row view.
    pub fn for_each_live_row(&self, mut f: impl FnMut(RowLoc, RowRef<'_>) -> bool) -> bool {
        for idx in 0..self.total_rows {
            if self.is_deleted(idx) {
                continue;
            }
            if !f(RowLoc::from_index(idx), RowRef::Columnar { table: self, idx }) {
                return false;
            }
        }
        true
    }

    /// Tombstone a row. Idempotent errors: deleting a dead row is
    /// `RowNotFound`. Per-column live counts are folded out of the stats
    /// (the min/max range stays append-only; see [`ColumnStats`]).
    pub fn delete(&mut self, loc: RowLoc) -> Result<()> {
        self.delete_returning(loc).map(|_| ())
    }

    /// Tombstone a row and return its old values — fetch and delete as one
    /// atomic heap operation, so callers that must maintain indexes from
    /// the deleted row (`delete_by_pk`) never observe a row they then fail
    /// to delete.
    pub fn delete_returning(&mut self, loc: RowLoc) -> Result<Vec<Value>> {
        let idx = self.check_live(loc)?;
        let row: Vec<Value> = self.columns.iter().map(|c| c.get(idx)).collect();
        for (cid, v) in row.iter().enumerate() {
            self.stats[cid].observe_delete(v);
        }
        self.deleted[idx / 64] |= 1 << (idx % 64);
        self.live_rows -= 1;
        Ok(row)
    }

    /// Overwrite one cell of a live row.
    ///
    /// Note: column range statistics are append-only (min/max never
    /// shrink), which matches how real optimizer stats lag behind updates;
    /// live counts swap the old value for the new one.
    pub fn update(&mut self, loc: RowLoc, cid: ColumnId, v: Value) -> Result<()> {
        let idx = self.check_live(loc)?;
        let def = self.schema.column(cid)?;
        if v.is_null() && !def.nullable {
            return Err(StorageError::UnexpectedNull { column: cid });
        }
        self.stats[cid].observe_delete(&self.columns[cid].get(idx));
        self.columns[cid].set(idx, v);
        self.stats[cid].observe(&v);
        Ok(())
    }

    /// Direct access to a column (for scans / index construction).
    pub fn column(&self, cid: ColumnId) -> Result<&Column> {
        self.schema.column(cid)?;
        Ok(&self.columns[cid])
    }

    /// Incrementally-maintained statistics for a column.
    pub fn stats(&self, cid: ColumnId) -> Result<&ColumnStats> {
        self.schema.column(cid)?;
        Ok(&self.stats[cid])
    }

    /// Iterate live rows as `(RowLoc, row index)` pairs.
    pub fn scan(&self) -> impl Iterator<Item = RowLoc> + '_ {
        (0..self.total_rows).filter(move |&i| !self.is_deleted(i)).map(RowLoc::from_index)
    }

    /// Project two numeric columns (plus row locations) over all live rows,
    /// skipping rows where either side is NULL.
    ///
    /// This is the `ProjectTable` step of Algorithm 1: it materializes the
    /// temporary (target, host, tid) table that TRS-Tree construction
    /// consumes.
    pub fn project_pairs(
        &self,
        target: ColumnId,
        host: ColumnId,
    ) -> Result<Vec<(f64, f64, RowLoc)>> {
        self.schema.column(target)?;
        self.schema.column(host)?;
        let t = &self.columns[target];
        let h = &self.columns[host];
        let mut out = Vec::with_capacity(self.live_rows);
        for i in 0..self.total_rows {
            if self.is_deleted(i) {
                continue;
            }
            if let (Some(tv), Some(hv)) = (t.get_f64(i), h.get_f64(i)) {
                out.push((tv, hv, RowLoc::from_index(i)));
            }
        }
        Ok(out)
    }

    /// Project two numeric columns over live rows whose *target* value lies
    /// in `[lb, ub]`. Used by TRS-Tree structure reorganization, which
    /// re-scans only the affected value range.
    pub fn project_pairs_in_range(
        &self,
        target: ColumnId,
        host: ColumnId,
        lb: f64,
        ub: f64,
    ) -> Result<Vec<(f64, f64, RowLoc)>> {
        self.schema.column(target)?;
        self.schema.column(host)?;
        let t = &self.columns[target];
        let h = &self.columns[host];
        let mut out = Vec::new();
        for i in 0..self.total_rows {
            if self.is_deleted(i) {
                continue;
            }
            if let Some(tv) = t.get_f64(i) {
                if tv >= lb && tv <= ub {
                    if let Some(hv) = h.get_f64(i) {
                        out.push((tv, hv, RowLoc::from_index(i)));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Heap bytes held by the table (columns + tombstones). The paper's
    /// memory-breakdown figures report this alongside index sizes.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.memory_bytes()).sum::<usize>() + self.deleted.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("a"), ColumnDef::float_null("b")])
    }

    fn row(pk: i64, a: f64, b: Option<f64>) -> Vec<Value> {
        vec![Value::Int(pk), Value::Float(a), b.map_or(Value::Null, Value::Float)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = Table::new(schema());
        let l0 = t.insert(&row(1, 1.5, Some(2.5))).unwrap();
        let l1 = t.insert(&row(2, -1.0, None)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(l0).unwrap(), row(1, 1.5, Some(2.5)));
        assert_eq!(t.get(l1).unwrap()[2], Value::Null);
    }

    #[test]
    fn rowloc_encoding_roundtrip() {
        for idx in [0usize, 1, 4095, 4096, 4097, 1_000_000] {
            let loc = RowLoc::from_index(idx);
            assert_eq!(loc.index(), idx);
            assert_eq!(RowLoc::decode(loc.encode()), loc);
        }
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.insert(&[Value::Int(1)]),
            Err(StorageError::ArityMismatch { got: 1, expected: 3 })
        ));
        assert!(matches!(
            t.insert(&[Value::Float(1.0), Value::Float(1.0), Value::Null]),
            Err(StorageError::TypeMismatch { column: 0, .. })
        ));
        assert!(matches!(
            t.insert(&[Value::Int(1), Value::Null, Value::Null]),
            Err(StorageError::UnexpectedNull { column: 1 })
        ));
    }

    #[test]
    fn delete_tombstones_row() {
        let mut t = Table::new(schema());
        let l = t.insert(&row(1, 1.0, None)).unwrap();
        t.delete(l).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get(l).is_err());
        assert!(t.delete(l).is_err());
        // Inserting after delete appends a fresh row.
        let l2 = t.insert(&row(2, 2.0, None)).unwrap();
        assert_ne!(l, l2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_overwrites_cell() {
        let mut t = Table::new(schema());
        let l = t.insert(&row(1, 1.0, Some(5.0))).unwrap();
        t.update(l, 1, Value::Float(9.0)).unwrap();
        assert_eq!(t.value(l, 1).unwrap(), Value::Float(9.0));
        assert!(t.update(l, 1, Value::Null).is_err());
        t.update(l, 2, Value::Null).unwrap();
        assert!(t.value(l, 2).unwrap().is_null());
    }

    #[test]
    fn stats_track_range() {
        let mut t = Table::new(schema());
        t.insert(&row(1, 5.0, Some(1.0))).unwrap();
        t.insert(&row(2, -3.0, None)).unwrap();
        t.insert(&row(3, 8.0, Some(7.0))).unwrap();
        assert_eq!(t.stats(1).unwrap().range(), Some((-3.0, 8.0)));
        assert_eq!(t.stats(2).unwrap().null_count(), 1);
    }

    #[test]
    fn project_pairs_skips_nulls_and_deleted() {
        let mut t = Table::new(schema());
        let _ = t.insert(&row(1, 1.0, Some(10.0))).unwrap();
        let l = t.insert(&row(2, 2.0, None)).unwrap(); // NULL host → skipped
        let l3 = t.insert(&row(3, 3.0, Some(30.0))).unwrap();
        t.delete(l3).unwrap();
        let _ = l;
        let pairs = t.project_pairs(1, 2).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (1.0, 10.0));
    }

    #[test]
    fn project_pairs_in_range_filters_target() {
        let mut t = Table::new(schema());
        for i in 0..10 {
            t.insert(&row(i, i as f64, Some(i as f64 * 2.0))).unwrap();
        }
        let pairs = t.project_pairs_in_range(1, 2, 3.0, 6.0).unwrap();
        let targets: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(targets, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn scan_yields_live_rows_in_order() {
        let mut t = Table::new(schema());
        let locs: Vec<_> = (0..5).map(|i| t.insert(&row(i, i as f64, None)).unwrap()).collect();
        t.delete(locs[2]).unwrap();
        let scanned: Vec<_> = t.scan().collect();
        assert_eq!(scanned.len(), 4);
        assert!(!scanned.contains(&locs[2]));
    }

    #[test]
    fn for_each_live_row_streams_and_stops() {
        let mut t = Table::new(schema());
        let locs: Vec<_> = (0..6).map(|i| t.insert(&row(i, i as f64, None)).unwrap()).collect();
        t.delete(locs[1]).unwrap();
        let mut seen = Vec::new();
        let complete = t.for_each_live_row(|loc, r| {
            seen.push((loc, r.f64(1).unwrap()));
            true
        });
        assert!(complete);
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|(loc, _)| *loc != locs[1]));
        // Early stop after 2 rows.
        let mut n = 0;
        let complete = t.for_each_live_row(|_, _| {
            n += 1;
            n < 2
        });
        assert!(!complete);
        assert_eq!(n, 2);
    }

    #[test]
    fn memory_bytes_nonzero_after_inserts() {
        let mut t = Table::new(schema());
        for i in 0..100 {
            t.insert(&row(i, i as f64, Some(0.0))).unwrap();
        }
        assert!(t.memory_bytes() >= 100 * 3 * 8);
    }
}
