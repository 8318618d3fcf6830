//! Fixed-size pages holding fixed-width records.
//!
//! Pages are 8 KiB (PostgreSQL's default block size). Because every table in
//! the paper's evaluation consists of fixed-width 8-byte numeric columns, we
//! use a fixed-width record layout rather than a general slotted layout: a
//! small header, a delete bitmap, and a dense record array. This keeps the
//! substrate simple while preserving the property the experiments care
//! about — a tuple fetch costs a page access.

use crate::error::StorageError;
use crate::Result;

/// Page size in bytes. Matches PostgreSQL's default 8 KiB block.
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header:
/// `[record_width: u16][count: u16][capacity: u16]`.
const HEADER_BYTES: usize = 8;

/// Identifier of a page within a store.
pub type PageId = u64;

/// An 8 KiB page of fixed-width records.
///
/// Layout:
/// ```text
/// [0..2)   record width in bytes (u16 LE)
/// [2..4)   record count (u16 LE)
/// [4..6)   capacity in records (u16 LE; 0 in an image written before it
///          was kept — read as `capacity_for(width)`)
/// [6..8)   reserved
/// [8..8+B) delete bitmap, B = ceil(capacity/8) rounded to 8
/// [.. ]    records, densely packed
/// ```
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("record_width", &self.record_width())
            .field("count", &self.count())
            .finish()
    }
}

impl Page {
    /// A zeroed page formatted for records of `record_width` bytes.
    pub fn new(record_width: u16) -> Self {
        let mut page = Page::zeroed();
        page.format(record_width);
        page
    }

    /// An all-zero page image: a buffer for [`PageStore::read_into`] to
    /// fill, not a formatted page (it holds no records of any width).
    ///
    /// [`PageStore::read_into`]: super::io::PageStore::read_into
    pub fn zeroed() -> Self {
        Page { buf: Box::new([0u8; PAGE_SIZE]) }
    }

    /// Reformat this buffer in place as an empty page of `record_width`-byte
    /// records — [`new`](Self::new) without the allocation, for recycled
    /// buffer-pool frames.
    pub fn format(&mut self, record_width: u16) {
        assert!(record_width > 0, "record width must be positive");
        assert!(
            (record_width as usize) <= PAGE_SIZE - HEADER_BYTES - 8,
            "record too wide for a page"
        );
        self.buf.fill(0);
        self.buf[0..2].copy_from_slice(&record_width.to_le_bytes());
        self.buf[4..6].copy_from_slice(&Self::capacity_for(record_width).to_le_bytes());
    }

    /// Rehydrate a page from raw bytes (as read from a store).
    pub fn from_bytes(bytes: &[u8; PAGE_SIZE]) -> Self {
        Page { buf: Box::new(*bytes) }
    }

    /// Raw bytes (for writing to a store).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Raw bytes, writable: what a [`PageStore`](super::io::PageStore)
    /// reads a page image into.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    /// Width of each record in bytes.
    #[inline]
    pub fn record_width(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }

    /// Number of record slots currently used (live + tombstoned).
    #[inline]
    pub fn count(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    fn set_count(&mut self, n: u16) {
        self.buf[2..4].copy_from_slice(&n.to_le_bytes());
    }

    /// Maximum number of records this page can hold: kept in the header,
    /// so a record lookup divides nothing.
    #[inline]
    pub fn capacity(&self) -> u16 {
        match u16::from_le_bytes([self.buf[4], self.buf[5]]) {
            0 => Self::capacity_for(self.record_width()),
            capacity => capacity,
        }
    }

    /// Slots a page of `record_width`-byte records holds.
    #[inline]
    pub fn capacity_for(record_width: u16) -> u16 {
        // Solve: HEADER + ceil(cap/8) + cap*w <= PAGE_SIZE. Use the
        // conservative bound with a full byte per 8 records.
        let usable = PAGE_SIZE - HEADER_BYTES;
        // cap*(w + 1/8) <= usable  →  cap <= usable*8/(8w+1)
        ((usable * 8) / (8 * record_width as usize + 1)) as u16
    }

    /// Byte offset of `slot`'s record in a page of `record_width`-byte
    /// records — where a read of that one record starts, without the page.
    #[inline]
    pub fn slot_offset(record_width: u16, slot: u16) -> usize {
        let bitmap_bytes = (Self::capacity_for(record_width) as usize).div_ceil(8);
        HEADER_BYTES + bitmap_bytes + slot as usize * record_width as usize
    }

    #[inline]
    fn record_offset(&self, slot: u16) -> usize {
        let bitmap_bytes = (self.capacity() as usize).div_ceil(8);
        HEADER_BYTES + bitmap_bytes + slot as usize * self.record_width() as usize
    }

    /// True if the slot holds a tombstoned record.
    #[inline]
    pub fn is_deleted(&self, slot: u16) -> bool {
        let bit = slot as usize;
        (self.buf[HEADER_BYTES + bit / 8] >> (bit % 8)) & 1 == 1
    }

    /// Append a record; returns its slot, or `PageFull`.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        assert_eq!(record.len(), self.record_width() as usize, "record width mismatch");
        let slot = self.count();
        if slot >= self.capacity() {
            return Err(StorageError::PageFull);
        }
        let off = self.record_offset(slot);
        self.buf[off..off + record.len()].copy_from_slice(record);
        self.set_count(slot + 1);
        Ok(slot)
    }

    /// Read a live record by slot.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.count() || self.is_deleted(slot) {
            return Err(StorageError::SlotNotFound { slot });
        }
        let off = self.record_offset(slot);
        Ok(&self.buf[off..off + self.record_width() as usize])
    }

    /// Overwrite a live record in place.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        assert_eq!(record.len(), self.record_width() as usize, "record width mismatch");
        if slot >= self.count() || self.is_deleted(slot) {
            return Err(StorageError::SlotNotFound { slot });
        }
        let off = self.record_offset(slot);
        self.buf[off..off + record.len()].copy_from_slice(record);
        Ok(())
    }

    /// Tombstone a record.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.count() || self.is_deleted(slot) {
            return Err(StorageError::SlotNotFound { slot });
        }
        let bit = slot as usize;
        self.buf[HEADER_BYTES + bit / 8] |= 1 << (bit % 8);
        Ok(())
    }

    /// True if no more records fit.
    pub fn is_full(&self) -> bool {
        self.count() >= self.capacity()
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.count()).filter_map(move |s| self.get(s).ok().map(|r| (s, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new(16);
        let rec = [7u8; 16];
        let slot = p.insert(&rec).unwrap();
        assert_eq!(p.get(slot).unwrap(), &rec);
        assert_eq!(p.count(), 1);
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut p = Page::new(32);
        let cap = p.capacity();
        assert!(cap > 200, "8KiB page should hold >200 32-byte records, got {cap}");
        for i in 0..cap {
            let rec = [(i % 251) as u8; 32];
            p.insert(&rec).unwrap();
        }
        assert!(p.is_full());
        assert!(matches!(p.insert(&[0u8; 32]), Err(StorageError::PageFull)));
        // Spot-check contents survived.
        assert_eq!(p.get(cap - 1).unwrap()[0], ((cap - 1) % 251) as u8);
    }

    #[test]
    fn capacity_fits_in_page() {
        for w in [8u16, 16, 24, 32, 40, 64, 200, 1608] {
            let p = Page::new(w);
            let cap = p.capacity() as usize;
            let bitmap = cap.div_ceil(8);
            assert!(
                HEADER_BYTES + bitmap + cap * w as usize <= PAGE_SIZE,
                "width {w}: capacity {cap} overflows the page"
            );
        }
    }

    #[test]
    fn delete_tombstones_slot() {
        let mut p = Page::new(8);
        let s0 = p.insert(&1u64.to_le_bytes()).unwrap();
        let s1 = p.insert(&2u64.to_le_bytes()).unwrap();
        p.delete(s0).unwrap();
        assert!(p.get(s0).is_err());
        assert!(p.delete(s0).is_err());
        assert_eq!(p.get(s1).unwrap(), &2u64.to_le_bytes());
        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![s1]);
    }

    #[test]
    fn update_rewrites_record() {
        let mut p = Page::new(8);
        let s = p.insert(&1u64.to_le_bytes()).unwrap();
        p.update(s, &9u64.to_le_bytes()).unwrap();
        assert_eq!(p.get(s).unwrap(), &9u64.to_le_bytes());
        assert!(p.update(5, &0u64.to_le_bytes()).is_err());
    }

    #[test]
    fn format_recycles_a_used_buffer_into_an_empty_page() {
        let mut p = Page::new(24);
        for i in 0..10u8 {
            p.insert(&[i; 24]).unwrap();
        }
        p.delete(3).unwrap();
        p.format(16);
        assert_eq!(p.as_bytes(), Page::new(16).as_bytes(), "no trace of the old image");
        assert_eq!(p.insert(&[1u8; 16]).unwrap(), 0);
    }

    #[test]
    fn slot_offset_locates_a_record_without_the_page() {
        for w in [8u16, 27, 36, 200] {
            let mut p = Page::new(w);
            for i in 0..5u8 {
                p.insert(&vec![i + 1; w as usize]).unwrap();
            }
            for slot in 0..5u16 {
                let off = Page::slot_offset(w, slot);
                assert_eq!(&p.as_bytes()[off..off + w as usize], p.get(slot).unwrap());
            }
        }
    }

    /// An image written before the header kept the capacity (zeros at
    /// `[4..6)`) reads as one that keeps it.
    #[test]
    fn an_image_without_a_kept_capacity_reads_the_same() {
        for w in [8u16, 27, 162] {
            let mut p = Page::new(w);
            for i in 0..5u8 {
                p.insert(&vec![i + 1; w as usize]).unwrap();
            }
            p.delete(2).unwrap();
            assert_eq!(p.capacity(), Page::capacity_for(w));
            let mut old = *p.as_bytes();
            old[4..6].fill(0);
            let old = Page::from_bytes(&old);
            assert_eq!(old.capacity(), p.capacity());
            assert_eq!(old.iter().collect::<Vec<_>>(), p.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn byte_roundtrip_preserves_content() {
        let mut p = Page::new(24);
        for i in 0..10u8 {
            p.insert(&[i; 24]).unwrap();
        }
        p.delete(3).unwrap();
        let q = Page::from_bytes(p.as_bytes());
        assert_eq!(q.count(), 10);
        assert!(q.is_deleted(3));
        assert_eq!(q.get(7).unwrap(), &[7u8; 24]);
    }
}
