//! Checkpoint catalog: the versioned on-disk root of a recoverable database.
//!
//! The paper's disk experiment (§7.8) assumes the base table survives on
//! storage; this module provides the metadata root that makes a paged
//! database actually reopenable. A **catalog** records everything the
//! in-memory side needs to reconstruct itself against the page file:
//!
//! * the table schema, primary-key column, and tuple-identifier scheme;
//! * the page directory (page ids in heap order) with per-page live-row
//!   counts and content CRCs — the integrity check: if a dirty frame never
//!   reached the device before a crash, the reopened page's bytes disagree
//!   with the catalog and recovery reports corruption instead of silently
//!   serving stale data;
//! * the page-allocation watermark (`next_page`), so recovery never hands
//!   out a page id a torn checkpoint may already have written;
//! * the secondary-index definitions, each behind an optional leading
//!   column (a composite index on `(leading, column)`): baseline columns
//!   with their "existing" accounting flag, Hermit `target → host` pairs
//!   with an opaque parameter blob the core layer encodes;
//! * the WAL epoch — the fence that pairs a catalog with exactly one WAL
//!   generation (see [`crate::wal`]).
//!
//! Catalogs are written atomically: serialize to a temp sibling, fsync it,
//! rename over the target, fsync the directory. A crash at any point leaves
//! either the old complete catalog or the new complete catalog, never a
//! torn one; a bit-flip is caught by the trailing CRC.
//!
//! Format, version 2 (little-endian; CRC-32/IEEE over everything after the
//! magic):
//!
//! ```text
//! magic "HMTC" | version u32 |
//! scheme u8 | pk_col u32 | wal_epoch u64 | next_page u64 |
//! ncols u16   | (ty u8, nullable u8, name_len u16, name bytes)* |
//! npages u32  | (page_id u64, live_rows u32, page_crc u32)* |
//! nbase u16   | (leading u32, column u32, existing u8)* |
//! nhermit u16 | (leading u32, target u32, host u32, blob_len u16, blob bytes)* |
//! crc32 u32
//! ```
//!
//! `leading` is `u32::MAX` for a single-column index. Version 1 — written
//! before composite indexes were catalogued — has no `leading` fields and
//! still decodes, every definition with `leading: None`.

use crate::fault::{fault_point, Io, Site};
use crate::schema::{ColumnDef, ColumnId, ColumnType, Schema};
use crate::tid::TidScheme;
use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"HMTC";
const VERSION: u32 = 2;
/// The version without `leading` fields: still read, never written.
const VERSION_SINGLE_COLUMN: u32 = 1;
/// The `leading` of a single-column index on disk.
const NO_LEADING: u32 = u32::MAX;

/// Errors produced by catalog and WAL encode/decode.
#[derive(Debug)]
pub enum RecoveryError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The input is not a catalog / WAL of ours.
    BadMagic,
    /// On-disk version newer than this build understands.
    UnsupportedVersion(u32),
    /// Structurally invalid input (truncation, CRC mismatch, bad tags).
    Corrupt(&'static str),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "i/o error: {e}"),
            RecoveryError::BadMagic => write!(f, "not a recognized recovery file"),
            RecoveryError::UnsupportedVersion(v) => write!(f, "unsupported on-disk version {v}"),
            RecoveryError::Corrupt(what) => write!(f, "corrupt recovery file: {what}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected), slice-by-8: eight table lookups fold
/// eight input bytes per step instead of one, with the same polynomial and
/// bit-identical output to the byte-at-a-time form. Tables built once,
/// lazily. Public: the WAL frames, the wire frames, the catalog body, and
/// the catalog's per-page content checks all use it — the last of these
/// over the whole heap at every checkpoint and reopen.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        // t[k][i] = CRC state after byte `i` followed by `k` zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Write `bytes` to `path` atomically: temp sibling, fsync, rename, then
/// fsync the parent directory so the rename itself is durable. Used for the
/// catalog and for TRS-Tree snapshot files.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Fault site before the temp write (crash leaves the old file intact,
    // possibly next to a stale `.tmp`)…
    let Some(io) = fault_point(Site::AtomicWrite)? else {
        return Ok(());
    };
    SyncedTemp::write(path, bytes, &io)?.rename_into_place()
}

/// A temp sibling of `path` whose bytes are on the device — the only file
/// [`rename_into_place`](Self::rename_into_place) publishes, so a rename
/// cannot precede the fsync that makes it safe.
struct SyncedTemp<'p> {
    tmp: PathBuf,
    path: &'p Path,
}

impl<'p> SyncedTemp<'p> {
    /// Write `bytes` to `path`'s temp sibling and fsync it.
    fn write(path: &'p Path, bytes: &[u8], io: &Io) -> io::Result<Self> {
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        io.write_all(&mut file, bytes)?;
        io.sync_all(&file)?;
        Ok(SyncedTemp { tmp, path })
    }

    /// Rename the temp file over `path` and fsync the directory. The fault
    /// site sits before the rename: a crash there leaves a complete but
    /// unpublished temp sibling, since the commit point is the rename
    /// itself.
    fn rename_into_place(self) -> io::Result<()> {
        fault_point(Site::AtomicRename)?;
        #[expect(clippy::disallowed_methods, reason = "the rename of a synced temp file")]
        std::fs::rename(&self.tmp, self.path)?;
        sync_dir(self.path.parent().unwrap_or_else(|| Path::new(".")));
        Ok(())
    }
}

/// fsync a directory so a rename inside it survives a crash. Best-effort:
/// not every platform allows opening a directory for sync.
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        #[expect(
            clippy::let_underscore_must_use,
            clippy::disallowed_methods,
            reason = "best-effort directory sync, no fault site: the result is ignored by design, \
                      since some platforms refuse to open directories for fsync, so an injected \
                      fault would look like one of them"
        )]
        let _ = d.sync_all();
    }
}

/// One heap page's entry in the catalog directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Page id in the store.
    pub page: u64,
    /// Live (non-tombstoned) rows at checkpoint time.
    pub live_rows: u32,
    /// CRC-32 of the page's full 8 KiB image at checkpoint time. Recovery
    /// verifies it when no post-checkpoint DML exists — any byte the
    /// device dropped shows up as a mismatch.
    pub crc: u32,
}

/// A baseline B+-tree index definition recorded in the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDef {
    /// Leading column of a composite `(leading, column)` index; `None` for
    /// a single-column one.
    pub leading: Option<ColumnId>,
    /// Indexed column.
    pub column: ColumnId,
    /// Whether the index is charged to "existing indexes" in breakdowns.
    pub existing: bool,
}

/// A Hermit index definition recorded in the catalog. The TRS-Tree itself
/// is checkpointed separately (its snapshot file is named by the catalog's
/// `wal_epoch`); the parameter blob lets the core layer rebuild the tree
/// from a heap scan when the snapshot is missing or torn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HermitDef {
    /// Leading column of a composite `(leading, target)` index, shared with
    /// its `(leading, host)` baseline; `None` for a single-column one.
    pub leading: Option<ColumnId>,
    /// Indexed (target) column.
    pub target: ColumnId,
    /// Host column whose baseline index serves the second hop.
    pub host: ColumnId,
    /// Opaque TRS parameter encoding (`TrsParams::to_bytes`, owned by the
    /// TRS layer; the catalog only round-trips it), so an index whose
    /// snapshot is lost is rebuilt with the parameters it was created with.
    pub params: Vec<u8>,
}

/// The checkpointed metadata root of one database. See the module docs for
/// the on-disk format.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Table schema.
    pub schema: Schema,
    /// Primary-key column.
    pub pk_col: ColumnId,
    /// Tuple-identifier scheme.
    pub scheme: TidScheme,
    /// WAL generation this catalog pairs with: only a WAL whose header
    /// carries the same epoch is replayed on top of this checkpoint.
    pub wal_epoch: u64,
    /// Page-allocation watermark at checkpoint time.
    pub next_page: u64,
    /// Heap pages in directory order, with their live counts and CRCs.
    pub pages: Vec<PageEntry>,
    /// Baseline secondary indexes to rebuild by heap scan.
    pub baselines: Vec<BaselineDef>,
    /// Hermit secondary indexes to restore from snapshots (or rebuild).
    pub hermits: Vec<HermitDef>,
}

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn leading(&mut self, leading: Option<ColumnId>) {
        self.u32(leading.map_or(NO_LEADING, |c| c as u32));
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        if self.pos + n > self.buf.len() {
            return Err(RecoveryError::Corrupt("truncated catalog"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, RecoveryError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, RecoveryError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, RecoveryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, RecoveryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A definition's leading column: absent from a version-1 catalog.
    fn leading(&mut self, version: u32) -> Result<Option<ColumnId>, RecoveryError> {
        if version == VERSION_SINGLE_COLUMN {
            return Ok(None);
        }
        Ok(match self.u32()? {
            NO_LEADING => None,
            c => Some(c as ColumnId),
        })
    }
}

impl Catalog {
    /// Serialize the catalog (magic + body + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc(Vec::with_capacity(256));
        e.u32(VERSION);
        e.u8(match self.scheme {
            TidScheme::Logical => 0,
            TidScheme::Physical => 1,
        });
        e.u32(self.pk_col as u32);
        e.u64(self.wal_epoch);
        e.u64(self.next_page);
        e.u16(self.schema.width() as u16);
        for col in self.schema.columns() {
            e.u8(match col.ty {
                ColumnType::Int => 0,
                ColumnType::Float => 1,
            });
            e.u8(u8::from(col.nullable));
            e.u16(col.name.len() as u16);
            e.0.extend_from_slice(col.name.as_bytes());
        }
        e.u32(self.pages.len() as u32);
        for entry in &self.pages {
            e.u64(entry.page);
            e.u32(entry.live_rows);
            e.u32(entry.crc);
        }
        e.u16(self.baselines.len() as u16);
        for b in &self.baselines {
            e.leading(b.leading);
            e.u32(b.column as u32);
            e.u8(u8::from(b.existing));
        }
        e.u16(self.hermits.len() as u16);
        for h in &self.hermits {
            e.leading(h.leading);
            e.u32(h.target as u32);
            e.u32(h.host as u32);
            e.u16(h.params.len() as u16);
            e.0.extend_from_slice(&h.params);
        }
        let body = e.0;
        let mut out = Vec::with_capacity(4 + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parse a catalog, verifying magic, CRC, and version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Catalog, RecoveryError> {
        if bytes.len() < 4 + 4 + 4 {
            return Err(RecoveryError::Corrupt("catalog too short"));
        }
        if &bytes[..4] != MAGIC {
            return Err(RecoveryError::BadMagic);
        }
        let body = &bytes[4..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return Err(RecoveryError::Corrupt("catalog CRC mismatch"));
        }
        let mut d = Dec { buf: body, pos: 0 };
        let version = d.u32()?;
        if version != VERSION && version != VERSION_SINGLE_COLUMN {
            return Err(RecoveryError::UnsupportedVersion(version));
        }
        let scheme = match d.u8()? {
            0 => TidScheme::Logical,
            1 => TidScheme::Physical,
            _ => return Err(RecoveryError::Corrupt("bad tid scheme")),
        };
        let pk_col = d.u32()? as ColumnId;
        let wal_epoch = d.u64()?;
        let next_page = d.u64()?;
        let ncols = d.u16()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let ty = match d.u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Float,
                _ => return Err(RecoveryError::Corrupt("bad column type")),
            };
            let nullable = d.u8()? != 0;
            let name_len = d.u16()? as usize;
            let name = std::str::from_utf8(d.take(name_len)?)
                .map_err(|_| RecoveryError::Corrupt("column name not utf-8"))?
                .to_string();
            columns.push(ColumnDef { name, ty, nullable });
        }
        let schema = Schema::new(columns);
        if pk_col >= schema.width() {
            return Err(RecoveryError::Corrupt("pk column out of range"));
        }
        let npages = d.u32()? as usize;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let page = d.u64()?;
            if page >= next_page {
                return Err(RecoveryError::Corrupt("page id past the watermark"));
            }
            pages.push(PageEntry { page, live_rows: d.u32()?, crc: d.u32()? });
        }
        let nbase = d.u16()? as usize;
        let mut baselines = Vec::with_capacity(nbase);
        let in_schema = |c: &ColumnId| *c < schema.width();
        for _ in 0..nbase {
            let leading = d.leading(version)?;
            let column = d.u32()? as ColumnId;
            if !in_schema(&column) || !leading.is_none_or(|l| in_schema(&l)) {
                return Err(RecoveryError::Corrupt("baseline column out of range"));
            }
            baselines.push(BaselineDef { leading, column, existing: d.u8()? != 0 });
        }
        let nhermit = d.u16()? as usize;
        let mut hermits = Vec::with_capacity(nhermit);
        for _ in 0..nhermit {
            let leading = d.leading(version)?;
            let target = d.u32()? as ColumnId;
            let host = d.u32()? as ColumnId;
            if !in_schema(&target) || !in_schema(&host) || !leading.is_none_or(|l| in_schema(&l)) {
                return Err(RecoveryError::Corrupt("hermit column out of range"));
            }
            let blob_len = d.u16()? as usize;
            let params = d.take(blob_len)?.to_vec();
            hermits.push(HermitDef { leading, target, host, params });
        }
        if d.pos != body.len() {
            return Err(RecoveryError::Corrupt("trailing bytes after catalog body"));
        }
        Ok(Catalog { schema, pk_col, scheme, wal_epoch, next_page, pages, baselines, hermits })
    }

    /// Write the catalog to `path` atomically (temp + fsync + rename +
    /// directory fsync).
    pub fn write_atomic(&self, path: &Path) -> Result<(), RecoveryError> {
        write_file_atomic(path, &self.to_bytes())?;
        Ok(())
    }

    /// Read and validate a catalog file.
    pub fn read(path: &Path) -> Result<Catalog, RecoveryError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        Catalog {
            schema: Schema::new(vec![
                ColumnDef::int("pk"),
                ColumnDef::float("host"),
                ColumnDef::float_null("target"),
            ]),
            pk_col: 0,
            scheme: TidScheme::Physical,
            wal_epoch: 7,
            next_page: 12,
            pages: vec![
                PageEntry { page: 0, live_rows: 290, crc: 0xDEAD_BEEF },
                PageEntry { page: 1, live_rows: 290, crc: 0x1234_5678 },
                PageEntry { page: 2, live_rows: 17, crc: 0 },
            ],
            baselines: vec![
                BaselineDef { leading: None, column: 1, existing: true },
                BaselineDef { leading: Some(0), column: 1, existing: false },
            ],
            hermits: vec![
                HermitDef { leading: None, target: 2, host: 1, params: vec![1, 2, 3, 4] },
                HermitDef { leading: Some(0), target: 2, host: 1, params: vec![5, 6] },
            ],
        }
    }

    /// `body` (everything between the magic and the CRC) framed as a
    /// catalog file.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// A version-1 catalog — written by hand, field by field, as a build
    /// before composite indexes wrote it — decodes with `leading: None` on
    /// every definition. Version 3 is still refused.
    #[test]
    fn a_version_1_catalog_decodes_to_single_column_definitions() {
        let mut e = Enc(Vec::new());
        e.u32(1); // version
        e.u8(1); // physical
        e.u32(0); // pk_col
        e.u64(7); // wal_epoch
        e.u64(3); // next_page
        e.u16(3);
        for (ty, name) in [(0u8, "pk"), (1, "host"), (1, "target")] {
            e.u8(ty);
            e.u8(0);
            e.u16(name.len() as u16);
            e.0.extend_from_slice(name.as_bytes());
        }
        e.u32(1);
        e.u64(2); // page 2
        e.u32(17);
        e.u32(0xABCD);
        e.u16(2); // two baselines: (column, existing)
        e.u32(1);
        e.u8(1);
        e.u32(2);
        e.u8(0);
        e.u16(1); // one Hermit index: (target, host, blob)
        e.u32(2);
        e.u32(1);
        e.u16(2);
        e.0.extend_from_slice(&[9, 8]);
        let catalog = Catalog::from_bytes(&framed(&e.0)).unwrap();
        assert_eq!(
            catalog.baselines,
            [
                BaselineDef { leading: None, column: 1, existing: true },
                BaselineDef { leading: None, column: 2, existing: false },
            ]
        );
        assert_eq!(
            catalog.hermits,
            [HermitDef { leading: None, target: 2, host: 1, params: vec![9, 8] }]
        );
        assert_eq!((catalog.wal_epoch, catalog.next_page, catalog.schema.width()), (7, 3, 3));
        assert_eq!(catalog.pages, [PageEntry { page: 2, live_rows: 17, crc: 0xABCD }]);

        let mut v3 = e.0.clone();
        v3[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Catalog::from_bytes(&framed(&v3)),
            Err(RecoveryError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn catalog_roundtrip() {
        let c = sample();
        let back = Catalog::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn catalog_file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("hermit-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.bin");
        let c = sample();
        c.write_atomic(&path).unwrap();
        // A leftover torn temp sibling (crash mid-write of a *later*
        // checkpoint) must not affect reads of the committed catalog.
        std::fs::write(path.with_extension("tmp"), b"garbage").unwrap();
        assert_eq!(Catalog::read(&path).unwrap(), c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_catalogs_rejected() {
        let c = sample();
        let bytes = c.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(Catalog::from_bytes(&bad), Err(RecoveryError::BadMagic)));
        // Any single-byte corruption trips the CRC.
        for i in [5, 20, bytes.len() / 2, bytes.len() - 6] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(Catalog::from_bytes(&bad), Err(RecoveryError::Corrupt(_))),
                "flip at {i} must be caught"
            );
        }
        // Truncation at every prefix length fails cleanly.
        for len in 0..bytes.len() {
            assert!(Catalog::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time form `crc32` replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_is_bit_identical_to_the_byte_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        };
        // Every length around the 8-byte stride, at every alignment of the
        // tail…
        let short: Vec<u8> = (0..64).map(|_| next()).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&short[..len]), crc32_bytewise(&short[..len]), "length {len}");
        }
        // …and whole pages, the size the checkpoint path feeds it.
        for round in 0..4 {
            let page: Vec<u8> = (0..8192).map(|_| next()).collect();
            assert_eq!(crc32(&page), crc32_bytewise(&page), "8 KiB page {round}");
        }
    }
}
