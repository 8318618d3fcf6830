//! Build the durable database a workload serves from: load the generated
//! table, build the host B+-tree and the Hermit index, checkpoint.

use crate::gen::{Dataset, HOST, PK, TARGET};
use hermit_core::{Database, DurabilityConfig};
use hermit_storage::{ColumnDef, Schema};
use std::path::Path;

pub fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("pk"),
        ColumnDef::float("host"),
        ColumnDef::float("target"),
        ColumnDef::float("payload"),
    ])
}

/// What the build reports about the index the paper is about.
pub struct Built {
    /// Bytes of the Hermit index on `target` per loaded row.
    pub index_bytes_per_row: f64,
}

/// Create `dir`, load `data` in its shuffled order, index, checkpoint.
pub fn build_database(dir: &Path, data: &Dataset) -> Result<Built, String> {
    // The load is not a measured write path: keep its WAL tail unsynced, the
    // checkpoint below is what makes it durable.
    let config = DurabilityConfig { wal_sync_every: usize::MAX, ..Default::default() };
    let mut db = Database::create_durable(schema(), PK, dir, &config)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    for pk in 0..data.loaded_rows() {
        db.insert(&data.loaded_row(pk)).map_err(|e| format!("load row {pk}: {e}"))?;
    }
    db.create_baseline_index(HOST, true).map_err(|e| format!("host index: {e}"))?;
    db.create_hermit_index(TARGET, HOST).map_err(|e| format!("hermit index: {e}"))?;
    db.checkpoint(dir).map_err(|e| format!("checkpoint: {e}"))?;
    let index_bytes = db.memory_report().new_indexes;
    Ok(Built { index_bytes_per_row: index_bytes as f64 / data.loaded_rows() as f64 })
}

/// Bytes of every regular file directly inside `dir` (data directories are flat).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
