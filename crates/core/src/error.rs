//! Typed errors for database-level operations.
//!
//! Storage-layer failures pass through as [`CoreError::Storage`]; the
//! variants above it capture preconditions that only exist at the database
//! layer (the paper's §3 requirement that a Hermit index routes to a host
//! column whose complete index already exists).

use hermit_storage::{ColumnId, StorageError};
use std::fmt;

/// Errors produced by [`crate::Database`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A Hermit index was requested on `target` (behind `leading`, for a
    /// composite) routed through `host`, but no baseline B+-tree exists at
    /// `(leading, host)` (the paper's precondition: the TRS-Tree's second
    /// hop needs a complete index to probe).
    MissingHostIndex {
        /// Leading column of the requested index; `None` for one column.
        leading: Option<ColumnId>,
        /// Column the Hermit index was requested on.
        target: ColumnId,
        /// Host column that lacks a baseline index.
        host: ColumnId,
    },
    /// A durability operation (checkpoint, open, WAL commit) was requested
    /// on a database that cannot support it — one whose heap store is not
    /// the directory's page file (an in-memory database has no file at all).
    NotDurable {
        /// Why the database cannot be checkpointed / reopened.
        reason: &'static str,
    },
    /// Checkpoint or recovery failed: a torn checkpoint was detected, an
    /// on-disk structure is corrupt, or the recovery files are unreadable.
    Recovery(String),
    /// A transactional operation referenced an id that is not open (never
    /// begun, or already committed / rolled back).
    UnknownTxn {
        /// The offending transaction id.
        txn: u64,
    },
    /// A checkpoint was refused because transactions are still open: the
    /// checkpoint would bake their uncommitted (physically applied) writes
    /// into the new epoch while discarding the WAL records recovery needs
    /// to roll them back. Finish or abort the transactions first.
    OpenTransactions {
        /// Number of open transactions at refusal time.
        active: usize,
    },
    /// An underlying storage operation failed.
    Storage(StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingHostIndex { leading: None, target, host } => write!(
                f,
                "cannot build a Hermit index on column {target}: host column {host} has no \
                 baseline index to route through"
            ),
            CoreError::MissingHostIndex { leading: Some(leading), target, host } => write!(
                f,
                "cannot build a Hermit index on (leading={leading}, {target}): no composite \
                 baseline index on (leading={leading}, host={host}) to route through"
            ),
            CoreError::NotDurable { reason } => write!(f, "database is not durable: {reason}"),
            CoreError::Recovery(what) => write!(f, "recovery failed: {what}"),
            CoreError::UnknownTxn { txn } => write!(f, "transaction {txn} is not open"),
            CoreError::OpenTransactions { active } => write!(
                f,
                "checkpoint refused: {active} transaction(s) still open; commit or roll them \
                 back first"
            ),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<hermit_storage::RecoveryError> for CoreError {
    fn from(e: hermit_storage::RecoveryError) -> Self {
        CoreError::Recovery(e.to_string())
    }
}

impl From<hermit_txn::TxnError> for CoreError {
    fn from(e: hermit_txn::TxnError) -> Self {
        match e {
            // A write-write conflict is a storage-class failure: callers
            // (and the wire protocol) already classify `WriteConflict` as
            // retryable, which is exactly the first-writer-wins contract.
            hermit_txn::TxnError::Conflict { pk } => {
                CoreError::Storage(StorageError::WriteConflict { pk })
            }
            hermit_txn::TxnError::UnknownTxn { txn } => CoreError::UnknownTxn { txn },
        }
    }
}

/// Result alias for database-level operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = CoreError::MissingHostIndex { leading: None, target: 2, host: 1 };
        assert!(e.to_string().contains("host column 1"));
        let e = CoreError::MissingHostIndex { leading: Some(0), target: 2, host: 1 };
        assert!(e.to_string().contains("(leading=0, host=1)"));
        let e = CoreError::MissingHostIndex { leading: None, target: 2, host: 1 };
        assert!(e.to_string().contains("host column 1"));
        let e: CoreError = StorageError::PageFull.into();
        assert!(matches!(e, CoreError::Storage(StorageError::PageFull)));
        assert!(e.to_string().contains("page full"));
    }
}
