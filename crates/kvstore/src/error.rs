//! Error type for key-value operations.

use ech_core::ids::{ObjectId, VersionId};
use std::fmt;

/// Failure of a key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The key exists but holds a different type (Redis's `WRONGTYPE`).
    WrongType {
        /// What the operation expected.
        expected: &'static str,
        /// What the key actually holds.
        found: &'static str,
    },
    /// The shard holding the key is temporarily unavailable (injected by
    /// a fault hook; the real system's analogue is a Redis replica
    /// brown-out). Retryable.
    Unavailable {
        /// Index of the unavailable shard.
        shard: usize,
    },
    /// A snapshot handed to [`crate::KvStore::restore`] holds a header
    /// whose version does not fit a packed header
    /// ([`ech_core::dirty::PackedHeader::MAX_VERSION`]). The snapshot is
    /// refused whole: no version is truncated.
    VersionOutOfRange {
        /// The object the header belongs to.
        oid: ObjectId,
        /// Its out-of-range version.
        version: VersionId,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::WrongType { expected, found } => write!(
                f,
                "WRONGTYPE operation against a key holding the wrong kind of value \
                 (expected {expected}, found {found})"
            ),
            KvError::Unavailable { shard } => {
                write!(f, "shard {shard} is temporarily unavailable")
            }
            KvError::VersionOutOfRange { oid, version } => write!(
                f,
                "header of {oid} names {version}, beyond the largest version a header holds"
            ),
        }
    }
}

impl std::error::Error for KvError {}

/// Convenience result alias.
pub type KvResult<T> = Result<T, KvError>;
