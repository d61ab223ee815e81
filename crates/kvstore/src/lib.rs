//! # ech-kvstore — a Redis-like sharded in-memory key-value store
//!
//! The paper stores its dirty table in Redis, "an in-memory key-value
//! store", using the LIST data type: `RPUSH` to insert dirty entries,
//! `LRANGE` to fetch without removal at partial-power versions, and
//! `LPOP` to consume entries at full power (§IV). The table itself "is
//! maintained in a distributed key-value store across the storage servers
//! to balance the storage usage and the lookup load" (§III-E2).
//!
//! This crate is that substrate, built from scratch:
//!
//! * **Sharded** — keys are routed to shards by the same consistent-
//!   hashing ring the data path uses, so storage and lookup load spread
//!   across shards like objects across servers.
//! * **Thread-safe** — each shard holds its own `RwLock`; disjoint keys
//!   never contend. Share as `Arc<KvStore>`.
//! * **Redis-flavoured key space** — LIST (`RPUSH`, `LPOP` with a count)
//!   and HASH (`HSET`/`HGET`) with Redis's `WRONGTYPE` error semantics.
//! * **Object-header records** — a typed `ObjectId → ObjectHeader` table
//!   sharded by a hash of the object id (`header_put`/`header_get`/
//!   `header_len`/`header_ids`): the one record family every put and get
//!   touches needs no key string, and its load spreads over all shards.
//! * **The dirty log** — the dirty table as a typed FIFO of
//!   `DirtyEntry` records with the LIST verbs the paper uses
//!   (`dirty_push` = RPUSH, `dirty_range` = LRANGE, `dirty_pop_n` = LPOP
//!   with a count, `dirty_len` = LLEN), served by the shard its LIST key
//!   would hash to: every write below full power appends one entry, and
//!   none is formatted or parsed.
//!
//! `ech-cluster` layers the distributed dirty table (the dirty log) and
//! the object-header store (the header records) on top of this store.
//!
//! ```
//! use ech_core::dirty::DirtyEntry;
//! use ech_core::ids::{ObjectId, VersionId};
//! use ech_kvstore::KvStore;
//!
//! let kv = KvStore::new(8);
//! kv.dirty_push(DirtyEntry::new(ObjectId(10010), VersionId(9))).unwrap();
//! kv.dirty_push(DirtyEntry::new(ObjectId(20400), VersionId(9))).unwrap();
//! assert_eq!(kv.dirty_len().unwrap(), 2);
//! let head = kv.dirty_pop_n(1).unwrap();
//! assert_eq!(head, [DirtyEntry::new(ObjectId(10010), VersionId(9))]);
//! ```

mod error;
mod store;
mod value;

pub use error::{KvError, KvResult};
pub use store::{KvStore, ShardFaultHook, Snapshot};
pub use value::Value;
