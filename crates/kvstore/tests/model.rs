//! Model-based property test: the sharded store must behave exactly like
//! a single flat map of Redis values, plus one ordered map of object
//! headers and one FIFO of dirty entries, under any operation sequence —
//! including a dump → restore into a different shard count in the
//! middle of it.

use bytes::Bytes;
use ech_core::dirty::{DirtyEntry, ObjectHeader};
use ech_core::ids::{ObjectId, VersionId};
use ech_kvstore::{KvError, KvStore};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

#[derive(Debug, Clone)]
enum Op {
    Rpush(u8, String),
    LpopN(u8, usize),
    Hset(u8, u8, String),
    Hget(u8, u8),
    HeaderPut(u8, u8, bool),
    HeaderGet(u8),
    HeaderLen,
    HeaderIds,
    DirtyPush(u8, u8),
    DirtyRange(usize, usize),
    DirtyPopN(usize),
    DirtyLen,
    /// Dump, restore over this many shards.
    Reshard(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u8..6; // few keys => lots of cross-type collisions
    let val = "[a-z]{0,6}";
    prop_oneof![
        (key.clone(), val).prop_map(|(k, v)| Op::Rpush(k, v)),
        (key.clone(), 0usize..4).prop_map(|(k, n)| Op::LpopN(k, n)),
        (key.clone(), 0u8..4, val).prop_map(|(k, f, v)| Op::Hset(k, f, v)),
        (key, 0u8..4).prop_map(|(k, f)| Op::Hget(k, f)),
        (0u8..12, 0u8..5, 0u8..2).prop_map(|(o, v, d)| Op::HeaderPut(o, v, d == 1)),
        (0u8..12).prop_map(Op::HeaderGet),
        Just(Op::HeaderLen),
        Just(Op::HeaderIds),
        // Listed twice: pushes outnumber pops, so a reshard usually finds
        // entries in the log.
        (0u8..12, 0u8..5).prop_map(|(o, v)| Op::DirtyPush(o, v)),
        (0u8..12, 0u8..5).prop_map(|(o, v)| Op::DirtyPush(o, v)),
        (0usize..10, 0usize..6).prop_map(|(s, c)| Op::DirtyRange(s, c)),
        (0usize..4).prop_map(Op::DirtyPopN),
        Just(Op::DirtyLen),
        (1usize..9).prop_map(Op::Reshard),
    ]
}

/// Reference model of one key's value.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    List(VecDeque<Bytes>),
    Hash(HashMap<String, Bytes>),
}

fn is_wrong_type<T>(r: &Result<T, KvError>) -> bool {
    matches!(r, Err(KvError::WrongType { .. }))
}

fn key(k: u8) -> String {
    format!("key-{k}")
}

fn field(f: u8) -> String {
    format!("field-{f}")
}

fn oid(o: u8) -> ObjectId {
    ObjectId(u64::from(o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_flat_model(ops in proptest::collection::vec(op_strategy(), 1..120), shards in 1usize..9) {
        let mut kv = KvStore::new(shards);
        let mut model: HashMap<String, Model> = HashMap::new();
        let mut headers: BTreeMap<ObjectId, ObjectHeader> = BTreeMap::new();
        let mut dirty: VecDeque<DirtyEntry> = VecDeque::new();

        for op in ops {
            match op {
                Op::Rpush(k, v) => {
                    let got = kv.rpush(&key(k), v.clone());
                    match model.entry(key(k)).or_insert_with(|| Model::List(VecDeque::new())) {
                        Model::List(l) => {
                            l.push_back(Bytes::from(v));
                            prop_assert_eq!(got.unwrap(), l.len());
                        }
                        _ => {
                            prop_assert!(is_wrong_type(&got));
                        }
                    }
                }
                Op::LpopN(k, n) => {
                    let got = kv.lpop_n(&key(k), n);
                    match model.get_mut(&key(k)) {
                        None => prop_assert_eq!(got.unwrap(), Vec::<Bytes>::new()),
                        Some(Model::List(l)) => {
                            let want: Vec<Bytes> = l.drain(..n.min(l.len())).collect();
                            prop_assert_eq!(got.unwrap(), want);
                        }
                        Some(_) => prop_assert!(is_wrong_type(&got)),
                    }
                }
                Op::Hset(k, f, v) => {
                    let got = kv.hset(&key(k), &field(f), v.clone());
                    match model.entry(key(k)).or_insert_with(|| Model::Hash(HashMap::new())) {
                        Model::Hash(h) => {
                            let fresh = h.insert(field(f), Bytes::from(v)).is_none();
                            prop_assert_eq!(got.unwrap(), fresh);
                        }
                        _ => {
                            prop_assert!(is_wrong_type(&got));
                        }
                    }
                }
                Op::Hget(k, f) => {
                    let got = kv.hget(&key(k), &field(f));
                    match model.get(&key(k)) {
                        None => prop_assert_eq!(got.unwrap(), None),
                        Some(Model::Hash(h)) => {
                            prop_assert_eq!(got.unwrap(), h.get(&field(f)).cloned())
                        }
                        Some(_) => prop_assert!(is_wrong_type(&got)),
                    }
                }
                Op::HeaderPut(o, v, dirty) => {
                    let h = ObjectHeader { version: VersionId(u64::from(v)), dirty };
                    prop_assert_eq!(kv.header_put(oid(o), h), Ok(()));
                    headers.insert(oid(o), h);
                }
                Op::HeaderGet(o) => {
                    prop_assert_eq!(kv.header_get(oid(o)).unwrap(), headers.get(&oid(o)).copied());
                }
                Op::HeaderLen => prop_assert_eq!(kv.header_len().unwrap(), headers.len()),
                Op::HeaderIds => {
                    let ids: Vec<ObjectId> = headers.keys().copied().collect();
                    prop_assert_eq!(kv.header_ids().unwrap(), ids);
                }
                Op::DirtyPush(o, v) => {
                    let e = DirtyEntry::new(oid(o), VersionId(u64::from(v)));
                    dirty.push_back(e);
                    prop_assert_eq!(kv.dirty_push(e), Ok(dirty.len()));
                }
                Op::DirtyRange(start, count) => {
                    let want: Vec<DirtyEntry> =
                        dirty.iter().skip(start).take(count).copied().collect();
                    prop_assert_eq!(kv.dirty_range(start, count).unwrap(), want);
                }
                Op::DirtyPopN(count) => {
                    let take = count.min(dirty.len());
                    let want: Vec<DirtyEntry> = dirty.drain(..take).collect();
                    prop_assert_eq!(kv.dirty_pop_n(count).unwrap(), want);
                }
                Op::DirtyLen => prop_assert_eq!(kv.dirty_len().unwrap(), dirty.len()),
                Op::Reshard(n) => {
                    let snap = kv.dump();
                    kv = KvStore::restore(snap.clone(), n).unwrap();
                    prop_assert_eq!(kv.shard_count(), n);
                    prop_assert_eq!(kv.dump(), snap);
                }
            }
        }

        // Final state: key count, dirty log and header table agree.
        prop_assert_eq!(kv.len(), model.len());
        let logged: Vec<DirtyEntry> = dirty.iter().copied().collect();
        prop_assert_eq!(kv.dirty_range(0, usize::MAX).unwrap(), logged);
        prop_assert_eq!(kv.header_len().unwrap(), headers.len());
        for (&id, &h) in &headers {
            prop_assert_eq!(kv.header_get(id).unwrap(), Some(h));
        }
    }
}
