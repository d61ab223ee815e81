//! The hash of an id-keyed table must be independent of the hash that
//! chose the table.
//!
//! The standard map tags each slot with the top 7 bits of the key's hash
//! and compares tags before keys. The ids in one kv header shard share the
//! top bits of `mix64(oid)` (that is how they were routed there), and the
//! objects on one node share a stretch of ring positions: a map hash that
//! repeats either would hand all of a table's keys the same few tags.
//! A node splits its map into lock stripes, chosen by a third hash: a
//! stripe chosen by the map hash's own low bits would hand each stripe's
//! table the same few bucket residues.

use ech_cluster::StorageNode;
use ech_core::hash::{mix64, IdHasher};
use ech_core::ids::ObjectId;
use ech_core::layout::Layout;
use ech_core::placement::Strategy;
use ech_core::view::ClusterView;
use ech_kvstore::KvStore;
use std::hash::{BuildHasher, BuildHasherDefault};

const IDS: u64 = 100_000;
const TAGS: usize = 128;

fn tag(hash: u64) -> usize {
    (hash >> 57) as usize
}

fn id_map_hash(oid: ObjectId) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(oid)
}

/// (distinct tags seen, fullest tag ÷ mean tag) of one table's keys.
fn tag_spread(tags: &[usize; TAGS]) -> (usize, f64) {
    let total: usize = tags.iter().sum();
    let used = tags.iter().filter(|&&n| n > 0).count();
    let fullest = tags.iter().copied().max().unwrap_or(0);
    (used, fullest as f64 * TAGS as f64 / total as f64)
}

fn assert_even(what: &str, tables: &[[usize; TAGS]]) {
    for (i, tags) in tables.iter().enumerate() {
        let (used, skew) = tag_spread(tags);
        assert_eq!(used, TAGS, "{what} {i} uses {used} of {TAGS} tags");
        assert!(
            skew <= 1.5,
            "{what} {i}: fullest tag is {skew:.2}x the mean"
        );
    }
}

#[test]
fn header_shard_tags_are_independent_of_the_shard_routing() {
    let kv = KvStore::new(10);
    let mut by_map_hash = vec![[0usize; TAGS]; 10];
    let mut by_routing_hash = vec![[0usize; TAGS]; 10];
    for oid in (0..IDS).map(ObjectId) {
        let shard = kv.header_shard_of(oid);
        by_map_hash[shard][tag(id_map_hash(oid))] += 1;
        by_routing_hash[shard][tag(mix64(oid.raw()))] += 1;
    }
    assert_even("header shard", &by_map_hash);
    // What the rule guards against: keyed by the routing hash, a shard's
    // ids would crowd into its own tenth of the tags.
    for tags in &by_routing_hash {
        let (used, skew) = tag_spread(tags);
        assert!(
            used <= TAGS / 10 + 2 && skew > 5.0,
            "{used} tags, {skew:.2}x"
        );
    }
}

#[test]
fn node_map_tags_are_independent_of_the_ring_position() {
    let view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
    let mut by_map_hash = vec![[0usize; TAGS]; 10];
    for oid in (0..IDS).map(ObjectId) {
        for server in view.place_current(oid).unwrap().servers() {
            by_map_hash[server.index()][tag(id_map_hash(oid))] += 1;
        }
    }
    assert_even("node", &by_map_hash);
}

/// Low 7 bits of the map hash: the bucket residue in a table of 128 or
/// more buckets.
fn residue(hash: u64) -> usize {
    (hash & (TAGS as u64 - 1)) as usize
}

/// Ids for the per-stripe statistics. A stripe is a sixteenth of its
/// node's table, and the smallest node of the equal-work layout holds
/// about 2 % of the replicas: at 100,000 ids its stripes hold ~440
/// objects each, and a uniform draw that small leaves some of the 128
/// tags or residues empty by chance alone. At 1,000,000 the smallest
/// stripe holds 4,294.
const STRIPE_IDS: u64 = 1_000_000;

#[test]
fn node_stripes_are_even_and_see_every_tag_and_residue() {
    const STRIPES: usize = StorageNode::STRIPES;
    let view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
    let mut tags = vec![[[0usize; TAGS]; STRIPES]; 10];
    let mut residues = vec![[[0usize; TAGS]; STRIPES]; 10];
    // The negative control: stripes chosen by the map hash's own low bits.
    let mut control = vec![[[0usize; TAGS]; STRIPES]; 10];
    for oid in (0..STRIPE_IDS).map(ObjectId) {
        let h = id_map_hash(oid);
        let stripe = StorageNode::stripe_of(oid);
        for server in view.place_current(oid).unwrap().servers() {
            let node = server.index();
            tags[node][stripe][tag(h)] += 1;
            residues[node][stripe][residue(h)] += 1;
            control[node][residue(h) % STRIPES][residue(h)] += 1;
        }
    }
    for node in 0..10 {
        let per_stripe: Vec<usize> = tags[node].iter().map(|t| t.iter().sum()).collect();
        let mean = per_stripe.iter().sum::<usize>() as f64 / STRIPES as f64;
        for (stripe, &n) in per_stripe.iter().enumerate() {
            assert!(
                n as f64 <= 1.5 * mean,
                "node {node} stripe {stripe}: {n} objects, mean {mean:.0}"
            );
        }
        for stripe in 0..STRIPES {
            let used = |counts: &[usize; TAGS]| counts.iter().filter(|&&n| n > 0).count();
            assert_eq!(
                used(&tags[node][stripe]),
                TAGS,
                "node {node} stripe {stripe} tags"
            );
            assert_eq!(
                used(&residues[node][stripe]),
                TAGS,
                "node {node} stripe {stripe} residues"
            );
            // Striped by the map hash, a stripe's table would use one
            // residue in sixteen: its probes would start in 1/16 of the
            // buckets.
            assert_eq!(
                used(&control[node][stripe]),
                TAGS / STRIPES,
                "control: node {node} stripe {stripe}"
            );
        }
    }
}
