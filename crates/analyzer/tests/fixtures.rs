//! Seeded-regression fixtures: each rule family must detect a planted
//! violation in a synthetic workspace, and suppressions and finding
//! keys must behave as documented.

use ech_analyzer::rules::D10_ROWS;
use ech_analyzer::{analyze, SourceFile};

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.into(),
        text: text.into(),
    }
}

fn rules_at(files: &[SourceFile], path: &str) -> Vec<(String, u32)> {
    analyze(files)
        .into_iter()
        .filter(|f| f.file == path)
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_flags_wall_clock_and_hash_iteration_in_scoped_files() {
    let files = [file(
        "crates/sim/src/energy.rs",
        "use std::collections::HashMap;\n\
         pub fn step() {\n\
         let t = Instant::now();\n\
         let m: HashMap<u8, u8> = HashMap::new();\n\
         std::thread::sleep(d);\n\
         let r = thread_rng();\n\
         }\n",
    )];
    let hits = rules_at(&files, "crates/sim/src/energy.rs");
    // HashMap appears three times (use + type + ctor), plus the clock,
    // sleep and rng hits.
    assert!(hits.iter().filter(|(r, _)| r == "D1").count() >= 5);
    assert!(hits.iter().any(|(_, l)| *l == 3), "Instant::now on line 3");
}

#[test]
fn d1_ignores_unscoped_files_and_test_fns() {
    let files = [
        file(
            "crates/workload/src/gen.rs",
            "pub fn f() { let t = Instant::now(); }\n",
        ),
        file(
            "crates/sim/src/energy.rs",
            "#[cfg(test)]\nmod tests {\n #[test]\n fn t() { let x = Instant::now(); }\n}\n",
        ),
    ];
    assert!(analyze(&files).is_empty());
}

// ---------------------------------------------------------------- D2

/// A minimal cluster crate whose `Cluster::put` reaches a helper with
/// planted panics.
fn d2_fixture(body: &str) -> Vec<SourceFile> {
    vec![file(
        "crates/cluster/src/cluster.rs",
        &format!(
            "pub struct Cluster;\n\
             impl Cluster {{\n\
             pub fn put(&self) {{ helper_step(1); }}\n\
             }}\n\
             fn helper_step(x: u8) {{\n{body}\n}}\n"
        ),
    )]
}

#[test]
fn d2_flags_panics_reachable_from_roots() {
    let files = d2_fixture(
        "let v = vec![1];\n\
         let a = v.first().unwrap();\n\
         let b = maybe().expect(\"boom\");\n\
         panic!(\"no\");\n\
         unreachable!();\n\
         let c = v[0];",
    );
    let hits = rules_at(&files, "crates/cluster/src/cluster.rs");
    let d2: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| r == "D2")
        .map(|(_, l)| *l)
        .collect();
    assert!(d2.contains(&7), "unwrap line: {d2:?}");
    assert!(d2.contains(&8), "expect line");
    assert!(d2.contains(&9), "panic! line");
    assert!(d2.contains(&10), "unreachable! line");
    assert!(d2.contains(&11), "indexing line");
}

#[test]
fn d2_ignores_unreachable_and_test_code() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster;\n\
         impl Cluster { pub fn put(&self) {} }\n\
         fn never_called() { let x = opt.unwrap(); }\n\
         #[cfg(test)]\n\
         mod tests { #[test] fn t() { val.unwrap(); } }\n",
    )];
    assert!(analyze(&files).is_empty());
}

// ---------------------------------------------------------------- D3

fn d3_fixture(retry_impl: &str) -> Vec<SourceFile> {
    vec![
        file(
            "crates/cluster/src/node.rs",
            "pub enum NodeError { Io, PoweredOff, NotFound }\n",
        ),
        file("crates/cluster/src/retry.rs", retry_impl),
    ]
}

#[test]
fn d3_flags_missing_variant_and_wildcard() {
    // `NotFound` never mentioned; wildcard arm present.
    let files = d3_fixture(
        "pub trait Classify { fn class(&self) -> u8; }\n\
         impl Classify for NodeError {\n\
         fn class(&self) -> u8 { match self { NodeError::Io => 0, _ => 1 } }\n\
         }\n",
    );
    let hits = rules_at(&files, "crates/cluster/src/retry.rs");
    let d3: Vec<&(String, u32)> = hits.iter().filter(|(r, _)| r == "D3").collect();
    assert_eq!(d3.len(), 3, "wildcard + 2 missing variants: {d3:?}");
}

#[test]
fn d3_passes_on_exhaustive_classification() {
    let files = d3_fixture(
        "pub trait Classify { fn class(&self) -> u8; }\n\
         impl Classify for NodeError {\n\
         fn class(&self) -> u8 { match self {\n\
         NodeError::Io => 0,\n\
         NodeError::PoweredOff => 1,\n\
         NodeError::NotFound => 1,\n\
         } }\n\
         }\n",
    );
    assert!(analyze(&files).is_empty());
}

#[test]
fn d3_flags_enum_with_no_classify_impl() {
    let files = d3_fixture("pub trait Classify { fn class(&self) -> u8; }\n");
    let hits = rules_at(&files, "crates/cluster/src/retry.rs");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, "D3");
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_flags_lock_order_cycle() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct C;\n\
         impl C {\n\
         fn a(&self) { let g = self.view.write(); let h = self.dirty.lock(); }\n\
         fn b(&self) { let g = self.dirty.lock(); let h = self.view.read(); }\n\
         }\n",
    )];
    let hits = analyze(&files);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D4" && f.key.contains("lock-cycle")),
        "expected a dirty<->view cycle: {hits:?}"
    );
}

#[test]
fn d4_flags_lock_held_across_retry_point() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct C;\n\
         impl C {\n\
         fn a(&self) { let g = self.view.write(); self.retry.run_counted_deadline(clock, d, tok, f, op); }\n\
         }\n",
    )];
    let hits = analyze(&files);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D4" && f.key.contains("lock-across-retry")),
        "{hits:?}"
    );
}

#[test]
fn d4_accepts_consistent_order_and_scoped_guards() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct C;\n\
         impl C {\n\
         fn a(&self) { let g = self.roster.write(); let h = self.dirty.lock(); }\n\
         fn b(&self) { let g = self.roster.read(); let h = self.dirty.lock(); }\n\
         fn c(&self) {\n\
         { let g = self.roster.read(); }\n\
         self.retry.run_counted_deadline(clock, d, tok, f, op);\n\
         }\n\
         fn d(&self) { let v = self.roster.read().snapshot(); self.retry.run_counted_deadline(clock, d, tok, f, op); }\n\
         }\n",
    )];
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

#[test]
fn d4_cycle_via_transitive_call() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct C;\n\
         impl C {\n\
         fn a(&self) { let g = self.view.write(); self.grab_dirty(); }\n\
         fn grab_dirty(&self) { let h = self.dirty.lock(); }\n\
         fn b(&self) { let g = self.dirty.lock(); let h = self.view.read(); }\n\
         }\n",
    )];
    let hits = analyze(&files);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D4" && f.key.contains("lock-cycle")),
        "{hits:?}"
    );
}

#[test]
fn d2_follows_receiver_typed_calls_through_ignored_names() {
    // Bare `get` is in CALL_IGNORE, but the field's declared type pins
    // the callee: `self.dirty.get(..)` → `KvDirtyTable::get`, whose
    // indexing must surface. The alias form (`let d = self.dirty...`)
    // must resolve the same way.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster { dirty: KvDirtyTable }\n\
             impl Cluster {\n\
             pub fn put(&self) { let e = self.dirty.get(0); }\n\
             pub fn locate(&self) { let d = self.dirty.clone(); let e = d.get(1); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/dirty_store.rs",
            "pub struct KvDirtyTable;\n\
             impl KvDirtyTable {\n\
             pub fn get(&self, i: usize) -> u8 { self.raw[i] }\n\
             }\n",
        ),
    ];
    let hits = rules_at(&files, "crates/cluster/src/dirty_store.rs");
    assert!(
        hits.iter().any(|(r, l)| r == "D2" && *l == 3),
        "indexing inside KvDirtyTable::get must be reachable: {hits:?}"
    );
}

#[test]
fn d4_resolves_guarded_receiver_calls_by_field_type() {
    // `self.dirty.lock().push_back(..)` while `gate` is held: the hop
    // through `.lock()` plus the field type resolves the callee, and
    // its retry point makes the held guard a finding.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster { dirty: Mutex<KvDirtyTable>, gate: Mutex<u8> }\n\
             impl Cluster {\n\
             pub fn log(&self) {\n\
             let g = self.gate.lock();\n\
             self.dirty.lock().push_back(1);\n\
             }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/dirty_store.rs",
            "pub struct KvDirtyTable;\n\
             impl KvDirtyTable {\n\
             pub fn push_back(&self, e: u8) { kv_retry(e); }\n\
             }\n\
             fn kv_retry(e: u8) {}\n",
        ),
    ];
    let hits = analyze(&files);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D4" && f.key.contains("lock-across-retry") && f.line == 5),
        "gate held across retry-reaching push_back: {hits:?}"
    );
}

// ------------------------------------- receiver-typed call resolution

#[test]
fn d2_follows_helper_return_types_through_question_mark_chains() {
    // `self.node(0)?.fetch(..)` drops through no declared field — the
    // receiver's type is Cluster::node's *return* type, one hop. Both
    // the direct chain and the alias form must recover the edge into
    // StorageNode::fetch, whose indexing must then surface.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster { nodes: Vec<StorageNode> }\n\
             impl Cluster {\n\
             fn node(&self, i: usize) -> Result<Arc<StorageNode>, EchError> { Err(e) }\n\
             pub fn put(&self) { self.node(0)?.fetch(7); }\n\
             pub fn locate(&self) { let n = self.node(1)?; n.probe(2); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/node.rs",
            "pub struct StorageNode;\n\
             impl StorageNode {\n\
             pub fn fetch(&self, i: usize) -> u8 { self.raw[i] }\n\
             pub fn probe(&self, i: usize) -> u8 { self.raw[i] }\n\
             }\n",
        ),
    ];
    let hits = rules_at(&files, "crates/cluster/src/node.rs");
    let d2: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| r == "D2")
        .map(|(_, l)| *l)
        .collect();
    assert_eq!(
        d2,
        [3, 4],
        "direct chain reaches fetch, alias reaches probe: {hits:?}"
    );
}

#[test]
fn d2_fans_out_trait_object_calls_to_every_impl() {
    // `clock: Arc<dyn Clock>` types the receiver as the trait; the call
    // must reach every implementing type, so the panic planted in one
    // impl surfaces.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster { clock: Arc<dyn Clock> }\n\
             impl Cluster {\n\
             pub fn put(&self) { self.clock.now(); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/fault.rs",
            "pub trait Clock { fn now(&self) -> u64; }\n\
             pub struct WallClock;\n\
             impl Clock for WallClock {\n\
             fn now(&self) -> u64 { self.t.unwrap() }\n\
             }\n\
             pub struct TestClock;\n\
             impl Clock for TestClock {\n\
             fn now(&self) -> u64 { 0 }\n\
             }\n",
        ),
    ];
    let hits = rules_at(&files, "crates/cluster/src/fault.rs");
    assert!(
        hits.iter().any(|(r, l)| r == "D2" && *l == 4),
        "unwrap inside WallClock::now must be reachable: {hits:?}"
    );
}

#[test]
fn d4_follows_mut_helper_return_types() {
    // A `&mut self` helper returning `&mut KvDirtyTable` types the
    // chained receiver; push_back's retry point makes the held guard a
    // finding.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster { dirty: KvDirtyTable, gate: Mutex<u8> }\n\
             impl Cluster {\n\
             fn dirty_mut(&mut self) -> &mut KvDirtyTable { &mut self.dirty }\n\
             pub fn log(&mut self) {\n\
             let g = self.gate.lock();\n\
             self.dirty_mut().push_back(1);\n\
             }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/dirty_store.rs",
            "pub struct KvDirtyTable;\n\
             impl KvDirtyTable {\n\
             pub fn push_back(&self, e: u8) { kv_retry(e); }\n\
             }\n\
             fn kv_retry(e: u8) {}\n",
        ),
    ];
    let hits = analyze(&files);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D4" && f.key.contains("lock-across-retry") && f.line == 6),
        "gate held across retry-reaching push_back: {hits:?}"
    );
}

#[test]
fn typed_receivers_block_same_owner_name_guessing() {
    // `self.map.len()` is typed by the field: BTreeMap is foreign to
    // the graph, so no edge — in particular NOT the same-owner
    // `Cluster::len`, whose retry point would otherwise flag the held
    // guard. (`len` used to need a CALL_IGNORE entry for this.)
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { map: BTreeMap<u8, u8>, gate: Mutex<u8> }\n\
         impl Cluster {\n\
         pub fn locate(&self) { let g = self.gate.lock(); let n = self.map.len(); }\n\
         fn len(&self) -> usize { self.retry.run_counted_deadline(clock, d, tok, f, op); 0 }\n\
         }\n",
    )];
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_flags_relaxed_on_non_counter_atomics() {
    // A Relaxed store on a flag synchronises nothing; Relaxed is only
    // legal on atomics *constructed as counters* (`counter_u64`), where
    // RMWs, snapshot loads and resets are all fine.
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster;\n\
         impl Cluster {\n\
         fn new() -> Self { Cluster { ops: counter_u64(0), flag: AtomicBool::new(false) } }\n\
         fn mark(&self) { self.flag.store(true, Ordering::Relaxed); }\n\
         fn count(&self) { self.ops.fetch_add(1, Ordering::Relaxed); }\n\
         fn snapshot(&self) -> u64 { self.ops.load(Ordering::Relaxed) }\n\
         fn reset(&self) { self.ops.store(0, Ordering::Relaxed); }\n\
         }\n",
    )];
    let hits = rules_at(&files, "crates/cluster/src/cluster.rs");
    let d5: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| r == "D5")
        .map(|(_, l)| *l)
        .collect();
    assert_eq!(d5, [4], "only the flag store fires: {hits:?}");
}

#[test]
fn d5_allows_relaxed_compare_exchange_only_on_counters() {
    // A bounded tally (bytes against a capacity) moves by a Relaxed
    // compare-exchange loop; on a synchronisation atomic the same call
    // publishes nothing and fires.
    let files = vec![file(
        "crates/cluster/src/node.rs",
        "pub struct Node;\n\
         impl Node {\n\
         fn new() -> Self { Node { bytes: counter_u64(0), owner: AtomicU64::new(0) } }\n\
         fn grow(&self) { let _ = self.bytes.compare_exchange(1, 2, Ordering::Relaxed, Ordering::Relaxed); }\n\
         fn claim(&self) { let _ = self.owner.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed); }\n\
         }\n",
    )];
    let hits = rules_at(&files, "crates/cluster/src/node.rs");
    let mut d5: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| r == "D5")
        .map(|(_, l)| *l)
        .collect();
    d5.dedup();
    assert_eq!(d5, [5], "only the non-counter exchange fires: {hits:?}");
}

#[test]
fn d5_counter_classification_survives_renames_and_crosses_files() {
    // The constructor, not per-file RMW pairing, declares the counter:
    // `tally` is built with `counter_u64` in stats.rs, so its Relaxed
    // snapshot load in cluster.rs is legal even though no `fetch_add`
    // on that name appears in the same file — and stays legal however
    // the field is renamed. A sibling atomic built with `AtomicU64::new`
    // gets no such license.
    let files = vec![
        file(
            "crates/cluster/src/stats.rs",
            "pub struct Stats { tally: AtomicU64, epoch_flag: AtomicU64 }\n\
             impl Stats {\n\
             fn new() -> Self { Stats { tally: counter_u64(0), epoch_flag: AtomicU64::new(0) } }\n\
             fn bump(&self) { self.tally.fetch_add(1, Ordering::Relaxed); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster;\n\
             impl Cluster {\n\
             fn snapshot(&self) -> u64 { self.stats.tally.load(Ordering::Relaxed) }\n\
             fn peek(&self) -> u64 { self.stats.epoch_flag.load(Ordering::Relaxed) }\n\
             }\n",
        ),
    ];
    let hits = rules_at(&files, "crates/cluster/src/cluster.rs");
    let d5: Vec<u32> = hits
        .iter()
        .filter(|(r, _)| r == "D5")
        .map(|(_, l)| *l)
        .collect();
    assert_eq!(
        d5,
        [4],
        "renamed counter load passes, sync-atomic load fires: {hits:?}"
    );
}

#[test]
fn d5_bans_raw_std_sync_outside_the_facade() {
    // Raw `std::sync` primitives belong behind the `sync` facade so the
    // model checker can instrument them; `Arc` and the facade file
    // itself stay legal.
    let files = vec![
        file("crates/core/src/cache.rs", "use std::sync::Mutex;\n"),
        file("crates/core/src/sync.rs", "pub use std::sync::Mutex;\n"),
        file("crates/core/src/stats.rs", "use std::sync::Arc;\n"),
    ];
    let hits = analyze(&files);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "D5");
    assert_eq!(hits[0].file, "crates/core/src/cache.rs");
    assert!(hits[0].key.contains("raw-std-sync"));
}

// ---------------------------------------------------------------- D6

#[test]
fn d6_flags_stamp_before_publish_and_accepts_the_inverse() {
    // Header stamping before the view store opens the stale-header
    // window — directly or through a helper call. The publication point
    // is recognised by the field's declared `ArcSwap` type.
    let bad = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { view: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn resize(&self) {\n\
         self.headers.record_write(o, v, false);\n\
         self.view.store(next);\n\
         }\n\
         }\n",
    )];
    let hits = analyze(&bad);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D6" && f.key.contains("stamp-before-publish") && f.line == 4),
        "{hits:?}"
    );

    let transitive = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { view: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn resize(&self) { self.stamp_it(); self.view.store(next); }\n\
         fn stamp_it(&self) { self.headers.record_write(o, v, false); }\n\
         }\n",
    )];
    let hits = analyze(&transitive);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D6" && f.key.contains("stamp-before-publish")),
        "stamp via helper call: {hits:?}"
    );

    let good = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { view: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn resize(&self) {\n\
         self.view.store(next);\n\
         self.headers.record_write(o, v, false);\n\
         }\n\
         }\n",
    )];
    assert!(analyze(&good).is_empty(), "{:?}", analyze(&good));
}

#[test]
fn d6_derives_publication_points_from_arcswap_typed_fields() {
    // A brand-new publication helper over a differently-named ArcSwap
    // field must be picked up with zero rule edits: the declared field
    // type makes `membership.store` a publication, and the call-graph
    // fixpoint makes `publish_roster` a publishing helper. A store on a
    // non-ArcSwap field must NOT count as a publication (else the stamp
    // would be mis-ordered against it).
    let bad = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { membership: ArcSwap<Roster>, stop: AtomicBool }\n\
         impl Cluster {\n\
         fn publish_roster(&self, next: Roster) { self.membership.store(next); }\n\
         fn resize(&self) {\n\
         self.headers.record_write(o, v, false);\n\
         self.publish_roster(r);\n\
         }\n\
         }\n",
    )];
    let hits = analyze(&bad);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D6" && f.key.contains("stamp-before-publish") && f.line == 5),
        "new helper over a renamed ArcSwap field is a publication: {hits:?}"
    );

    let non_publication = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster { membership: ArcSwap<Roster>, stop: AtomicBool }\n\
         impl Cluster {\n\
         fn shutdown(&self) {\n\
         self.headers.record_write(o, v, false);\n\
         self.stop.store(true, Ordering::Release);\n\
         }\n\
         }\n",
    )];
    assert!(
        analyze(&non_publication).is_empty(),
        "a store on a non-ArcSwap field is not a publication: {:?}",
        analyze(&non_publication)
    );
}

#[test]
fn d6_flags_cache_consults_outside_a_pinned_view() {
    // `crates/cluster/src` may not consult a placement cache at all
    // (D10), so the clause is exercised in another graph-scoped crate.
    let bad = vec![file(
        "crates/core/src/reader.rs",
        "pub struct Cluster { view: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn locate(&self) { let p = self.cache.place_current(&v, oid); }\n\
         }\n",
    )];
    let hits = analyze(&bad);
    assert!(
        hits.iter()
            .any(|f| f.rule == "D6" && f.key.contains("unpinned-cache-consult")),
        "{hits:?}"
    );

    // The pin is recognised by the receiver's declared type, so a
    // renamed snapshot field works unedited.
    let good = vec![file(
        "crates/core/src/reader.rs",
        "pub struct Cluster { epochs: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn locate(&self) { let p = self.cache.place_current(&self.epochs.load(), oid); }\n\
         }\n",
    )];
    assert!(analyze(&good).is_empty(), "{:?}", analyze(&good));

    // A count-free `peek` pins the epoch for the borrow just as `load`
    // pins it for the `Arc`.
    let peeked = vec![file(
        "crates/core/src/reader.rs",
        "pub struct Cluster { epochs: ArcSwap<ClusterView> }\n\
         impl Cluster {\n\
         fn locate(&self) { let v = self.epochs.peek(); let p = self.cache.place_current(v, oid); }\n\
         }\n",
    )];
    assert!(analyze(&peeked).is_empty(), "{:?}", analyze(&peeked));
}

// ---------------------------------------------------------------- D7

/// A minimal coordinator whose `Cluster::put` (a data-path root) holds
/// a node handle and an rpc choke point; `body` is put's body.
fn d7_fixture(body: &str) -> Vec<SourceFile> {
    vec![
        file(
            "crates/cluster/src/cluster.rs",
            &format!(
                "pub struct Cluster;\n\
                 impl Cluster {{\n\
                 fn rpc(&self, id: u32, node: &StorageNode, op: F) -> R {{ op(node) }}\n\
                 pub fn put(&self, node: &StorageNode, deadline: Deadline) {{\n{body}\n}}\n\
                 }}\n"
            ),
        ),
        file(
            "crates/cluster/src/node.rs",
            "pub struct StorageNode;\n\
             impl StorageNode {\n\
             pub fn put(&self, x: u8) {}\n\
             pub fn remove(&self, x: u8) {}\n\
             pub fn restamp(&self, x: u8) { self.remove(x); }\n\
             }\n",
        ),
    ]
}

#[test]
fn d7_flags_direct_node_io_outside_the_rpc_choke_point() {
    // The op closure handed to rpc(..) is sanctioned (masked span); the
    // bare remove/restamp sends outside it bypass breaker + fabric.
    let files = d7_fixture(
        "self.rpc(0, node, |n| n.put(1));\n\
         node.remove(1);\n\
         node.restamp(2);",
    );
    let hits = analyze(&files);
    let d7: Vec<&ech_analyzer::Finding> = hits.iter().filter(|f| f.rule == "D7").collect();
    assert_eq!(d7.len(), 2, "remove + restamp, nothing else: {hits:?}");
    assert!(d7
        .iter()
        .any(|f| f.key.contains("direct-node-remove") && f.line == 6));
    assert!(d7
        .iter()
        .any(|f| f.key.contains("direct-node-restamp") && f.line == 7));
    // StorageNode's own internals (`restamp` calling `self.remove`) are
    // the callee side of the choke point, not a bypass.
    assert!(hits.iter().all(|f| f.file != "crates/cluster/src/node.rs"));
}

#[test]
fn d7_accepts_rpc_routed_and_allowed_calls() {
    let files = d7_fixture(
        "self.rpc(0, node, |n| n.remove(1));\n\
         // ech-allow(D7): reconciliation message, repeatable at will\n\
         node.restamp(2);",
    );
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

#[test]
fn d7_ignores_unreachable_and_non_cluster_code() {
    // Same bypass shape, but the caller is not in the data-path
    // reachable set — and a kvstore-side `remove` on a foreign receiver
    // must not be name-guessed into StorageNode::remove.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster;\n\
             impl Cluster {\n\
             fn rpc(&self, id: u32, node: &StorageNode, op: F) -> R { op(node) }\n\
             fn debug_dump(&self, node: &StorageNode) { node.remove(1); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/node.rs",
            "pub struct StorageNode;\n\
             impl StorageNode { pub fn remove(&self, x: u8) {} }\n",
        ),
        file(
            "crates/kvstore/src/shard.rs",
            "pub struct Shard { map: BTreeMap<u64, u8> }\n\
             impl Shard {\n\
             pub fn evict(&self) { self.map.remove(&1); }\n\
             }\n",
        ),
    ];
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

// ---------------------------------------------------------------- D8

#[test]
fn d8_flags_budgetless_senders_runners_and_fresh_unbounded() {
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster;\n\
         impl Cluster {\n\
         fn rpc(&self, op: F) -> R { op() }\n\
         pub fn put(&self) {\n\
         let d = Deadline::unbounded();\n\
         self.retryer.run_with(tok, f, op);\n\
         self.rpc(op);\n\
         }\n\
         }\n",
    )];
    let hits = analyze(&files);
    let d8: Vec<&ech_analyzer::Finding> = hits.iter().filter(|f| f.rule == "D8").collect();
    assert_eq!(d8.len(), 3, "all three checks fire: {hits:?}");
    assert!(d8
        .iter()
        .any(|f| f.key.contains("missing-deadline") && f.line == 4));
    assert!(d8
        .iter()
        .any(|f| f.key.contains("fresh-unbounded-deadline") && f.line == 5));
    assert!(d8
        .iter()
        .any(|f| f.key.contains("deadline-free-runner run_with") && f.line == 6));
}

#[test]
fn d8_flags_runners_in_transitively_rpc_reaching_code() {
    // `put` never issues rpc itself, but reaches it through `step`; its
    // deadline-free runner still stalls against a dark fabric. `step`
    // mints its own budget, so only the runner fires.
    let files = vec![file(
        "crates/cluster/src/cluster.rs",
        "pub struct Cluster;\n\
         impl Cluster {\n\
         fn rpc(&self, op: F) -> R { op() }\n\
         pub fn put(&self) { self.retryer.run(tok, f, op); self.step(); }\n\
         fn step(&self) { let d = self.op_deadline(); self.rpc(op); }\n\
         }\n",
    )];
    let hits = analyze(&files);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "D8");
    assert!(hits[0].key.contains("deadline-free-runner run"));
    assert_eq!(hits[0].line, 4);
}

#[test]
fn d8_accepts_threaded_and_minted_budgets_and_ignores_non_rpc_code() {
    // put threads a Deadline parameter through the *_deadline runner;
    // repair mints op_deadline() at its own boundary; the retry facade
    // itself never reaches rpc, so its legitimate Deadline::unbounded
    // (the `from_config` plumbing) is out of scope.
    let files = vec![
        file(
            "crates/cluster/src/cluster.rs",
            "pub struct Cluster;\n\
             impl Cluster {\n\
             fn rpc(&self, op: F) -> R { op() }\n\
             pub fn put(&self, deadline: Deadline) {\n\
             self.cfg.retry.run_deadline(c, deadline, t, f, op);\n\
             self.rpc(op);\n\
             }\n\
             pub fn repair(&self) { let deadline = self.op_deadline(); self.rpc(op); }\n\
             }\n",
        ),
        file(
            "crates/cluster/src/retry.rs",
            "pub struct Deadline;\n\
             impl Deadline {\n\
             pub fn from_config(budget: Option<Duration>) -> Self { Deadline::unbounded() }\n\
             }\n",
        ),
    ];
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

// ---------------------------------------------------------------- D9

#[test]
fn d9_flags_missing_unknown_self_and_same_role_pairs_and_orphan_mutants() {
    let files = vec![
        file(
            "crates/check/src/mc_models.rs",
            "pub static MODELS: &[Model] = &[\n\
             Model {\n name: \"good-protocol\",\n mutant: None,\n },\n\
             Model {\n name: \"orphan-bug\",\n mutant: Some((Mutation::A, CaughtIn::Every)),\n pair: \"no-such-model\",\n },\n\
             Model {\n name: \"navel-bug\",\n mutant: Some((Mutation::A, CaughtIn::Weak)),\n pair: \"navel-bug\",\n },\n\
             Model {\n name: \"buddy-bug\",\n mutant: Some((Mutation::B, CaughtIn::Lincheck)),\n pair: \"orphan-bug\",\n },\n\
             ];\n",
        ),
        // Only two of the three mutants have replay-test evidence.
        file(
            "crates/check/src/commands.rs",
            "fn t() { run(\"modelcheck --model orphan-bug\"); run(\"modelcheck --model navel-bug\"); }\n",
        ),
    ];
    let hits: Vec<String> = analyze(&files)
        .into_iter()
        .map(|f| {
            assert_eq!(f.rule, "D9");
            f.key
        })
        .collect();
    let expect = [
        "missing-pair#0",        // good-protocol has no pair field
        "unknown-pair#0",        // orphan-bug names a ghost
        "self-pair#0",           // navel-bug pairs with itself
        "role-mismatch#0",       // buddy-bug pairs mutant-to-mutant
        "unreferenced-mutant#0", // buddy-bug is quoted nowhere
    ];
    assert_eq!(hits.len(), expect.len(), "{hits:?}");
    for want in expect {
        assert!(
            hits.iter().any(|k| k.ends_with(want)),
            "missing a {want} finding: {hits:?}"
        );
    }
}

#[test]
fn d9_accepts_resolved_cross_role_pairs_with_replay_evidence() {
    // Pairings may share a mutant (both protocols cite good-bug); the
    // mutant's own back-pointer picks one of them.
    let files = vec![
        file(
            "crates/check/src/mc_models.rs",
            "pub struct Model {\n pub name: &'static str,\n pub pair: &'static str,\n }\n\
             pub static MODELS: &[Model] = &[\n\
             Model {\n name: \"good-protocol\",\n pair: \"good-bug\",\n },\n\
             Model {\n name: \"other-protocol\",\n mutant: None,\n pair: \"good-bug\",\n },\n\
             Model {\n name: \"good-bug\",\n mutant: Some((Mutation::A, CaughtIn::Msg)),\n pair: \"good-protocol\",\n },\n\
             ];\n",
        ),
        file(
            "crates/check/src/commands.rs",
            "fn t() { run(\"modelcheck --model good-bug --msg true\"); }\n",
        ),
    ];
    assert!(analyze(&files).is_empty(), "{:?}", analyze(&files));
}

// --------------------------------------------------------------- D10

/// Per row of the table: its needle, a file the row covers, and a file
/// it does not (out of scope, or the row's exempt file).
const D10_CASES: &[(&str, &str, &str)] = &[
    (
        "for_modelcheck",
        "crates/cluster/src/cluster/put.rs",
        "crates/check/src/mc_models.rs",
    ),
    (
        "seeded_stamp_bug",
        "crates/cluster/src/cluster.rs",
        "crates/check/src/mc_models.rs",
    ),
    (
        "pub fn run",
        "crates/cluster/src/retry.rs",
        "crates/cluster/src/cluster.rs",
    ),
    (
        "ech:headers",
        "crates/kvstore/src/store.rs",
        "crates/kvstore/tests/headers.rs",
    ),
    (
        "encode_entry",
        "crates/core/src/dirty.rs",
        "crates/core/tests/dirty.rs",
    ),
    (
        "decode_entry",
        "crates/cluster/src/dirty_store.rs",
        "crates/cluster/tests/dirty.rs",
    ),
    (
        "ShardedPlacementCache",
        "crates/cluster/src/cluster.rs",
        "crates/core/src/cache.rs",
    ),
    (
        "cache.place_",
        "crates/cluster/src/cluster/get.rs",
        "crates/core/src/cache.rs",
    ),
    (
        "RwLock<ClusterView>",
        "crates/cluster/src/cluster.rs",
        "crates/core/src/view.rs",
    ),
    (
        "view.read()",
        "crates/cluster/src/cluster/get.rs",
        "crates/check/src/mc_models.rs",
    ),
    (
        "view.write()",
        "crates/cluster/src/cluster/resize.rs",
        "crates/check/src/mc_models.rs",
    ),
    (
        "ech_lincheck",
        "crates/cluster/src/cluster.rs",
        "crates/cluster/src/lincheck.rs",
    ),
    (
        "reintegrate_step",
        "crates/check/src/mc_models.rs",
        "crates/cluster/tests/stress.rs",
    ),
    (
        "PathCounters",
        "crates/core/src/stats.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "PathSnapshot",
        "crates/cluster/src/cluster.rs",
        "crates/cluster/tests/partition.rs",
    ),
    (
        "FaultStatsSnapshot",
        "crates/cluster/src/fault.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "NetStatsSnapshot",
        "crates/cluster/src/net.rs",
        "crates/cluster/tests/net_determinism.rs",
    ),
    (
        "BreakerSnapshot",
        "crates/cluster/src/lib.rs",
        "crates/cluster/tests/partition.rs",
    ),
    (
        "fault_stats",
        "crates/cli/src/chaos.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "net_stats",
        "crates/cluster/src/cluster.rs",
        "crates/cluster/tests/partition.rs",
    ),
    (
        "breaker_stats",
        "crates/cluster/src/cluster.rs",
        "crates/cluster/tests/partition.rs",
    ),
    (
        "splitmix64",
        "crates/check/src/commands.rs",
        "crates/cluster/tests/net_determinism.rs",
    ),
    (
        "resident_bytes",
        "crates/core/src/engine.rs",
        "crates/core/tests/engines.rs",
    ),
    (
        "xxh64",
        "crates/core/src/hash.rs",
        "crates/core/tests/properties.rs",
    ),
    (
        "ReadPolicy",
        "crates/cluster/src/cluster/get.rs",
        "crates/cluster/tests/primary_slot.rs",
    ),
    (
        "get_with",
        "crates/check/src/mc_models.rs",
        "benchmark/src/workload.rs",
    ),
    (
        "hedged_get",
        "crates/cluster/src/cluster/get.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "WriteQuorum",
        "crates/cluster/src/cluster.rs",
        "crates/cluster/tests/primary_slot.rs",
    ),
    (
        "hedged_reads",
        "crates/cli/src/chaos.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "BENCH_placement",
        "crates/cli/src/commands.rs",
        "benchmark/src/main.rs",
    ),
    (
        "WriteBalancer",
        "crates/bench/src/extension.rs",
        "crates/core/tests/properties.rs",
    ),
    (
        "relayout_fraction",
        "crates/core/src/layout.rs",
        "crates/core/tests/properties.rs",
    ),
    (
        "closed_loop",
        "crates/sim/src/lib.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "set_offered_load",
        "crates/sim/src/cluster_sim.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "UniformPicker",
        "crates/workload/src/objects.rs",
        "crates/cluster/tests/stress.rs",
    ),
    (
        "ZipfPicker",
        "crates/sim/src/des.rs",
        "crates/cluster/tests/stress.rs",
    ),
    (
        "ResizeController",
        "crates/sim/src/lib.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "ReactiveController",
        "crates/bench/src/extension.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "MovingAverageController",
        "crates/sim/src/cluster_sim.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "TrendController",
        "crates/bench/src/lib.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "SizerConfig",
        "crates/sim/src/config.rs",
        "benchmark/src/main.rs",
    ),
    (
        "ControllerEval",
        "crates/sim/src/experiments.rs",
        "crates/sim/tests/properties.rs",
    ),
    (
        "pub mod controller",
        "crates/sim/src/lib.rs",
        "crates/modelcheck/src/lib.rs",
    ),
    (
        "cc_c",
        "crates/traces/src/synth.rs",
        "crates/traces/tests/table2.rs",
    ),
    (
        "cc_d",
        "crates/traces/src/spec.rs",
        "tests/trace_integration.rs",
    ),
    (
        "cc_e",
        "crates/cli/src/commands.rs",
        "crates/traces/tests/table2.rs",
    ),
    (
        "pub mod io",
        "crates/traces/src/lib.rs",
        "crates/cli/src/lib.rs",
    ),
    (
        "tiny_cluster",
        "crates/check/src/mc_models.rs",
        "crates/cluster/src/scenario.rs",
    ),
    (
        "tiny_config",
        "crates/check/src/mc_models.rs",
        "crates/cluster/src/cluster.rs",
    ),
    (
        "faulty_quorum_cluster",
        "crates/check/src/mc_models.rs",
        "crates/cluster/tests/chaos.rs",
    ),
    (
        "partitioned_quorum_cluster",
        "crates/check/src/mc_models.rs",
        "crates/cluster/tests/partition.rs",
    ),
    (
        "stale_copy_cluster",
        "crates/check/src/mc_models.rs",
        "crates/cluster/src/cluster/tests.rs",
    ),
    (
        "msg_cluster",
        "crates/check/src/mc_models.rs",
        "crates/cluster/src/net.rs",
    ),
    (
        "mirror_view",
        "crates/check/src/reduction_soundness.rs",
        "crates/cli/src/commands.rs",
    ),
    (
        "expect_failure",
        "crates/check/src/commands.rs",
        "crates/modelcheck/src/lib.rs",
    ),
    (
        "with_faults",
        "crates/check/src/commands.rs",
        "crates/cluster/src/scenario.rs",
    ),
    (
        "serde",
        "crates/core/src/view.rs",
        "crates/check/src/bench_mc.rs",
    ),
    (
        "serde",
        "crates/kvstore/src/store.rs",
        "benchmark/src/metrics.rs",
    ),
    ("serde", "crates/sim/src/config.rs", "benchmark/src/main.rs"),
    (
        "serde",
        "crates/traces/src/spec.rs",
        "crates/cli/src/main.rs",
    ),
    (
        "serde",
        "crates/workload/src/series.rs",
        "crates/core/tests/engines.rs",
    ),
];

fn d10_lines(path: &str, text: &str) -> Vec<u32> {
    analyze(&[file(path, text)])
        .into_iter()
        .filter(|f| f.rule == "D10")
        .map(|f| f.line)
        .collect()
}

#[test]
fn d10_flags_each_needle_in_scope_in_code_and_comments() {
    let needles: Vec<&str> = D10_CASES.iter().map(|c| c.0).collect();
    let rows: Vec<&str> = D10_ROWS.iter().map(|r| r.needle).collect();
    assert_eq!(needles, rows, "one case per row, in table order");
    for &(needle, inside, outside) in D10_CASES {
        let text = format!("pub fn f() {{ g(\"{needle}\"); }}\n// {needle}\n");
        assert_eq!(d10_lines(inside, &text), [1, 2], "`{needle}` in {inside}");
        assert_eq!(d10_lines(outside, &text), [], "`{needle}` in {outside}");
    }
}

#[test]
fn d10_exempts_the_sanctioned_word_and_the_table_itself() {
    let retry = "crates/cluster/src/retry.rs";
    assert_eq!(
        d10_lines(retry, "pub fn run_counted_deadline(&self) {}\n"),
        []
    );
    assert_eq!(
        d10_lines(retry, "pub fn run_counted_deadline_v2(&self) {}\n"),
        [1],
        "the sanctioned runner is a whole word, not a prefix"
    );
    let every_needle: String = D10_ROWS
        .iter()
        .map(|r| format!("// {}\n", r.needle))
        .collect();
    assert_eq!(d10_lines("crates/analyzer/src/rules.rs", &every_needle), []);
    assert_eq!(
        d10_lines("crates/analyzer/src/lib.rs", &every_needle).len(),
        36,
        "the crate-wide rows reach the analyzer's other files"
    );
}

// ------------------------------------------------------ suppressions

#[test]
fn ech_allow_suppresses_only_named_rule_and_covered_line() {
    let files = vec![file(
        "crates/sim/src/energy.rs",
        "pub fn f() {\n\
         // ech-allow(D1): sanctioned for this fixture\n\
         let t = Instant::now();\n\
         let u = Instant::now();\n\
         }\n",
    )];
    let hits = rules_at(&files, "crates/sim/src/energy.rs");
    assert_eq!(hits.len(), 1, "only the uncovered line reports: {hits:?}");
    assert_eq!(hits[0].1, 4);

    // Wrong rule name does not suppress.
    let files = vec![file(
        "crates/sim/src/energy.rs",
        "pub fn f() {\n\
         let t = Instant::now(); // ech-allow(D2): wrong rule\n\
         }\n",
    )];
    assert_eq!(rules_at(&files, "crates/sim/src/energy.rs").len(), 1);
}

// -------------------------------------------------------------- keys

#[test]
fn baseline_keys_are_line_number_free_and_occurrence_stable() {
    let src_v1 = "pub struct Cluster;\n\
                  impl Cluster { pub fn put(&self) { a.unwrap(); b.unwrap(); } }\n";
    // Same code, shifted three lines down.
    let src_v2 = format!("// pad\n// pad\n// pad\n{src_v1}");
    let k1: Vec<String> = analyze(&[file("crates/cluster/src/cluster.rs", src_v1)])
        .into_iter()
        .map(|f| f.key)
        .collect();
    let k2: Vec<String> = analyze(&[file("crates/cluster/src/cluster.rs", &src_v2)])
        .into_iter()
        .map(|f| f.key)
        .collect();
    assert_eq!(k1, k2, "keys survive line shifts");
    assert_ne!(k1[0], k1[1], "same-site duplicates get distinct #occ");
}
