//! Global append-only string interner backing [`crate::value::Value::Str`].
//!
//! Every distinct string the process ever stores in a `Value` is interned
//! exactly once and addressed by a [`Sym`] — a `Copy` 32-bit handle. The
//! interner guarantees *one id per distinct string*, which buys the three
//! properties the evaluation engine is built around:
//!
//! * **cloning** a string value is a memcpy of the handle (no heap
//!   traffic) — the final row gather of the index-vector engine becomes
//!   near-memcpy even for string-heavy relations;
//! * **equality and hashing** are O(1) on the symbol id — dedup (DE),
//!   grouping (τ) and aggregation (η) key hashing never touch string
//!   bytes;
//! * **ordering** stays the lexicographic order Def. 1 requires: resolved
//!   through a per-interner *sorted-rank cache* that is invalidated by
//!   inserts and rebuilt lazily on the first bulk comparison afterwards.
//!   Individual comparisons whose ids the current cache does not cover
//!   fall back to comparing the resolved strings directly, so correctness
//!   never waits on a rebuild.
//!
//! Storage is append-only: interned strings are leaked into the heap
//! (`Box::leak`) so resolution hands out `&'static str`. Resolution takes
//! no lock at all: each leaked string sits in one slot of a fixed array
//! of power-of-two buckets (`BUCKETS`), written once under the
//! interner's write lock before its id is returned, so any thread holding
//! a `Sym` finds its slot already filled. Memory is bounded by the number
//! of *distinct* strings, which is the same bound an `Arc<str>`-page
//! design would give a process-lifetime interner — with none of the
//! refcount traffic. Persistence must always write the resolved text,
//! never the id: ids are assigned in first-seen order and are meaningless
//! across processes (see `spreadsheet-algebra`'s `persist` module).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// An interned string handle. `Copy`, 4 bytes; equality is id equality
/// (one id per distinct string), ordering is lexicographic on the
/// resolved text.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// id → string, lock-free to read. Bucket `b` holds the `2^b` ids
/// `2^b - 1 ..= 2^(b+1) - 2`, so 32 buckets cover every id below
/// `u32::MAX`; a bucket is allocated when its first id is interned.
type Bucket = Box<[OnceLock<&'static str>]>;
static BUCKETS: [OnceLock<Bucket>; 32] = [const { OnceLock::new() }; 32];

/// The (bucket, offset) slot of an id.
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let bucket = n.ilog2() as usize;
    (bucket, (n - (1 << bucket)) as usize)
}

/// Lexicographic ranks, a snapshot: `ranks[id]` is the rank of `id` among
/// the first `ranks.len()` interned strings. Internally consistent — two
/// ids both below `len()` compare by rank exactly as their strings
/// compare — even if the interner has grown since the snapshot.
type RankSnapshot = Arc<Vec<u32>>;

/// string → id, for dedup on intern. Its length is the number of ids
/// handed out; only inserts take the write lock.
fn interner() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

fn rank_cache() -> &'static RwLock<RankSnapshot> {
    static RANKS: OnceLock<RwLock<RankSnapshot>> = OnceLock::new();
    RANKS.get_or_init(|| RwLock::new(Arc::new(Vec::new())))
}

impl Sym {
    /// Intern `s`, returning its unique handle. O(1) (one hash probe)
    /// when the string was seen before; first sights allocate once, for
    /// the lifetime of the process.
    pub fn intern(s: &str) -> Sym {
        {
            let map = interner().read().expect("interner lock poisoned");
            if let Some(&id) = map.get(s) {
                return Sym(id);
            }
        }
        let mut map = interner().write().expect("interner lock poisoned");
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        Sym::insert_locked(&mut map, Box::leak(s.to_owned().into_boxed_str()))
    }

    /// Intern an owned string; new strings keep their buffer (no copy).
    pub fn from_string(s: String) -> Sym {
        {
            let map = interner().read().expect("interner lock poisoned");
            if let Some(&id) = map.get(s.as_str()) {
                return Sym(id);
            }
        }
        let mut map = interner().write().expect("interner lock poisoned");
        if let Some(&id) = map.get(s.as_str()) {
            return Sym(id);
        }
        Sym::insert_locked(&mut map, Box::leak(s.into_boxed_str()))
    }

    /// Assign the next id to `leaked`: fill its bucket slot, then publish
    /// it in the map. Runs under the write lock, so ids are dense and
    /// each slot is written exactly once.
    fn insert_locked(map: &mut HashMap<&'static str, u32>, leaked: &'static str) -> Sym {
        let id = u32::try_from(map.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("interner overflow: > 2^32 - 1 strings");
        let (bucket, offset) = slot(id);
        let filled = BUCKETS[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect())[offset]
            .set(leaked);
        assert!(filled.is_ok(), "interner slot {id} written twice");
        map.insert(leaked, id);
        Sym(id)
    }

    /// The interned text. `'static` because storage is append-only and
    /// process-lived; lock-free (two acquire loads).
    pub fn as_str(self) -> &'static str {
        let (bucket, offset) = slot(self.0);
        BUCKETS[bucket]
            .get()
            .and_then(|b| b[offset].get())
            .expect("a Sym's slot is filled before the Sym exists")
    }

    /// The raw id — exposed for columnar sort keys; never persist it.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Number of distinct strings interned so far (diagnostics/tests).
    pub fn interned_count() -> usize {
        interner().read().expect("interner lock poisoned").len()
    }
}

/// The current lexicographic rank snapshot, rebuilt if inserts happened
/// since the last build. `snapshot[sym.id()]` orders exactly like
/// `sym.as_str()` for every sym whose id is below `snapshot.len()`.
///
/// Bulk sorts call this once and then compare plain `u32`s; the rebuild
/// is O(n log n) over distinct strings and amortizes across every sort
/// until the next insert.
pub fn rank_snapshot() -> RankSnapshot {
    {
        let cached = rank_cache().read().expect("rank cache poisoned");
        if cached.len() == Sym::interned_count() {
            return Arc::clone(&cached);
        }
    }
    let mut cached = rank_cache().write().expect("rank cache poisoned");
    // Ids below the count read here are all resolvable; later inserts
    // only make the snapshot stale, which the next call detects.
    let n = Sym::interned_count();
    if cached.len() == n {
        return Arc::clone(&cached);
    }
    let mut by_text: Vec<Sym> = (0..n as u32).map(Sym).collect();
    by_text.sort_unstable_by_key(|s| s.as_str());
    let mut ranks = vec![0u32; n];
    for (rank, s) in by_text.iter().enumerate() {
        ranks[s.0 as usize] = rank as u32;
    }
    *cached = Arc::new(ranks);
    Arc::clone(&cached)
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        // Fast path: the current rank snapshot covers both ids → two
        // array reads. (Kept internally consistent: both ids must be
        // below the *snapshot's* length, not the interner's.)
        {
            let cached = rank_cache().read().expect("rank cache poisoned");
            let n = cached.len() as u32;
            if self.0 < n && other.0 < n {
                return cached[self.0 as usize].cmp(&cached[other.0 as usize]);
            }
        }
        // Slow path (ids newer than the last rebuilt snapshot): compare
        // the resolved text. Correct regardless of cache state; bulk
        // sorts trigger the rebuild via `rank_snapshot`.
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?} #{})", self.as_str(), self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::from_string(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(s: Sym) -> u64 {
        let mut hasher = DefaultHasher::new();
        s.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn one_id_per_distinct_string() {
        let a = Sym::intern("intern-test-alpha");
        let b = Sym::intern("intern-test-alpha");
        let c = Sym::from_string("intern-test-alpha".to_string());
        let d = Sym::intern("intern-test-beta");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.id(), b.id());
        assert_eq!(h(a), h(b));
    }

    #[test]
    fn resolution_round_trips() {
        let s = "intern-test-round-trip \u{1F5C2} ünïcode";
        assert_eq!(Sym::intern(s).as_str(), s);
        assert_eq!(Sym::from_string(s.to_string()).as_str(), s);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut syms: Vec<Sym> = ["pear", "apple", "Banana", "apple pie", "", "zzz"]
            .iter()
            .map(|s| Sym::intern(s))
            .collect();
        syms.sort();
        let sorted: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        let mut expect = vec!["pear", "apple", "Banana", "apple pie", "", "zzz"];
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn rank_snapshot_orders_like_strings() {
        // Force strings in non-lexicographic insert order.
        let syms: Vec<Sym> = ["mmm", "aaa", "zzz", "mm", "aab"]
            .iter()
            .map(|s| Sym::intern(s))
            .collect();
        let snap = rank_snapshot();
        for a in &syms {
            for b in &syms {
                assert_eq!(
                    snap[a.id() as usize].cmp(&snap[b.id() as usize]),
                    a.as_str().cmp(b.as_str()),
                    "rank order must match text order for {:?} vs {:?}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn rank_snapshot_rebuilds_after_insert() {
        let before = rank_snapshot();
        // A string no other test interns, to force growth.
        let fresh = Sym::intern("intern-test-rebuild-sentinel-93142");
        assert!(before.len() as u32 <= fresh.id());
        let after = rank_snapshot();
        assert!(after.len() as u32 > fresh.id());
        // Comparisons against a fresh id are still correct pre-rebuild.
        let apple = Sym::intern("apple");
        assert_eq!(fresh.cmp(&apple), fresh.as_str().cmp(apple.as_str()));
    }

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(1), (1, 0));
        assert_eq!(slot(2), (1, 1));
        assert_eq!(slot(3), (2, 0));
        assert_eq!(slot(6), (2, 3));
        assert_eq!(slot(7), (3, 0));
        assert_eq!(slot(u32::MAX - 1), (31, (1 << 31) - 1));
    }

    #[test]
    fn resolution_races_with_interning_across_a_bucket_boundary() {
        // The interner thread hands each fresh sym over a rendezvous
        // channel, so the resolver reads it the moment `intern` returns —
        // while later ids (and new buckets) are still being written.
        let (tx, rx) = std::sync::mpsc::sync_channel::<(Sym, String)>(0);
        let syms = std::thread::scope(|s| {
            s.spawn(move || {
                let mut first_bucket = None;
                for i in 0.. {
                    let text = format!("intern-test-race-{i}");
                    let sym = Sym::from_string(text.clone());
                    let bucket = slot(sym.id()).0;
                    tx.send((sym, text)).expect("resolver alive");
                    if *first_bucket.get_or_insert(bucket) < bucket && i >= 64 {
                        return;
                    }
                }
            });
            let resolver = s.spawn(move || {
                rx.into_iter()
                    .map(|(sym, text)| {
                        assert_eq!(sym.as_str(), text, "sym #{} resolved early", sym.id());
                        sym
                    })
                    .collect::<Vec<Sym>>()
            });
            resolver.join().expect("resolver thread panicked")
        });
        let buckets: Vec<usize> = syms.iter().map(|s| slot(s.id()).0).collect();
        assert!(buckets.windows(2).any(|w| w[0] < w[1]), "no bucket crossed");

        let max_id = syms.iter().map(|s| s.id()).max().expect("syms interned");
        assert!(Sym::interned_count() > max_id as usize);
        let snap = rank_snapshot();
        assert!(snap.len() > max_id as usize);
        let mut by_rank = syms.clone();
        by_rank.sort_by_key(|s| snap[s.id() as usize]);
        for w in by_rank.windows(2) {
            assert!(w[0].as_str() < w[1].as_str(), "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .map(|i| Sym::intern(&format!("intern-test-concurrent-{i}")).id())
                            .collect::<Vec<u32>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("interner thread panicked"))
                .collect()
        });
        for w in ids.windows(2) {
            assert_eq!(w[0], w[1], "same strings must get the same ids");
        }
    }
}
