//! The idle-core rule of `ssa_relation::par::chunk_map`: a call splits
//! only onto cores that no `Busy` thread or helper occupies, and the
//! operators' chunked paths, run where they are sure to split.
//!
//! The count is process-wide, so these checks live in their own test
//! binary, where nothing else holds cores, and take one lock so they do
//! not hold cores during each other either. Under that lock a call with
//! nothing held splits into one chunk per core, every time.

use ssa_relation::ops::{join, oracle, product};
use ssa_relation::par::{chunk_map, Busy, PARALLEL_THRESHOLD};
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::Int;
use ssa_relation::{tuple, Expr, Relation, RelationError, Tuple};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed check poisons the lock; the next check still runs alone.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Each chunk's first item and the thread that computed it.
fn chunks(items: &[u32]) -> Vec<(u32, ThreadId)> {
    chunk_map(items, true, |c| (c[0], thread::current().id())).expect("no chunk panics")
}

/// Run `check` while `n` other threads each hold a `Busy` guard.
fn with_busy_threads<R>(n: usize, check: impl FnOnce() -> R) -> R {
    let entered = Barrier::new(n + 1);
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| {
                let _busy = Busy::enter();
                entered.wait();
                // Blocks until `release` is dropped below.
                let _ = released.lock().expect("no holder panics").recv();
            });
        }
        entered.wait();
        let out = check();
        drop(release);
        out
    })
}

#[test]
fn no_idle_core_runs_inline_on_the_caller() {
    let _serial = serial();
    let items: Vec<u32> = (0..10_000).collect();
    let out = with_busy_threads(cores(), || chunks(&items));
    assert_eq!(out, vec![(0, thread::current().id())]);
}

#[test]
fn idle_cores_split_in_slice_order_with_the_first_chunk_on_the_caller() {
    let _serial = serial();
    if cores() < 2 {
        return;
    }
    let items: Vec<u32> = (0..10_000).collect();
    let out = chunks(&items);
    assert_eq!(out.len(), cores(), "one chunk per idle core");
    assert_eq!(out[0], (0, thread::current().id()));
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "slice order");
    assert!(out[1..].iter().all(|&(_, t)| t != thread::current().id()));
}

#[test]
fn a_panicking_chunk_fails_the_call_and_gives_its_cores_back() {
    let _serial = serial();
    if cores() < 2 {
        return;
    }
    let items: Vec<u32> = (0..10_000).collect();
    assert_eq!(chunks(&items).len(), cores(), "the calls below split");
    // A panic in the last chunk, on a helper, then in the first, on the
    // caller.
    for panics_at in [items.len() as u32 - 1, 0] {
        let out = chunk_map(&items, true, |c| {
            assert!(!c.contains(&panics_at), "chunk panicked");
            c.len()
        });
        assert_eq!(
            out,
            Err(RelationError::WorkerPanicked {
                site: "chunk panicked".to_string()
            }),
            "panic at {panics_at}"
        );
        assert_eq!(
            chunks(&items).len(),
            cores(),
            "after a panic at {panics_at}"
        );
    }
}

#[test]
fn a_busy_caller_is_counted_once() {
    let _serial = serial();
    if cores() < 2 {
        return;
    }
    let items: Vec<u32> = (0..10_000).collect();
    // A server worker: its own guard counts the core its first chunk
    // runs on, so with nothing else held every other core helps.
    let busy = Busy::enter();
    assert_eq!(chunks(&items).len(), cores());
    // This thread and `cores() - 2` others leave one core idle.
    let out = with_busy_threads(cores() - 2, || chunks(&items));
    assert_eq!(out.len(), 2, "one helper on the one idle core");
    drop(busy);
    assert_eq!(chunks(&items).len(), cores());
}

/// Inputs above [`PARALLEL_THRESHOLD`], so the chunked paths run split:
/// a hash join whose probe side and output cross it, one whose build
/// side crosses it too, and a product whose cardinality does. Each must
/// equal the sequential definition row for row.
#[test]
fn join_and_product_above_the_parallel_threshold_match_oracle() {
    let _serial = serial();
    if cores() >= 2 {
        let probe: Vec<u32> = (0..10_000).collect();
        assert_eq!(chunks(&probe).len(), cores(), "the calls below split");
    }
    let n = PARALLEL_THRESHOLD as i64 + 808;
    let rel = |name: &str, cols: [&str; 2], rows: Vec<Tuple>| {
        Relation::with_rows(name, Schema::of(&[(cols[0], Int), (cols[1], Int)]), rows).unwrap()
    };

    // Probe side and output above the threshold, build side small
    // enough for the select-of-product oracle.
    let big = rel(
        "big",
        ["k", "v"],
        (0..n).map(|i| tuple![i % 3, i]).collect(),
    );
    let small = rel(
        "small",
        ["j", "w"],
        (0..6).map(|i| tuple![i % 3, i]).collect(),
    );
    let cond = Expr::col("k")
        .eq(Expr::col("j"))
        .and(Expr::col("v").gt(Expr::col("w")));
    let j = join(&big, &small, &cond).unwrap();
    assert!(j.len() >= PARALLEL_THRESHOLD, "the gather runs chunked");
    assert_eq!(j.rows(), oracle::join(&big, &small, &cond).unwrap().rows());

    // Both sides above the threshold (the build partitions run chunked
    // too): unique keys, so row i pairs with row i.
    let left = rel("l", ["k", "v"], (0..n).map(|i| tuple![i, i]).collect());
    let right = rel(
        "r",
        ["j", "w"],
        (0..n).rev().map(|i| tuple![i, -i]).collect(),
    );
    let j = join(&left, &right, &Expr::col("k").eq(Expr::col("j"))).unwrap();
    let expected: Vec<Tuple> = (0..n).map(|i| tuple![i, i, i, -i]).collect();
    assert_eq!(j.rows(), &expected);

    // |l| × |r| = 10 000 output rows.
    let l = rel(
        "l",
        ["a", "b"],
        (0..100).map(|i| tuple![i, i % 7]).collect(),
    );
    let r = rel(
        "r",
        ["c", "d"],
        (0..100).map(|i| tuple![i % 5, i]).collect(),
    );
    let p = product(&l, &r).unwrap();
    assert!(p.len() >= PARALLEL_THRESHOLD);
    assert_eq!(p.rows(), oracle::product(&l, &r).unwrap().rows());
}
