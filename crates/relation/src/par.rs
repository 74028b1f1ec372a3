//! The one place in the relational operators and the evaluation engine
//! that starts threads.
//!
//! One pattern serves every data-parallel loop in the workspace: split a
//! slice into one chunk per idle core, run the worker on scoped
//! threads, and hand the per-chunk results back *in order* so callers can
//! concatenate without re-sorting. Sequential execution (one chunk) is
//! the degenerate case, so call sites stay branch-free: they compare
//! their row count with [`PARALLEL_THRESHOLD`] and let [`chunk_map`] do
//! the rest.
//!
//! Helpers go only to idle cores. One process-wide count holds the
//! threads that occupy a core: every [`Busy`] guard's thread (a server
//! worker while it routes a request) and every helper a call started. A
//! call's own thread is one of those workers or, outside the server, the
//! one caller no guard counts, so it claims `cores - max(count, 1)`
//! helpers with a compare-and-swap, runs the first chunk itself, and
//! starts one helper per further chunk. When no core is free it runs
//! inline and starts nothing, so sessions that already fill the cores
//! are not slowed by threads competing for them, while a lone caller
//! still gets every core. Against one thread per core on every call,
//! this cut the end-to-end benchmark's `study_tasks` gesture latency
//! 31.9 → 24.9 ms and its server's resident memory 271 → 211 MB on a
//! 2-vCPU machine (two sessions evaluating at once), with `refine` and
//! `live_orders` within their bounds. Running every call inline did
//! ~7% better still there in an earlier probe, but a lone caller would lose the split: over 7
//! alternating runs the `eval_engine` bench's 100k-row indexed
//! evaluation took a median 39.7 ms split and 50.9 ms inline, and its
//! gated speedup over the sequential naive engine fell 2.18x → 1.55x
//! (lower in 7/7 pairs).
//!
//! Worker panics never abort the process: chunks run on the calling
//! thread (via `catch_unwind`) and on helpers (via the `join` result)
//! surface them as [`RelationError::WorkerPanicked`], so the panic policy
//! is uniform on both sides of the threshold.

use crate::error::{RelationError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Row count from which the operators and the evaluation engine split
/// their work across threads: spawning costs microseconds, so smaller
/// inputs are faster sequentially. Fixed, not a setting.
pub const PARALLEL_THRESHOLD: usize = 8192;

/// Threads of this process that occupy a core right now: [`Busy`]
/// threads and claimed helpers. Only the claims below read it to decide
/// anything, and they read and update it with compare-and-swap; it
/// publishes no other data.
static OCCUPIED: AtomicUsize = AtomicUsize::new(0);

/// The machine's cores, read once: `available_parallelism` reads the
/// cgroup files on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Counts the current thread as occupying a core until dropped, so
/// [`chunk_map`] calls on any thread leave that core to it.
pub struct Busy(());

impl Busy {
    pub fn enter() -> Busy {
        OCCUPIED.fetch_add(1, Ordering::SeqCst);
        Busy(())
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        OCCUPIED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Cores claimed for helper threads; dropping it gives them back, also
/// when a chunk panics or a helper fails to start.
struct Claim(usize);

impl Claim {
    /// Claim up to `want` cores that nothing occupies. The caller's own
    /// core counts as occupied even when no [`Busy`] guard holds it.
    fn idle(want: usize) -> Claim {
        let mut now = OCCUPIED.load(Ordering::SeqCst);
        loop {
            let free = cores().saturating_sub(now.max(1)).min(want);
            if free == 0 {
                return Claim(0);
            }
            match OCCUPIED.compare_exchange_weak(
                now,
                now + free,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Claim(free),
                Err(seen) => now = seen,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        OCCUPIED.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Render a caught panic payload for [`RelationError::WorkerPanicked`].
/// `&str` and `String` payloads (everything `panic!` produces in this
/// workspace, including armed failpoints) pass through verbatim.
fn panic_site(payload: Box<dyn std::any::Any + Send>) -> RelationError {
    let site = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    };
    RelationError::WorkerPanicked { site }
}

/// Run `f` over `items`, chunked across the cores nothing else occupies
/// when `parallel`; chunk results come back in order, and the first
/// chunk runs on the calling thread. A panic inside `f`, on any thread,
/// is caught and returned as [`RelationError::WorkerPanicked`].
pub fn chunk_map<T, R, F>(items: &[T], parallel: bool, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let helpers = if parallel {
        Claim::idle(items.len().min(cores()).saturating_sub(1))
    } else {
        Claim(0)
    };
    let run = |c: &[T]| {
        #[cfg(feature = "fault-injection")]
        crate::fault::maybe_panic("par.chunk");
        f(c)
    };
    // The closure is re-entered nowhere after a panic, and all results
    // flow through the return value, so broken-invariant observation is
    // impossible: AssertUnwindSafe is sound here.
    let inline = |c: &[T]| catch_unwind(AssertUnwindSafe(|| run(c))).map_err(panic_site);
    if helpers.0 == 0 {
        return Ok(vec![inline(items)?]);
    }
    let mut chunks = items.chunks(items.len().div_ceil(helpers.0 + 1));
    let first = chunks.next().unwrap_or_default();
    let run = &run;
    std::thread::scope(|s| {
        // A helper that fails to start leaves its chunk to the caller.
        let started: Vec<_> = chunks
            .map(|c| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || run(c))
                    .map_err(|_| c)
            })
            .collect();
        // Join every chunk before looking at any result, so the scope
        // exits cleanly; then report the first panic.
        let results: Vec<Result<R>> = std::iter::once(inline(first))
            .chain(started.into_iter().map(|h| match h {
                Ok(h) => h.join().map_err(panic_site),
                Err(c) => inline(c),
            }))
            .collect();
        results.into_iter().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_order() {
        let items: Vec<u32> = (0..10_000).collect();
        for parallel in [false, true] {
            let sums = chunk_map(&items, parallel, |c| {
                c.iter().map(|&x| x as u64).sum::<u64>()
            })
            .unwrap();
            assert_eq!(sums.iter().sum::<u64>(), 49_995_000);
            let firsts = chunk_map(&items, parallel, |c| c[0]).unwrap();
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            assert_eq!(firsts, sorted, "chunks must arrive in slice order");
        }
    }

    #[test]
    fn empty_input_yields_one_empty_chunk() {
        let out = chunk_map(&[] as &[u32], true, <[u32]>::len).unwrap();
        assert_eq!(out, vec![0]);
    }

    /// The inline path; a panic on a helper is checked in
    /// `tests/par.rs`, where no other test holds the cores.
    #[test]
    fn worker_panic_becomes_typed_error_inline() {
        let items: Vec<u32> = (0..20_000).collect();
        let out = chunk_map(&items, false, |c| {
            if c.contains(&7) {
                panic!("boom in chunk");
            }
            c.len()
        });
        assert_eq!(
            out,
            Err(RelationError::WorkerPanicked {
                site: "boom in chunk".to_string()
            })
        );
    }
}
