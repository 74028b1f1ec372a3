//! The one place in the relational operators and the evaluation engine
//! that starts threads.
//!
//! One pattern serves every data-parallel loop in the workspace: split a
//! slice into one chunk per available core, run the worker on scoped
//! threads, and hand the per-chunk results back *in order* so callers can
//! concatenate without re-sorting. Sequential execution (one chunk) is
//! the degenerate case, so call sites stay branch-free: they compare
//! their row count with [`PARALLEL_THRESHOLD`] and let [`chunk_map`] do
//! the rest.
//!
//! The threads stay because they pay on the interactive paths: with
//! every call forced sequential, the end-to-end benchmark's `live_orders`
//! view latency rose 27% (0.91 → 1.15 ms) and `refine` gestures slowed
//! 14% (0.463 → 0.529 ms) on a 2-vCPU machine. Splitting work any other
//! way (per sort key, merge-sort runs, two relations at once) measured
//! within noise end to end, so sorting and the cache patches run
//! sequentially.
//!
//! Worker panics never abort the process: both the sequential path
//! (via `catch_unwind`) and the threaded path (via the `join` result)
//! surface them as [`RelationError::WorkerPanicked`], so the panic policy
//! is uniform on both sides of the threshold.

use crate::error::{RelationError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Row count from which the operators and the evaluation engine split
/// their work across threads: spawning costs microseconds, so smaller
/// inputs are faster sequentially. Fixed, not a setting.
pub const PARALLEL_THRESHOLD: usize = 8192;

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

/// Run `f` over `items`, chunked across scoped threads when `parallel`
/// (and the machine has them); chunk results come back in order. A panic
/// inside `f` — on any thread, or inline on the sequential path — is
/// caught and returned as [`RelationError::WorkerPanicked`].
pub fn chunk_map<T, R, F>(items: &[T], parallel: bool, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        1
    };
    let workers = workers.min(items.len().max(1));
    let run = |c: &[T]| {
        #[cfg(feature = "fault-injection")]
        crate::fault::maybe_panic("par.chunk");
        f(c)
    };
    if workers <= 1 {
        // The closure is re-entered nowhere after a panic, and all results
        // flow through the return value, so broken-invariant observation
        // is impossible: AssertUnwindSafe is sound here.
        return catch_unwind(AssertUnwindSafe(|| vec![run(items)])).map_err(panic_site);
    }
    let chunk = items.len().div_ceil(workers);
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || run(c)))
            .collect();
        // Join every handle so the scope exits cleanly, but report the
        // first panic.
        let mut out = Vec::with_capacity(handles.len());
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => {
                    panicked.get_or_insert(panic_site(payload));
                }
            }
        }
        match panicked {
            Some(e) => Err(e),
            None => Ok(out),
        }
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

    #[test]
    fn worker_panic_becomes_typed_error_on_both_paths() {
        let items: Vec<u32> = (0..20_000).collect();
        for parallel in [false, true] {
            let out = chunk_map(&items, parallel, |c| {
                if c.contains(&7) {
                    panic!("boom in chunk");
                }
                c.len()
            });
            assert_eq!(
                out,
                Err(RelationError::WorkerPanicked {
                    site: "boom in chunk".to_string()
                }),
                "parallel={parallel}"
            );
        }
    }
}
