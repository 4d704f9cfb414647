//! The one scoped fan-out every parallel loop of the solver uses.
//!
//! Parallelism in the solver only decides *who* computes each job, never
//! *what* is computed: jobs are pure functions of their index (plus
//! per-worker scratch state), results come back in index order, and
//! every worker's [`offload_obs::PipelineStats`] record is handed back
//! to the joining thread, so both answers and counters are independent
//! of scheduling.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker threads the machine can actually run at once. Spawning more
/// scoped workers than cores never helps — they time-slice one another
/// and pay spawn/teardown plus cold thread-local caches for nothing — so
/// every fan-out site caps its worker count here. Which thread computes
/// a job never changes its result, so the cap is output-invisible.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `job(state, i)` for every `i` in `0..n` and returns the results
/// in index order, together with each worker's final state.
///
/// With fewer than two workers (or jobs) everything runs inline on one
/// state. Otherwise `min(workers, n)` scoped threads each build a state
/// with `init` and drain a shared index; at join, each worker's counter
/// record is added to the calling thread's, and a worker panic is
/// re-raised on the caller.
pub fn fan_out<S, T>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
{
    let workers = workers.min(n);
    if workers <= 1 {
        let mut state = init();
        let out = (0..n).map(|i| job(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, job(&mut state, i)));
                    }
                    (done, state, offload_obs::take_tally())
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((done, state, record)) => {
                    for (i, t) in done {
                        slots[i] = Some(t);
                    }
                    states.push(state);
                    offload_obs::tally(|t| *t += record);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let out = slots
        .into_iter()
        .map(|t| t.expect("every index is claimed by exactly one worker"))
        .collect();
    (out, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_and_records_come_back() {
        for workers in [1, 2, 4] {
            let ((out, states), record) = offload_obs::tallied(|| {
                fan_out(
                    37,
                    workers,
                    || 0usize,
                    |jobs, i| {
                        *jobs += 1;
                        offload_obs::tally(|t| t.lp_solves += 1);
                        i * i
                    },
                )
            });
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(states.iter().sum::<usize>(), 37);
            assert_eq!(states.len(), workers);
            assert_eq!(record.lp_solves, 37, "workers={workers}");
        }
    }
}
