//! Slow-request forensics: a fixed-size ring retaining the N slowest
//! dispatch batches the server has handled.
//!
//! Aggregate histograms tell you *that* p99 moved; the ring tells you
//! *which requests* moved it — each entry keeps the trace id (so the
//! batch can be found in a merged trace), the per-stage breakdown, the
//! batch size, and the plan-cache outcome. The ring ships inside every
//! [`StatsReport`](crate::protocol::WireMsg::StatsReport) and `obstop`
//! renders it as the slow-request table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One retained slow dispatch batch: identity plus a per-stage timing
/// breakdown in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlowRequest {
    /// Client-propagated trace id (0 when the request was untraced).
    pub trace_id: u64,
    /// Points in the batch.
    pub batch_points: u32,
    /// Plan-cache lookup plus choice selection for every point.
    pub select_us: u64,
    /// Encoding and writing the reply frame.
    pub reply_us: u64,
    /// End-to-end server-side time (>= the stage sum; includes decode
    /// and bookkeeping between stages).
    pub total_us: u64,
    /// Whether the dispatch plan came out of the cache.
    pub cache_hit: bool,
}

/// A fixed-capacity "keep the slowest" ring.
///
/// `offer` is called once per dispatch batch on the server hot path, so
/// the common case — a request faster than everything already retained —
/// must stay cheap: a full ring publishes its smallest retained
/// `total_us` in an atomic *floor*, and offers at or below the floor
/// return after one relaxed load without touching the lock.
#[derive(Debug)]
pub struct SlowRing {
    cap: usize,
    /// Smallest retained `total_us` once the ring is full; 0 while it
    /// still has room (so every offer is admitted).
    floor: AtomicU64,
    entries: Mutex<Vec<SlowRequest>>,
}

impl SlowRing {
    /// An empty ring retaining up to `cap` requests (`cap == 0` disables
    /// retention entirely).
    pub fn new(cap: usize) -> Self {
        SlowRing {
            cap,
            floor: AtomicU64::new(if cap == 0 { u64::MAX } else { 0 }),
            entries: Mutex::new(Vec::with_capacity(cap.min(1024))),
        }
    }

    /// Offers a completed request; it is retained iff it is slower than
    /// the fastest currently-retained entry (or the ring has room).
    pub fn offer(&self, req: SlowRequest) {
        if req.total_us <= self.floor.load(Ordering::Relaxed) && req.total_us != 0 {
            return;
        }
        if self.cap == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() < self.cap {
            entries.push(req);
            if entries.len() == self.cap {
                let min = entries.iter().map(|e| e.total_us).min().unwrap_or(0);
                self.floor.store(min, Ordering::Relaxed);
            }
            return;
        }
        // Full: replace the fastest entry if this one is slower.
        let (idx, min) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total_us)
            .map(|(i, e)| (i, e.total_us))
            .expect("full ring is non-empty");
        if req.total_us > min {
            entries[idx] = req;
            let new_min = entries.iter().map(|e| e.total_us).min().unwrap_or(0);
            self.floor.store(new_min, Ordering::Relaxed);
        }
    }

    /// The retained requests, slowest first.
    pub fn snapshot(&self) -> Vec<SlowRequest> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = entries.clone();
        out.sort_by_key(|r| std::cmp::Reverse(r.total_us));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(total_us: u64) -> SlowRequest {
        SlowRequest {
            trace_id: total_us,
            total_us,
            ..SlowRequest::default()
        }
    }

    #[test]
    fn keeps_the_slowest() {
        let ring = SlowRing::new(3);
        for t in [5, 1, 9, 2, 7, 3, 8] {
            ring.offer(req(t));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(got, vec![9, 8, 7]);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let ring = SlowRing::new(0);
        ring.offer(req(10));
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn fast_path_rejects_at_floor() {
        let ring = SlowRing::new(2);
        ring.offer(req(10));
        ring.offer(req(20));
        // Floor is now 10; an equal offer must not displace anything.
        ring.offer(req(10));
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(got, vec![20, 10]);
    }
}
