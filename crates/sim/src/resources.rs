//! Timing-model resource primitives: server pools (bandwidth) and
//! occupancy rings (structure capacity).

/// A pool of `k` identical single-occupancy servers, the standard queueing
/// abstraction for per-cycle bandwidth (a width-`W` stage is `W` servers
/// with one-cycle service) and functional-unit contention.
///
/// An allocation's start depends only on the multiset of the servers'
/// free times, not on which of several tied servers is taken. The pool
/// therefore keeps just those times, ascending, in a ring: the head is
/// the earliest-free server.
#[derive(Debug, Clone)]
pub struct ServerPool {
    /// Free times in ascending order, starting at `head` and wrapping.
    free_at: Vec<u64>,
    head: usize,
}

impl ServerPool {
    /// Creates a pool of `k` servers, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "server pool needs at least one server");
        ServerPool {
            free_at: vec![0; k as usize],
            head: 0,
        }
    }

    /// Allocates the earliest-available server at or after `ready`,
    /// holding it for `busy` cycles. Returns the allocation (start) cycle.
    pub fn allocate(&mut self, ready: u64, busy: u64) -> u64 {
        let k = self.free_at.len();
        let start = ready.max(self.free_at[self.head]);
        let freed = start + busy.max(1);
        // The head's slot becomes the tail: take the head off, then shift
        // later free times up one slot until `freed` fits. An in-order
        // request (fetch, commit) frees last and costs one compare.
        let mut slot = self.head;
        self.head = if self.head + 1 == k { 0 } else { self.head + 1 };
        while slot != self.head {
            let prev = if slot == 0 { k - 1 } else { slot - 1 };
            if self.free_at[prev] <= freed {
                break;
            }
            self.free_at[slot] = self.free_at[prev];
            slot = prev;
        }
        self.free_at[slot] = freed;
        start
    }
}

/// A FIFO occupancy ring for capacity-limited structures (ROB, IQ, LSQ).
///
/// Entry `i` records the cycle at which the `i`-th allocated item *frees*
/// its slot. A new allocation at position `n` must wait until item
/// `n - capacity` has freed its slot — exactly the stall a full structure
/// imposes on dispatch.
#[derive(Debug, Clone)]
pub struct OccupancyRing {
    free_cycles: Vec<u64>,
    /// Slot of the next allocation, the oldest item's.
    next: usize,
}

impl OccupancyRing {
    /// Creates a ring for a structure of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "occupancy ring needs capacity");
        OccupancyRing {
            free_cycles: vec![0; capacity as usize],
            next: 0,
        }
    }

    /// Earliest cycle at which the next allocation finds a free slot.
    pub fn earliest_slot(&self) -> u64 {
        self.free_cycles[self.next]
    }

    /// Records that the item just allocated will free its slot at
    /// `free_cycle`.
    pub fn push(&mut self, free_cycle: u64) {
        self.free_cycles[self.next] = free_cycle;
        self.next += 1;
        if self.next == self.free_cycles.len() {
            self.next = 0;
        }
    }
}

/// A fixed-size ring recording per-instruction completion cycles for
/// dependency resolution. Distances beyond the window are treated as
/// always-resolved (cycle 0).
#[derive(Debug, Clone)]
pub struct CompletionWindow {
    cycles: Vec<u64>,
    /// `cycles.len() - 1`; the size is a power of two.
    mask: u64,
    count: u64,
}

impl CompletionWindow {
    /// Creates a window covering the last `size` instructions.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two.
    pub fn new(size: usize) -> Self {
        assert!(
            size.is_power_of_two(),
            "completion window size must be a power of two"
        );
        CompletionWindow {
            cycles: vec![0; size],
            mask: size as u64 - 1,
            count: 0,
        }
    }

    /// Completion cycle of the instruction `distance` positions back
    /// (`distance >= 1`); `0` when out of window or before the start.
    pub fn completion_of(&self, distance: u16) -> u64 {
        let d = u64::from(distance);
        if d == 0 || d > self.count || d > self.cycles.len() as u64 {
            return 0;
        }
        self.cycles[((self.count - d) & self.mask) as usize]
    }

    /// Appends the completion cycle of the newest instruction.
    pub fn push(&mut self, complete: u64) {
        self.cycles[(self.count & self.mask) as usize] = complete;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynawave_testkit::{check, Rng};

    /// The pool as a plain scan over per-server free times, taking the
    /// first earliest-free server: the oracle for the sorted ring.
    struct ScanPool {
        free_at: Vec<u64>,
    }

    impl ScanPool {
        fn allocate(&mut self, ready: u64, busy: u64) -> u64 {
            let mut best = 0usize;
            let mut best_at = self.free_at[0];
            for (i, &at) in self.free_at.iter().enumerate().skip(1) {
                if at < best_at {
                    best_at = at;
                    best = i;
                }
            }
            let start = ready.max(best_at);
            self.free_at[best] = start + busy.max(1);
            start
        }
    }

    /// A pool width and `(ready, busy)` requests whose ready cycles are
    /// monotone, near-monotone (small steps back) or random.
    fn pool_case(rng: &mut Rng) -> (u32, Vec<(u64, u64)>) {
        let k = rng.range_u32(1, 17);
        let n = rng.range_usize(1, 200);
        let shape = rng.range_u32(0, 3);
        let mut ready = 0u64;
        let requests = (0..n)
            .map(|_| {
                ready = match shape {
                    0 => ready + rng.range_u64(0, 3),
                    1 => (ready + rng.range_u64(0, 4)).saturating_sub(rng.range_u64(0, 3)),
                    _ => rng.range_u64(0, 400),
                };
                (ready, rng.range_u64(1, 5))
            })
            .collect();
        (k, requests)
    }

    #[test]
    fn sorted_ring_allocates_exactly_like_the_scan() {
        check("sorted-ring pool == scanning pool")
            .cases(512)
            .run(pool_case, |(k, requests)| {
                let k = (*k).max(1);
                let mut ring = ServerPool::new(k);
                let mut scan = ScanPool {
                    free_at: vec![0; k as usize],
                };
                for (i, &(ready, busy)) in requests.iter().enumerate() {
                    let (got, want) = (ring.allocate(ready, busy), scan.allocate(ready, busy));
                    if got != want {
                        return Err(format!("request {i} ({ready}, {busy}): {got} != {want}"));
                    }
                }
                Ok(())
            });
    }

    #[test]
    fn pool_serializes_when_single() {
        let mut p = ServerPool::new(1);
        assert_eq!(p.allocate(0, 1), 0);
        assert_eq!(p.allocate(0, 1), 1);
        assert_eq!(p.allocate(0, 1), 2);
        assert_eq!(p.allocate(10, 1), 10);
    }

    #[test]
    fn pool_parallelism_matches_width() {
        let mut p = ServerPool::new(4);
        // 8 requests at cycle 0 with unit service: two full cycles.
        let starts: Vec<u64> = (0..8).map(|_| p.allocate(0, 1)).collect();
        assert_eq!(starts.iter().filter(|&&s| s == 0).count(), 4);
        assert_eq!(starts.iter().filter(|&&s| s == 1).count(), 4);
    }

    #[test]
    fn pool_busy_time_respected() {
        let mut p = ServerPool::new(1);
        assert_eq!(p.allocate(0, 5), 0);
        assert_eq!(p.allocate(0, 1), 5);
        // The server is next free at cycle 6.
        assert_eq!(p.allocate(0, 1), 6);
    }

    #[test]
    fn ring_blocks_when_full() {
        let mut r = OccupancyRing::new(2);
        assert_eq!(r.earliest_slot(), 0);
        r.push(100); // item 0 frees at 100
        r.push(50); // item 1 frees at 50
                    // Item 2 reuses item 0's slot: must wait to 100.
        assert_eq!(r.earliest_slot(), 100);
        r.push(120);
        assert_eq!(r.earliest_slot(), 50);
        // Two slots, three items allocated: item 3 reuses item 1's slot
        // and item 4 reuses item 2's.
        r.push(130);
        assert_eq!(r.earliest_slot(), 120);
    }

    #[test]
    fn window_resolves_distances() {
        let mut w = CompletionWindow::new(4);
        w.push(10);
        w.push(20);
        w.push(30);
        assert_eq!(w.completion_of(1), 30);
        assert_eq!(w.completion_of(2), 20);
        assert_eq!(w.completion_of(3), 10);
        assert_eq!(w.completion_of(4), 0); // before start
        assert_eq!(w.completion_of(0), 0); // no dependence
        w.push(40);
        w.push(50); // overwrites the record of "10"
        assert_eq!(w.completion_of(5), 0); // out of window
        assert_eq!(w.completion_of(1), 50);
    }
}
