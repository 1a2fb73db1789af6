//! Timing-model resource primitives: server pools (bandwidth) and
//! occupancy rings (structure capacity).

/// A pool of `k` identical single-occupancy servers, the standard queueing
/// abstraction for per-cycle bandwidth (a width-`W` stage is `W` servers
/// with one-cycle service) and functional-unit contention.
#[derive(Debug, Clone)]
pub struct ServerPool {
    free_at: Vec<u64>,
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
        }
    }

    /// Allocates the earliest-available server at or after `ready`,
    /// holding it for `busy` cycles. Returns the allocation (start) cycle.
    pub fn allocate(&mut self, ready: u64, busy: u64) -> u64 {
        // Pools are small (<= 16); linear scan beats a heap here.
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

/// A FIFO occupancy ring for capacity-limited structures (ROB, IQ, LSQ).
///
/// Entry `i` records the cycle at which the `i`-th allocated item *frees*
/// its slot. A new allocation at position `n` must wait until item
/// `n - capacity` has freed its slot — exactly the stall a full structure
/// imposes on dispatch.
#[derive(Debug, Clone)]
pub struct OccupancyRing {
    free_cycles: Vec<u64>,
    count: u64,
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
            count: 0,
        }
    }

    /// Earliest cycle at which the next allocation finds a free slot.
    pub fn earliest_slot(&self) -> u64 {
        self.free_cycles[(self.count % self.free_cycles.len() as u64) as usize]
    }

    /// Records that the item just allocated will free its slot at
    /// `free_cycle`.
    pub fn push(&mut self, free_cycle: u64) {
        let idx = (self.count % self.free_cycles.len() as u64) as usize;
        self.free_cycles[idx] = free_cycle;
        self.count += 1;
    }
}

/// A fixed-size ring recording per-instruction completion cycles for
/// dependency resolution. Distances beyond the window are treated as
/// always-resolved (cycle 0).
#[derive(Debug, Clone)]
pub struct CompletionWindow {
    cycles: Vec<u64>,
    count: u64,
}

impl CompletionWindow {
    /// Creates a window covering the last `size` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "completion window needs a size");
        CompletionWindow {
            cycles: vec![0; size],
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
        let idx = ((self.count - d) % self.cycles.len() as u64) as usize;
        self.cycles[idx]
    }

    /// Appends the completion cycle of the newest instruction.
    pub fn push(&mut self, complete: u64) {
        let idx = (self.count % self.cycles.len() as u64) as usize;
        self.cycles[idx] = complete;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
