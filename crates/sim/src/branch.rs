//! Front-end predictors: gshare, BTB and return-address stack.

use crate::cache::Cache;

/// A gshare direction predictor: global history XOR PC indexes a table of
/// 2-bit saturating counters (Table 1: 2K entries, 10-bit history).
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
    lookups: u64,
    mispredicts: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters (rounded down to a
    /// power of two) and `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: u32, history_bits: u32) -> Self {
        assert!(entries > 0, "predictor needs entries");
        let entries = {
            let mut p = 1u32;
            while p * 2 <= entries {
                p *= 2;
            }
            p
        };
        Gshare {
            table: vec![2; entries as usize], // weakly taken
            mask: u64::from(entries) - 1,
            history: 0,
            history_mask: (1u64 << history_bits.min(63)) - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// counters and history with the actual `taken` outcome. Returns
    /// `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        if taken {
            if self.table[idx] < 3 {
                self.table[idx] += 1;
            }
        } else if self.table[idx] > 0 {
            self.table[idx] -= 1;
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        let correct = predicted == taken;
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }

    /// Total predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

/// A bimodal (per-PC 2-bit counter) direction predictor — the classic
/// baseline gshare is usually compared against. Available as an
/// alternative front end via
/// [`MachineConfig`](crate::MachineConfig)`::bp_kind`.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u64,
    lookups: u64,
    mispredicts: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters (rounded down to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "predictor needs entries");
        let entries = {
            let mut p = 1u32;
            while p * 2 <= entries {
                p *= 2;
            }
            p
        };
        Bimodal {
            table: vec![2; entries as usize],
            mask: u64::from(entries) - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// Predicts the direction of the branch at `pc`, then updates the
    /// counter with the actual outcome. Returns `true` if correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let idx = ((pc >> 2) & self.mask) as usize;
        let predicted = self.table[idx] >= 2;
        if taken {
            if self.table[idx] < 3 {
                self.table[idx] += 1;
            }
        } else if self.table[idx] > 0 {
            self.table[idx] -= 1;
        }
        let correct = predicted == taken;
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }

    /// Misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

/// A branch target buffer modelled as a tag cache over branch PCs.
///
/// A taken branch whose target is absent costs a fetch bubble even when
/// the direction was predicted correctly.
#[derive(Debug, Clone)]
pub struct Btb {
    inner: Cache,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries < ways` or `ways == 0`.
    pub fn new(entries: u32, ways: u32) -> Self {
        Btb {
            // One "line" per 4-byte instruction slot.
            inner: Cache::new(u64::from(entries) * 4, ways, 4),
        }
    }

    /// Looks up (and on miss, installs) the branch at `pc`.
    /// Returns `true` on hit.
    pub fn access(&mut self, pc: u64) -> bool {
        self.inner.access(pc)
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_bias() {
        let mut g = Gshare::new(1024, 8);
        for _ in 0..1000 {
            g.predict_and_update(0x400, true);
        }
        assert!(g.mispredict_rate() < 0.05, "{}", g.mispredict_rate());
    }

    #[test]
    fn gshare_learns_alternation_via_history() {
        let mut g = Gshare::new(4096, 10);
        let mut taken = false;
        for _ in 0..4000 {
            taken = !taken;
            g.predict_and_update(0x400, taken);
        }
        // After warmup, the alternating pattern is history-predictable.
        let warm = g.mispredicts();
        for _ in 0..4000 {
            taken = !taken;
            g.predict_and_update(0x400, taken);
        }
        let later = g.mispredicts() - warm;
        assert!(later < 200, "second-half mispredicts {later}");
    }

    #[test]
    fn gshare_struggles_on_random() {
        let mut g = Gshare::new(1024, 10);
        let mut state = 0x12345u64;
        for _ in 0..4000 {
            state = dynawave_numeric_splitmix(state);
            g.predict_and_update(0x400, state & 1 == 1);
        }
        assert!(g.mispredict_rate() > 0.3);
    }

    // Local copy to avoid a test-only dependency edge.
    fn dynawave_numeric_splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn bimodal_learns_bias_but_not_patterns() {
        let mut b = Bimodal::new(1024);
        for _ in 0..1000 {
            b.predict_and_update(0x400, true);
        }
        assert!(b.mispredict_rate() < 0.05);
        // Alternation defeats a history-less predictor.
        let mut b = Bimodal::new(1024);
        let mut taken = false;
        for _ in 0..1000 {
            taken = !taken;
            b.predict_and_update(0x400, taken);
        }
        assert!(b.mispredict_rate() > 0.4, "{}", b.mispredict_rate());
    }

    #[test]
    fn btb_hits_after_install() {
        let mut b = Btb::new(64, 4);
        assert!(!b.access(0x1000));
        assert!(b.access(0x1000));
        assert_eq!(b.misses(), 1);
    }
}
