//! Deterministic instruction-trace generation from benchmark profiles.

use crate::benchmark::Benchmark;
use crate::instruction::{Instruction, OpClass};
use crate::model::BenchmarkProfile;
use dynawave_numeric::rng::Rng;

/// How often (in instructions) the phase-signal knobs are re-evaluated.
/// Signals vary on the scale of whole sample intervals (thousands of
/// instructions), so a small refresh stride is pure overhead.
const KNOB_REFRESH: u64 = 128;

/// Cap on generated dependency distances.
const MAX_DEP: u16 = 480;

/// Base virtual addresses for the data regions, far enough apart that
/// regions never alias.
const HOT_BASE: u64 = 0x1000_0000;
const WARM_BASE: u64 = 0x2000_0000;
const COLD_BASE: u64 = 0x4000_0000;
const STREAM_BASE: u64 = 0x8000_0000;
const CODE_BASE: u64 = 0x0040_0000;

/// Size of one loop body in the code-footprint model.
const LOOP_BODY_BYTES: u32 = 1024;

#[derive(Debug, Clone)]
enum SiteKind {
    /// Loop back-edge: not-taken once every `period` executions.
    Loop { period: u32, counter: u32 },
    /// Strongly biased branch.
    Biased { p_taken: f64 },
    /// Hard-to-predict branch: flips its last outcome with a phase-scaled
    /// probability.
    Hard { last: bool },
}

#[derive(Debug, Clone)]
struct BranchSite {
    kind: SiteKind,
}

/// Deterministic generator of synthetic instruction traces.
///
/// Implements [`Iterator`] over [`Instruction`]; yields exactly
/// `total_instructions` items. The stream is a pure function of
/// `(benchmark, total_instructions, seed)` — machine configuration never
/// feeds back, so every design point replays the same "code base".
///
/// # Examples
///
/// ```
/// use dynawave_workloads::{Benchmark, TraceGenerator};
/// let n: usize = TraceGenerator::new(Benchmark::Swim, 5000, 1).count();
/// assert_eq!(n, 5000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    total: u64,
    index: u64,
    rng: Rng,
    // Instruction-mix CDF over OpClass::ALL order.
    mix_cdf: [f64; 7],
    sites: Vec<BranchSite>,
    // Code walk: execution cycles inside a loop body for a number of
    // iterations, then moves on to another region of the code.
    pc: u64,
    loop_start: u64,
    loop_len: u64,
    loop_iters_left: u32,
    // Zipf CDF over static loop bodies (code footprint model).
    loop_cdf: Vec<f64>,
    // Streaming pointer.
    stream_ptr: u64,
    // Spatial-locality cursors: most accesses continue near the previous
    // access of the same region (structure walks), occasionally jumping.
    hot_cursor: u64,
    warm_cursor: u64,
    cold_cursor: u64,
    // Cached phase knobs.
    knob_mem: f64,
    knob_ilp: f64,
    knob_branch: f64,
    knob_dead: f64,
}

impl TraceGenerator {
    /// Creates a generator for `benchmark` producing `total_instructions`
    /// instructions, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `total_instructions == 0`.
    pub fn new(benchmark: Benchmark, total_instructions: u64, seed: u64) -> Self {
        Self::from_profile(benchmark.profile(), total_instructions, seed)
    }

    /// Creates a generator from an explicit profile (custom workloads).
    ///
    /// # Panics
    ///
    /// Panics if `total_instructions == 0`.
    pub fn from_profile(profile: BenchmarkProfile, total_instructions: u64, seed: u64) -> Self {
        assert!(total_instructions > 0, "empty trace requested");
        let mut rng = Rng::from_label(seed, profile.name);
        let mix = &profile.mix;
        let weights = [
            mix.int_alu,
            mix.int_mul,
            mix.fp_alu,
            mix.fp_mul,
            mix.load,
            mix.store,
            mix.branch,
        ];
        let total_w: f64 = weights.iter().sum();
        let mut mix_cdf = [0.0; 7];
        let mut acc = 0.0;
        for (c, w) in mix_cdf.iter_mut().zip(weights) {
            acc += w / total_w;
            *c = acc;
        }
        let sites = build_sites(&profile, &mut rng);
        let code_bytes = u64::from(profile.code_kb) * 1024;
        // Zipf(0.9) weights over fixed-size loop bodies tiling the code.
        let n_loops = (code_bytes / u64::from(LOOP_BODY_BYTES)).max(1) as usize;
        let mut loop_cdf = Vec::with_capacity(n_loops);
        let mut acc = 0.0f64;
        for k in 0..n_loops {
            acc += 1.0 / ((k + 1) as f64).powf(0.9);
            loop_cdf.push(acc);
        }
        let mut gen = TraceGenerator {
            profile,
            total: total_instructions,
            index: 0,
            rng,
            mix_cdf,
            sites,
            pc: CODE_BASE,
            loop_start: CODE_BASE,
            loop_len: 256,
            loop_iters_left: 8,
            loop_cdf,
            stream_ptr: STREAM_BASE,
            hot_cursor: 0,
            warm_cursor: 0,
            cold_cursor: 0,
            knob_mem: 1.0,
            knob_ilp: 1.0,
            knob_branch: 1.0,
            knob_dead: 1.0,
        };
        gen.refresh_knobs();
        gen
    }

    /// Total number of instructions this generator will yield.
    pub fn total_instructions(&self) -> u64 {
        self.total
    }

    /// Number of instructions already yielded.
    pub fn position(&self) -> u64 {
        self.index
    }

    /// The profile driving the generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn refresh_knobs(&mut self) {
        let t = self.index as f64 / self.total as f64;
        let s = &self.profile.signals;
        self.knob_mem = s.memory.value(t);
        self.knob_ilp = s.ilp.value(t);
        self.knob_branch = s.branch.value(t);
        self.knob_dead = s.deadness.value(t);
    }

    fn sample_class(&mut self) -> OpClass {
        let r: f64 = self.rng.next_f64();
        for (i, &c) in self.mix_cdf.iter().enumerate() {
            if r < c {
                return OpClass::ALL[i];
            }
        }
        OpClass::IntAlu
    }

    fn sample_dep(&mut self) -> u16 {
        // Geometric-ish distance with phase-scaled mean; 1 is the minimum
        // (depend on the immediately preceding instruction).
        let mean = (self.profile.mean_dep_distance * self.knob_ilp.powf(1.3)).max(1.0);
        let d = 1.0 + self.rng.exponential(mean);
        d.min(f64::from(MAX_DEP)) as u16
    }

    fn sample_address(&mut self) -> u64 {
        let m = &self.profile.memory;
        // Phase knob shifts weight toward cold/stream accesses. The
        // square amplifies the phase swing so that cache pressure (and
        // with it CPI/power/AVF) moves by integer factors across phases,
        // matching the wide intra-trace dynamics of the paper's Figure 1.
        let pressure = self.knob_mem * self.knob_mem;
        let w_hot = m.p_hot;
        let w_warm = m.p_warm;
        let w_cold = m.p_cold * pressure;
        let w_stream = (1.0 - m.p_hot - m.p_warm - m.p_cold).max(0.0) * pressure;
        let total = w_hot + w_warm + w_cold + w_stream;
        let r: f64 = self.rng.next_f64() * total;
        // Structure walks: usually advance the region cursor a few words,
        // occasionally jump to a fresh spot. This gives the address stream
        // the spatial locality real data structures have.
        let walk = |cursor: &mut u64, kb: u32, p_jump: f64, rng: &mut Rng| -> u64 {
            let span = (u64::from(kb) * 1024).max(8);
            if rng.next_bool_with(p_jump) {
                *cursor = rng.range_u64(0, span / 8) * 8;
            } else {
                *cursor = (*cursor + rng.range_u64(1, 9) * 8) % span;
            }
            *cursor
        };
        if r < w_hot {
            let (hot_kb, mut cur) = (m.hot_kb, self.hot_cursor);
            let off = walk(&mut cur, hot_kb, 0.30, &mut self.rng);
            self.hot_cursor = cur;
            HOT_BASE + off
        } else if r < w_hot + w_warm {
            let (warm_kb, mut cur) = (m.warm_kb, self.warm_cursor);
            let off = walk(&mut cur, warm_kb, 0.20, &mut self.rng);
            self.warm_cursor = cur;
            WARM_BASE + off
        } else if r < w_hot + w_warm + w_cold {
            let (cold_kb, mut cur) = (m.cold_kb, self.cold_cursor);
            let off = walk(&mut cur, cold_kb, 0.25, &mut self.rng);
            self.cold_cursor = cur;
            COLD_BASE + off
        } else {
            self.stream_ptr += u64::from(m.stream_stride);
            // Wrap the stream within 64 MB so addresses stay bounded.
            if self.stream_ptr >= STREAM_BASE + (64 << 20) {
                self.stream_ptr = STREAM_BASE;
            }
            self.stream_ptr
        }
    }

    fn branch_outcome(&mut self, pc: u64) -> bool {
        let site_idx = (dynawave_numeric::rng::splitmix64(pc) as usize) % self.sites.len();
        let flip_scale = self.knob_branch;
        let hard_flip = (self.profile.branch.hard_flip * flip_scale).clamp(0.0, 0.5);
        let site = &mut self.sites[site_idx];
        match &mut site.kind {
            SiteKind::Loop { period, counter } => {
                *counter += 1;
                if *counter >= *period {
                    *counter = 0;
                    false
                } else {
                    true
                }
            }
            SiteKind::Biased { p_taken } => self.rng.next_bool_with(*p_taken),
            SiteKind::Hard { last } => {
                if self.rng.next_bool_with(hard_flip) {
                    *last = !*last;
                }
                *last
            }
        }
    }

    /// Loop-centric code walk: the PC streams through the current loop
    /// body and wraps back until the iteration budget is spent, then hops
    /// to another body drawn from a static, Zipf-weighted loop population
    /// covering the whole code footprint. Hot bodies re-execute often (and
    /// stay cache-resident); the tail sweeps the rest of the footprint, so
    /// instruction-cache capacity gates how much of the reuse is captured.
    fn advance_pc(&mut self) {
        self.pc += 4;
        if self.pc >= self.loop_start + self.loop_len {
            if self.loop_iters_left > 0 {
                self.loop_iters_left -= 1;
                self.pc = self.loop_start;
            } else {
                let idx = self.rng.index_from_cdf(&self.loop_cdf);
                let body = u64::from(LOOP_BODY_BYTES);
                self.loop_start = CODE_BASE + idx as u64 * body;
                self.loop_len = self.rng.range_u64(8, body / 4) * 4;
                self.loop_iters_left = self.rng.range_u32(2, 24);
                self.pc = self.loop_start;
            }
        }
    }
}

fn build_sites(profile: &BenchmarkProfile, rng: &mut Rng) -> Vec<BranchSite> {
    let b = &profile.branch;
    (0..b.sites.max(1))
        .map(|_| {
            let r: f64 = rng.next_f64();
            let kind = if r < b.loop_fraction {
                let spread = (b.mean_loop_period / 2).max(1);
                let period = b.mean_loop_period - spread / 2 + rng.range_u32(0, spread);
                SiteKind::Loop {
                    period: period.max(2),
                    counter: rng.range_u32(0, period.max(2)),
                }
            } else if r < b.loop_fraction + b.biased_fraction {
                SiteKind::Biased { p_taken: b.bias }
            } else {
                SiteKind::Hard {
                    last: rng.next_bool(),
                }
            };
            BranchSite { kind }
        })
        .collect()
}

impl Iterator for TraceGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        if self.index >= self.total {
            return None;
        }
        if self.index % KNOB_REFRESH == 0 {
            self.refresh_knobs();
        }
        let pc = self.pc;
        let class = self.sample_class();
        let dep1 = self.sample_dep();
        let dep2 = if self.rng.next_bool() {
            self.sample_dep()
        } else {
            0
        };
        let addr = if class.is_memory() {
            self.sample_address()
        } else {
            0
        };
        let taken = if class == OpClass::Branch {
            self.branch_outcome(pc)
        } else {
            false
        };
        let dead_p = (self.profile.dead_fraction * self.knob_dead).clamp(0.0, 0.8);
        let dead = self.rng.next_bool_with(dead_p);
        self.advance_pc();
        self.index += 1;
        Some(Instruction {
            pc,
            class,
            dep1,
            dep2,
            addr,
            taken,
            dead,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.index) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceGenerator {}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(b: Benchmark, n: u64) -> Vec<Instruction> {
        TraceGenerator::new(b, n, 7).collect()
    }

    #[test]
    fn yields_exact_count() {
        assert_eq!(gen(Benchmark::Gcc, 1234).len(), 1234);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 2000, 3).collect();
        let b: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 2000, 3).collect();
        let c: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 2000, 4).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let trace = gen(Benchmark::Gcc, 50_000);
        let branches = trace.iter().filter(|i| i.is_branch()).count() as f64;
        let loads = trace.iter().filter(|i| i.class == OpClass::Load).count() as f64;
        let n = trace.len() as f64;
        let mix = Benchmark::Gcc.profile().mix;
        let t = mix.total();
        assert!((branches / n - mix.branch / t).abs() < 0.02);
        assert!((loads / n - mix.load / t).abs() < 0.02);
    }

    #[test]
    fn memory_ops_have_addresses_others_do_not() {
        for i in gen(Benchmark::Swim, 5000) {
            if i.is_memory() {
                assert_ne!(i.addr, 0);
                assert_eq!(i.addr % 8, 0, "addresses are 8-byte aligned");
            } else {
                assert_eq!(i.addr, 0);
            }
        }
    }

    #[test]
    fn pcs_stay_in_code_region() {
        let code_bytes = u64::from(Benchmark::Gcc.profile().code_kb) * 1024;
        for i in gen(Benchmark::Gcc, 20_000) {
            assert!(i.pc >= CODE_BASE && i.pc < CODE_BASE + code_bytes);
            assert_eq!(i.pc % 4, 0);
        }
    }

    #[test]
    fn dead_fraction_is_plausible() {
        let trace = gen(Benchmark::Vortex, 50_000);
        let dead = trace.iter().filter(|i| i.dead).count() as f64 / trace.len() as f64;
        let base = Benchmark::Vortex.profile().dead_fraction;
        assert!(
            dead > base * 0.4 && dead < base * 2.5,
            "dead fraction {dead}"
        );
    }

    #[test]
    fn swim_is_more_predictable_than_gcc() {
        // Count branch-direction changes as a cheap predictability proxy.
        let changes = |b: Benchmark| {
            let outs: Vec<bool> = TraceGenerator::new(b, 100_000, 5)
                .filter(|i| i.is_branch())
                .map(|i| i.taken)
                .collect();
            outs.windows(2).filter(|w| w[0] != w[1]).count() as f64 / outs.len() as f64
        };
        assert!(changes(Benchmark::Swim) < changes(Benchmark::Gcc));
    }

    #[test]
    fn mcf_touches_more_distinct_lines_than_eon() {
        let lines = |b: Benchmark| {
            let mut set = std::collections::HashSet::new();
            for i in TraceGenerator::new(b, 100_000, 5) {
                if i.is_memory() {
                    set.insert(i.addr >> 6);
                }
            }
            set.len()
        };
        assert!(lines(Benchmark::Mcf) > 2 * lines(Benchmark::Eon));
    }

    #[test]
    fn dynamics_vary_over_the_interval() {
        // bzip2's square-wave memory knob should make cold-access density
        // differ between halves of the interval.
        let trace = gen(Benchmark::Gap, 200_000);
        let cold = |s: &[Instruction]| {
            s.iter()
                .filter(|i| i.addr >= COLD_BASE && i.addr < STREAM_BASE)
                .count() as f64
                / s.len() as f64
        };
        let n = trace.len();
        let quarters: Vec<f64> = trace.chunks(n / 4).take(4).map(cold).collect();
        let lo = quarters.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = quarters.iter().cloned().fold(0.0, f64::max);
        assert!(hi > lo * 1.3, "no temporal variation: {quarters:?}");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn zero_length_panics() {
        let _ = TraceGenerator::new(Benchmark::Gcc, 0, 1);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut g = TraceGenerator::new(Benchmark::Eon, 10, 1);
        assert_eq!(g.size_hint(), (10, Some(10)));
        g.next();
        assert_eq!(g.size_hint(), (9, Some(9)));
    }
}
