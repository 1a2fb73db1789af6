//! The one-pass out-of-order timing model.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::dtm::DtmState;
use crate::dvm::DvmState;
use crate::frontend::{FrontEnd, FrontEndOutcomes, BTB_MISS, DTLB_MISS, ITLB_MISS, MISPREDICT};
use crate::resources::{CompletionWindow, OccupancyRing, ServerPool};
use crate::stats::{IntervalStats, RunResult};
use dynawave_workloads::{Benchmark, Instruction, OpClass, TraceGenerator};

/// Dependency window size: a power of two, so the window masks, that
/// must exceed the workload generator's maximum dependency distance.
const DEP_WINDOW: usize = 512;

/// Fraction of a dynamically dead instruction's bits that remain ACE
/// (opcode/control fields still matter even when the result is dead).
const DEAD_ACE_FRACTION: f64 = 0.12;

/// Fetch-bubble cycles charged for a BTB miss on a taken branch.
const BTB_MISS_BUBBLE: u64 = 2;

/// Cycles between DTM trigger evaluations.
const DTM_WINDOW_CYCLES: u64 = 256;

/// Direct-mapped store-buffer tracker size (power of two).
const STORE_TRACKER: usize = 256;

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Number of sample intervals to produce (the paper uses 128).
    pub samples: usize,
    /// Instructions per sample interval.
    pub interval_instructions: u64,
    /// Workload seed (the "input set").
    pub seed: u64,
}

impl SimOptions {
    /// Instructions executed before sampling starts, to warm caches,
    /// predictors and queues (the SimPoint fast-forward analogue). The
    /// default is 0: the paper's dynamics traces include whatever state
    /// the interval starts with, and the predictive models see the same
    /// cold-start at every configuration.
    pub const DEFAULT_WARMUP: u64 = 0;

    /// The instruction stream [`Simulator::run`] executes for `benchmark`
    /// under these options: the first `samples * interval_instructions`
    /// instructions of its trace at `seed`. The stream does not depend on
    /// the machine, so callers that simulate many configurations of one
    /// benchmark generate it once and replay it through
    /// [`Simulator::run_trace`] (24 bytes per instruction: 6 MiB at the
    /// default options).
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run`].
    pub fn stream(&self, benchmark: Benchmark) -> Vec<Instruction> {
        self.generator(benchmark, 0).collect()
    }

    /// The generator of `warmup` instructions followed by the sampled
    /// region: the one place the length of a run's stream is decided.
    fn generator(&self, benchmark: Benchmark, warmup: u64) -> TraceGenerator {
        assert!(self.samples > 0, "need at least one sample interval");
        assert!(
            self.interval_instructions > 0,
            "need a positive interval length"
        );
        let total = warmup + self.samples as u64 * self.interval_instructions;
        TraceGenerator::new(benchmark, total, self.seed)
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            samples: 128,
            interval_instructions: 2048,
            seed: 0xD15EA5E,
        }
    }
}

/// The simulator: owns a machine configuration, runs workloads on it.
///
/// See the crate docs for the modelling approach.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    pub fn new(config: MachineConfig) -> Self {
        Simulator { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs `benchmark` and returns per-interval statistics.
    ///
    /// The workload trace is a pure function of `(benchmark,
    /// opts.samples * opts.interval_instructions, opts.seed)`, so two runs
    /// with different configurations see the identical instruction stream.
    /// Each call generates that stream anew, at about the engine's own
    /// cost per instruction, and runs the fixed front end (predictor, BTB
    /// and TLBs) inline: a caller that loops over configurations of one
    /// benchmark should generate the stream once with
    /// [`SimOptions::stream`], compute its [`FrontEndOutcomes`] once, and
    /// replay both through [`Simulator::run_replay`], which gives the same
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `opts.samples == 0` or `opts.interval_instructions == 0`.
    pub fn run(&self, benchmark: Benchmark, opts: &SimOptions) -> RunResult {
        self.run_with_warmup(benchmark, opts, 0)
    }

    /// As [`Simulator::run`], but executes `warmup_instructions` first
    /// (warming caches, predictors and queues) and discards their
    /// statistics. The sampled region covers the instructions *after* the
    /// warm-up, so two configurations still observe the same code.
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run`].
    pub fn run_with_warmup(
        &self,
        benchmark: Benchmark,
        opts: &SimOptions,
        warmup_instructions: u64,
    ) -> RunResult {
        let trace = opts.generator(benchmark, warmup_instructions);
        let front_end = FrontEnd::new(&self.config);
        self.run_stream(trace, front_end, opts, warmup_instructions)
    }

    /// Runs an explicit instruction stream: a custom workload, or a
    /// [`SimOptions::stream`] replayed into one configuration after
    /// another. Replaying `opts.stream(benchmark)` gives exactly the
    /// result of [`Simulator::run`].
    pub fn run_trace<I>(&self, trace: I, opts: &SimOptions) -> RunResult
    where
        I: IntoIterator<Item = Instruction>,
    {
        self.run_stream(trace, FrontEnd::new(&self.config), opts, 0)
    }

    /// Replays `stream` reading each instruction's front-end outcome from
    /// `outcomes`, built beside it by [`FrontEndOutcomes::new`], instead
    /// of running the predictor, BTB and TLBs again. The result is
    /// exactly that of [`Simulator::run_trace`] on the same stream; a
    /// configuration the stored outcomes do not hold for (another front
    /// end, store forwarding on, or a stream of another length) runs the
    /// front end inline.
    pub fn run_replay(
        &self,
        stream: &[Instruction],
        outcomes: &FrontEndOutcomes,
        opts: &SimOptions,
    ) -> RunResult {
        match outcomes.for_config(&self.config, stream.len()) {
            Some(bits) => self.run_stream(stream.iter().copied(), bits.iter(), opts, 0),
            None => self.run_trace(stream.iter().copied(), opts),
        }
    }

    /// Shared core of every run: one pass over `trace` on a fresh engine,
    /// with front-end outcomes from `front_end`, that executes the first
    /// `warmup` instructions with their statistics discarded and samples
    /// the rest.
    fn run_stream<I, S>(
        &self,
        trace: I,
        mut front_end: S,
        opts: &SimOptions,
        warmup: u64,
    ) -> RunResult
    where
        I: IntoIterator<Item = Instruction>,
        S: OutcomeSource,
    {
        let _span = dynawave_obs::span("sim.run_trace");
        let c = &self.config;
        let mut engine = Engine::new(c);
        let mut intervals = Vec::with_capacity(opts.samples);
        let mut current = IntervalStats::default();
        let mut in_interval = 0u64;
        let mut warming = warmup;
        let mut discarded = IntervalStats::default();
        let mut interval_start_cycle = engine.last_commit;
        // DVM trigger evaluation period: sample_interval / 5, in committed
        // instructions (a cycle-domain proxy with bounded skew).
        let dvm_period = (opts.interval_instructions / 5).max(1);
        let mut since_dvm_update = 0u64;

        for instr in trace {
            let warm = warming > 0;
            let stats = if warm { &mut discarded } else { &mut current };
            engine.step(&instr, &mut front_end, stats);
            if warm {
                warming -= 1;
                interval_start_cycle = engine.last_commit;
                continue;
            }
            in_interval += 1;
            since_dvm_update += 1;

            if engine.dvm.is_some() && since_dvm_update >= dvm_period {
                since_dvm_update = 0;
                let now = engine.last_commit;
                let ace = engine.cumulative_iq_ace;
                if let Some(dvm) = engine.dvm.as_mut() {
                    dvm.periodic_update(now, ace, c.iq_size);
                }
            }

            if in_interval >= opts.interval_instructions {
                current.instructions = in_interval;
                current.cycles = engine
                    .last_commit
                    .saturating_sub(interval_start_cycle)
                    .max(1);
                if let Some(dvm) = engine.dvm.as_ref() {
                    current.dvm_triggers = dvm.triggers() - engine.reported_triggers;
                    engine.reported_triggers = dvm.triggers();
                    current.dvm_stall_cycles = dvm.stall_cycles() - engine.reported_stalls;
                    engine.reported_stalls = dvm.stall_cycles();
                }
                if let Some(dtm) = engine.dtm.as_ref() {
                    current.dtm_engaged_windows = dtm.engaged_windows() - engine.reported_engaged;
                    engine.reported_engaged = dtm.engaged_windows();
                }
                interval_start_cycle = engine.last_commit;
                intervals.push(std::mem::take(&mut current));
                in_interval = 0;
            }
        }
        // A trailing partial interval (trace not divisible) is recorded too.
        if in_interval > 0 {
            current.instructions = in_interval;
            current.cycles = engine
                .last_commit
                .saturating_sub(interval_start_cycle)
                .max(1);
            intervals.push(current);
        }
        if dynawave_obs::is_enabled() {
            dynawave_obs::counter_add("sim.intervals_retired", intervals.len() as u64);
            let committed: u64 = intervals.iter().map(|i| i.instructions).sum();
            dynawave_obs::counter_add("sim.instructions_committed", committed);
        }
        RunResult {
            config: self.config.clone(),
            intervals,
        }
    }
}

/// Where [`Engine::step`] reads each instruction's front-end outcome:
/// the front end itself, run inline, or outcomes stored beside a stream.
trait OutcomeSource {
    /// The outcome bits of `instr`, the next instruction in program
    /// order; `forwarded` when it is a load served by the store buffer.
    fn outcome(&mut self, instr: &Instruction, forwarded: bool) -> u8;
}

impl OutcomeSource for FrontEnd {
    fn outcome(&mut self, instr: &Instruction, forwarded: bool) -> u8 {
        FrontEnd::outcome(self, instr, forwarded)
    }
}

/// Stored outcomes, one per instruction; they hold only for runs with
/// store forwarding off, so `forwarded` is never set.
impl OutcomeSource for std::slice::Iter<'_, u8> {
    fn outcome(&mut self, _instr: &Instruction, _forwarded: bool) -> u8 {
        self.next().copied().unwrap_or(0)
    }
}

/// Internal per-run microarchitectural state. The fixed front-end
/// structures live in [`FrontEnd`]; the engine sees only their outcomes.
struct Engine {
    // Front end.
    il1: Cache,
    fetch_pool: ServerPool,
    fetch_ready: u64,
    last_line: u64,
    line_shift: u32,
    // Structures.
    rob: OccupancyRing,
    iq: OccupancyRing,
    lsq: OccupancyRing,
    window: CompletionWindow,
    // Back end.
    issue_pool: ServerPool,
    commit_pool: ServerPool,
    int_alu: ServerPool,
    int_mul: ServerPool,
    fp_alu: ServerPool,
    fp_mul: ServerPool,
    dl1_ports: ServerPool,
    dl1: Cache,
    l2: Cache,
    last_commit: u64,
    // Config scalars.
    front_depth: u64,
    mispredict_extra: u64,
    dl1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
    tlb_miss_lat: u64,
    // DVM.
    dvm: Option<DvmState>,
    cumulative_iq_ace: f64,
    reported_triggers: u64,
    reported_stalls: u64,
    // DTM.
    dtm: Option<DtmState>,
    reported_engaged: u64,
    prefetch: bool,
    il1_line_bytes: u64,
    dl1_line_bytes: u64,
    // Store-to-load forwarding: direct-mapped map of recent store
    // addresses to (instruction index, completion cycle).
    store_addrs: Vec<u64>,
    store_meta: Vec<(u64, u64)>,
    instr_index: u64,
    lsq_span: u64,
    forwarding: bool,
}

impl Engine {
    fn new(c: &MachineConfig) -> Self {
        Engine {
            il1: Cache::new(u64::from(c.il1_kb) * 1024, c.il1_ways, c.il1_line),
            fetch_pool: ServerPool::new(c.fetch_width),
            fetch_ready: 0,
            last_line: u64::MAX,
            line_shift: c.il1_line.trailing_zeros(),
            rob: OccupancyRing::new(c.rob_size),
            iq: OccupancyRing::new(c.iq_size),
            lsq: OccupancyRing::new(c.lsq_size),
            window: CompletionWindow::new(DEP_WINDOW),
            issue_pool: ServerPool::new(c.fetch_width),
            commit_pool: ServerPool::new(c.fetch_width),
            int_alu: ServerPool::new(c.int_alu_units),
            int_mul: ServerPool::new(c.int_mul_units),
            fp_alu: ServerPool::new(c.fp_alu_units),
            fp_mul: ServerPool::new(c.fp_mul_units),
            dl1_ports: ServerPool::new(c.dl1_ports),
            dl1: Cache::new(u64::from(c.dl1_kb) * 1024, c.dl1_ways, c.dl1_line),
            l2: Cache::new(u64::from(c.l2_kb) * 1024, c.l2_ways, c.l2_line),
            last_commit: 0,
            front_depth: u64::from(c.front_depth),
            mispredict_extra: u64::from(c.mispredict_extra),
            dl1_lat: u64::from(c.dl1_lat),
            l2_lat: u64::from(c.l2_lat),
            mem_lat: u64::from(c.mem_lat),
            tlb_miss_lat: u64::from(c.tlb_miss_lat),
            dvm: c.dvm.map(|d| DvmState::new(d, c.iq_size)),
            cumulative_iq_ace: 0.0,
            reported_triggers: 0,
            reported_stalls: 0,
            dtm: c.dtm.map(DtmState::new),
            reported_engaged: 0,
            prefetch: c.prefetch_next_line,
            il1_line_bytes: u64::from(c.il1_line),
            dl1_line_bytes: u64::from(c.dl1_line),
            store_addrs: vec![u64::MAX; STORE_TRACKER],
            store_meta: vec![(0, 0); STORE_TRACKER],
            instr_index: 0,
            lsq_span: u64::from(c.lsq_size),
            forwarding: c.store_forwarding,
        }
    }

    /// The completion cycle of the store a load at `addr` forwards from,
    /// if one is still in the LSQ window. Decided in program order: the
    /// tracker's addresses and instruction indices do not depend on
    /// timing.
    fn forwarding_store(&self, addr: u64) -> Option<u64> {
        let slot = ((addr >> 3) as usize) & (STORE_TRACKER - 1);
        if self.store_addrs[slot] != addr >> 3 {
            return None;
        }
        let (st_index, st_ready) = self.store_meta[slot];
        (self.instr_index - st_index <= self.lsq_span).then_some(st_ready)
    }

    /// Times one instruction, with its front-end outcome from
    /// `front_end`, and accumulates interval statistics.
    fn step(
        &mut self,
        instr: &Instruction,
        front_end: &mut impl OutcomeSource,
        stats: &mut IntervalStats,
    ) {
        // A forwarded load skips the DTLB, so forwarding is decided before
        // the front end is asked.
        let forwarded = if self.forwarding && instr.class == OpClass::Load {
            self.forwarding_store(instr.addr)
        } else {
            None
        };
        let outcome = front_end.outcome(instr, forwarded.is_some());

        // ---- Fetch ----
        let line = instr.pc >> self.line_shift;
        if line != self.last_line {
            self.last_line = line;
            stats.il1_accesses += 1;
            let mut fill = 0u64;
            if outcome & ITLB_MISS != 0 {
                stats.itlb_misses += 1;
                fill += self.tlb_miss_lat;
            }
            if !self.il1.access(instr.pc) {
                stats.il1_misses += 1;
                stats.l2_accesses += 1;
                fill += if self.l2.access(instr.pc) {
                    self.l2_lat
                } else {
                    stats.l2_misses += 1;
                    self.l2_lat + self.mem_lat
                };
                if self.prefetch {
                    // Next-line prefetch: fill the sequential successor
                    // off the critical path.
                    let next = instr.pc + self.il1_line_bytes;
                    self.l2.install(next);
                    if !self.il1.install(next) {
                        stats.prefetch_fills += 1;
                    }
                }
            }
            self.fetch_ready += fill;
        }
        // DTM fetch throttling: while engaged, each fetch slot is held
        // longer, cutting effective front-end bandwidth.
        let fetch_busy = self
            .dtm
            .as_ref()
            .map_or(1, |d| d.fetch_penalty_factor().round() as u64)
            .max(1);
        let fetch = self.fetch_pool.allocate(self.fetch_ready, fetch_busy);

        // ---- Dispatch: front-end depth + structure capacity ----
        let mut dispatch = fetch + self.front_depth;
        dispatch = dispatch.max(self.rob.earliest_slot());
        dispatch = dispatch.max(self.iq.earliest_slot());
        if instr.is_memory() {
            dispatch = dispatch.max(self.lsq.earliest_slot());
        }
        if let Some(dvm) = self.dvm.as_mut() {
            dispatch = dvm.constrain_dispatch(dispatch);
        }

        // ---- Ready: true data dependencies ----
        let mut ready = dispatch;
        ready = ready.max(self.window.completion_of(instr.dep1));
        ready = ready.max(self.window.completion_of(instr.dep2));

        // ---- Issue: bandwidth, functional units, cache ports ----
        let mut issue = self.issue_pool.allocate(ready, 1);
        issue = match instr.class {
            OpClass::IntAlu | OpClass::Branch => self.int_alu.allocate(issue, 1),
            OpClass::IntMul => self.int_mul.allocate(issue, 1),
            OpClass::FpAlu => self.fp_alu.allocate(issue, 1),
            OpClass::FpMul => self.fp_mul.allocate(issue, 1),
            OpClass::Load | OpClass::Store => self.dl1_ports.allocate(issue, 1),
        };

        // ---- Execute ----
        let complete = issue
            + match instr.class {
                OpClass::IntAlu => 1,
                OpClass::IntMul => 3,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 4,
                OpClass::Branch => 1,
                OpClass::Store => {
                    // Stores retire through the store buffer; the cache state
                    // is still updated (write-allocate) for later loads.
                    stats.dl1_accesses += 1;
                    if outcome & DTLB_MISS != 0 {
                        stats.dtlb_misses += 1;
                    }
                    if !self.dl1.access(instr.addr) {
                        stats.dl1_misses += 1;
                        stats.l2_accesses += 1;
                        if !self.l2.access(instr.addr) {
                            stats.l2_misses += 1;
                        }
                    }
                    // Track for store-to-load forwarding (8-byte granules).
                    let slot = ((instr.addr >> 3) as usize) & (STORE_TRACKER - 1);
                    self.store_addrs[slot] = instr.addr >> 3;
                    self.store_meta[slot] = (self.instr_index, issue + 1);
                    1
                }
                OpClass::Load => {
                    // Store-to-load forwarding: a load that hits a store still
                    // in the LSQ window reads from the store buffer at unit
                    // latency.
                    if let Some(st_ready) = forwarded {
                        stats.store_forwards += 1;
                        stats.dl1_accesses += 1;
                        // The forwarded value is ready one cycle after both
                        // the load issues and the store's data is.
                        st_ready.saturating_sub(issue).max(1)
                    } else {
                        stats.dl1_accesses += 1;
                        let mut lat = self.dl1_lat;
                        if outcome & DTLB_MISS != 0 {
                            stats.dtlb_misses += 1;
                            lat += self.tlb_miss_lat;
                        }
                        if !self.dl1.access(instr.addr) {
                            stats.dl1_misses += 1;
                            stats.l2_accesses += 1;
                            if self.l2.access(instr.addr) {
                                lat += self.l2_lat;
                            } else {
                                stats.l2_misses += 1;
                                lat += self.l2_lat + self.mem_lat;
                                if let Some(dvm) = self.dvm.as_mut() {
                                    dvm.on_l2_miss(issue + lat);
                                }
                            }
                            if self.prefetch {
                                let next = instr.addr + self.dl1_line_bytes;
                                self.l2.install(next);
                                if !self.dl1.install(next) {
                                    stats.prefetch_fills += 1;
                                }
                            }
                        }
                        lat
                    }
                }
            };

        // ---- Branch resolution ----
        if instr.is_branch() {
            stats.branches += 1;
            if outcome & MISPREDICT != 0 {
                stats.mispredicts += 1;
                self.fetch_ready = self.fetch_ready.max(complete + self.mispredict_extra);
            } else if outcome & BTB_MISS != 0 {
                // A correctly predicted taken branch whose target the BTB
                // did not hold.
                stats.btb_misses += 1;
                self.fetch_ready = self.fetch_ready.max(fetch + BTB_MISS_BUBBLE);
            }
        }

        // ---- Commit (in order, width-limited) ----
        let commit_ready = (complete + 1).max(self.last_commit);
        let commit = self
            .commit_pool
            .allocate(commit_ready, 1)
            .max(self.last_commit);
        self.last_commit = commit;

        // ---- Bookkeeping ----
        self.window.push(complete);
        self.rob.push(commit + 1);
        self.iq.push(issue + 1);
        if instr.is_memory() {
            self.lsq.push(commit + 1);
        }
        match instr.class {
            OpClass::IntAlu | OpClass::Branch => stats.int_alu_ops += 1,
            OpClass::IntMul => stats.int_mul_ops += 1,
            OpClass::FpAlu => stats.fp_alu_ops += 1,
            OpClass::FpMul => stats.fp_mul_ops += 1,
            OpClass::Load | OpClass::Store => {}
        }
        stats.issues += 1;

        // Residency integrals (entry-cycles), ACE-weighted for AVF.
        let ace = if instr.dead { DEAD_ACE_FRACTION } else { 1.0 };
        let iq_res = (issue - dispatch + 1) as f64;
        let rob_res = (commit - dispatch + 1) as f64;
        stats.iq_occupancy += iq_res;
        stats.iq_ace += iq_res * ace;
        self.cumulative_iq_ace += iq_res * ace;
        stats.rob_occupancy += rob_res;
        stats.rob_ace += rob_res * ace;
        if instr.is_memory() {
            stats.lsq_occupancy += rob_res;
            stats.lsq_ace += rob_res * ace;
        }
        if let Some(dvm) = self.dvm.as_mut() {
            dvm.note_instruction(dispatch, ready, issue);
        }
        if let Some(dtm) = self.dtm.as_mut() {
            dtm.on_commit(commit, DTM_WINDOW_CYCLES);
        }
        self.instr_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SimOptions {
        SimOptions {
            samples: 16,
            interval_instructions: 1500,
            seed: 42,
        }
    }

    fn run(b: Benchmark, cfg: MachineConfig) -> RunResult {
        Simulator::new(cfg).run(b, &quick_opts())
    }

    #[test]
    fn produces_requested_samples() {
        let r = run(Benchmark::Gcc, MachineConfig::baseline());
        assert_eq!(r.intervals.len(), 16);
        assert_eq!(r.total_instructions(), 16 * 1500);
    }

    #[test]
    fn cpi_in_plausible_range() {
        for b in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Swim] {
            let r = run(b, MachineConfig::baseline());
            let cpi = r.aggregate_cpi();
            assert!(cpi > 0.12 && cpi < 30.0, "{b}: cpi {cpi}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run(Benchmark::Vpr, MachineConfig::baseline());
        let b = run(Benchmark::Vpr, MachineConfig::baseline());
        assert_eq!(a.cpi_trace(), b.cpi_trace());
    }

    #[test]
    fn narrower_machine_is_slower() {
        let wide = run(Benchmark::Crafty, MachineConfig::baseline());
        let mut narrow_cfg = MachineConfig::baseline();
        narrow_cfg.fetch_width = 2;
        let narrow = run(Benchmark::Crafty, narrow_cfg);
        assert!(
            narrow.aggregate_cpi() > wide.aggregate_cpi() * 1.08,
            "narrow {} vs wide {}",
            narrow.aggregate_cpi(),
            wide.aggregate_cpi()
        );
    }

    #[test]
    fn smaller_dl1_misses_more() {
        let mut small_cfg = MachineConfig::baseline();
        small_cfg.dl1_kb = 8;
        let small = run(Benchmark::Twolf, small_cfg);
        let big = run(Benchmark::Twolf, MachineConfig::baseline());
        let m_small: u64 = small.intervals.iter().map(|i| i.dl1_misses).sum();
        let m_big: u64 = big.intervals.iter().map(|i| i.dl1_misses).sum();
        assert!(m_small > m_big, "{m_small} vs {m_big}");
        assert!(small.aggregate_cpi() >= big.aggregate_cpi());
    }

    #[test]
    fn slower_memory_hurts_mcf() {
        let mut slow = MachineConfig::baseline();
        slow.l2_kb = 256;
        slow.l2_lat = 20;
        let fast = run(Benchmark::Mcf, MachineConfig::baseline());
        let slowr = run(Benchmark::Mcf, slow);
        assert!(slowr.aggregate_cpi() > fast.aggregate_cpi());
    }

    #[test]
    fn dynamics_vary_across_intervals() {
        let r = run(Benchmark::Gap, MachineConfig::baseline());
        let trace = r.cpi_trace();
        let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = trace.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi > lo * 1.15, "flat CPI trace: {lo}..{hi}");
    }

    #[test]
    fn avf_integrals_bounded_by_capacity() {
        let cfg = MachineConfig::baseline();
        let r = run(Benchmark::Gcc, cfg.clone());
        for i in &r.intervals {
            let iq_avf = i.iq_ace / (f64::from(cfg.iq_size) * i.cycles as f64);
            assert!(iq_avf >= 0.0 && iq_avf <= 1.05, "iq avf {iq_avf}");
            let rob_avf = i.rob_ace / (f64::from(cfg.rob_size) * i.cycles as f64);
            assert!(rob_avf >= 0.0 && rob_avf <= 1.05, "rob avf {rob_avf}");
        }
    }

    #[test]
    fn dvm_reduces_iq_ace_residency() {
        let base = MachineConfig::baseline();
        let with_dvm = base.clone().with_dvm(crate::DvmConfig {
            threshold: 0.1,
            initial_wq_ratio: 1.0,
        });
        let plain = run(Benchmark::Mcf, base);
        let managed = run(Benchmark::Mcf, with_dvm);
        let ace = |r: &RunResult| -> f64 {
            r.intervals
                .iter()
                .map(|i| i.iq_ace / (96.0 * i.cycles as f64))
                .sum::<f64>()
                / r.intervals.len() as f64
        };
        assert!(
            ace(&managed) < ace(&plain),
            "DVM did not reduce IQ AVF: {} vs {}",
            ace(&managed),
            ace(&plain)
        );
    }

    #[test]
    fn dvm_triggers_on_high_occupancy_workload() {
        // crafty keeps the IQ busy without long L2 stalls, so the online
        // AVF estimate exceeds a low threshold and the trigger fires.
        let cfg = MachineConfig::baseline().with_dvm(crate::DvmConfig {
            threshold: 0.05,
            initial_wq_ratio: 8.0,
        });
        let r = run(Benchmark::Crafty, cfg);
        let triggers: u64 = r.intervals.iter().map(|i| i.dvm_triggers).sum();
        assert!(triggers > 0, "DVM never triggered");
    }

    #[test]
    fn mcf_l2_misses_exceed_eon() {
        let mcf = run(Benchmark::Mcf, MachineConfig::baseline());
        let eon = run(Benchmark::Eon, MachineConfig::baseline());
        let misses = |r: &RunResult| -> u64 { r.intervals.iter().map(|i| i.l2_misses).sum() };
        assert!(misses(&mcf) > misses(&eon) * 2);
    }

    #[test]
    fn warmup_discards_cold_start() {
        let cfg = MachineConfig::baseline();
        let opts = quick_opts();
        let cold = Simulator::new(cfg.clone()).run(Benchmark::Eon, &opts);
        let warm = Simulator::new(cfg).run_with_warmup(Benchmark::Eon, &opts, 20_000);
        assert_eq!(warm.intervals.len(), cold.intervals.len());
        // The warmed run's first interval avoids compulsory misses.
        assert!(
            warm.intervals[0].il1_misses <= cold.intervals[0].il1_misses,
            "{} > {}",
            warm.intervals[0].il1_misses,
            cold.intervals[0].il1_misses
        );
        // Zero warm-up is exactly the plain run.
        let same =
            Simulator::new(MachineConfig::baseline()).run_with_warmup(Benchmark::Eon, &opts, 0);
        assert_eq!(same.cpi_trace(), cold.cpi_trace());
    }

    #[test]
    fn store_forwarding_happens_and_helps() {
        // Hot-region stores are frequently re-read by nearby loads.
        let r = run(
            Benchmark::Vortex,
            MachineConfig::baseline().with_store_forwarding(),
        );
        let forwards: u64 = r.intervals.iter().map(|i| i.store_forwards).sum();
        assert!(forwards > 0, "no store-to-load forwarding observed");
        let loads: u64 = r.intervals.iter().map(|i| i.dl1_accesses).sum();
        assert!(forwards < loads, "forwarding cannot exceed memory ops");
        // Forwarded loads shortcut the cache: CPI must not get worse.
        let plain = run(Benchmark::Vortex, MachineConfig::baseline());
        assert!(r.aggregate_cpi() <= plain.aggregate_cpi() * 1.001);
        let plain_forwards: u64 = plain.intervals.iter().map(|i| i.store_forwards).sum();
        assert_eq!(plain_forwards, 0, "forwarding must be off by default");
    }

    #[test]
    fn next_line_prefetch_helps_streaming_workloads() {
        // swim streams through memory; a next-line prefetcher must cut
        // its L1D miss count and not slow it down.
        let plain = run(Benchmark::Swim, MachineConfig::baseline());
        let pf = run(
            Benchmark::Swim,
            MachineConfig::baseline().with_next_line_prefetch(),
        );
        let misses = |r: &RunResult| r.intervals.iter().map(|i| i.dl1_misses).sum::<u64>();
        let fills: u64 = pf.intervals.iter().map(|i| i.prefetch_fills).sum();
        assert!(fills > 0, "prefetcher never filled");
        assert!(
            misses(&pf) < misses(&plain),
            "prefetching did not reduce misses: {} vs {}",
            misses(&pf),
            misses(&plain)
        );
        assert!(pf.aggregate_cpi() <= plain.aggregate_cpi() * 1.01);
    }

    #[test]
    fn dtm_throttles_hot_workloads() {
        // crafty runs hot; a low trigger must engage and slow it down.
        let hot = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 0.2,
            throttle_factor: 0.5,
        });
        let plain = run(Benchmark::Crafty, MachineConfig::baseline());
        let managed = run(Benchmark::Crafty, hot);
        let engaged: u64 = managed
            .intervals
            .iter()
            .map(|i| i.dtm_engaged_windows)
            .sum();
        assert!(engaged > 0, "DTM never engaged");
        assert!(
            managed.aggregate_cpi() > plain.aggregate_cpi(),
            "throttling did not slow the machine: {} vs {}",
            managed.aggregate_cpi(),
            plain.aggregate_cpi()
        );
    }

    #[test]
    fn predictor_kind_changes_front_end_behaviour() {
        // The two predictors must produce genuinely different accuracy on
        // a branchy workload. (On these synthetic outcome streams bimodal
        // can beat gshare: per-site behaviour is strong while the global
        // history is polluted across hundreds of interleaved sites.)
        let mut bimodal_cfg = MachineConfig::baseline();
        bimodal_cfg.bp_kind = crate::BranchPredictorKind::Bimodal;
        let g = run(Benchmark::Gcc, MachineConfig::baseline());
        let b = run(Benchmark::Gcc, bimodal_cfg);
        let mis = |r: &RunResult| r.intervals.iter().map(|i| i.mispredicts).sum::<u64>();
        assert_ne!(mis(&g), mis(&b), "predictor choice had no effect");
        // Both stay in a sane accuracy band.
        let branches: u64 = g.intervals.iter().map(|i| i.branches).sum();
        for m in [mis(&g), mis(&b)] {
            assert!(m * 2 < branches, "worse than a coin flip");
        }
    }

    #[test]
    fn dtm_with_high_trigger_is_free() {
        let cfg = MachineConfig::baseline().with_dtm(crate::dtm::DtmConfig {
            ipc_trigger: 100.0,
            throttle_factor: 0.5,
        });
        let plain = run(Benchmark::Eon, MachineConfig::baseline());
        let managed = run(Benchmark::Eon, cfg);
        assert_eq!(plain.aggregate_cpi(), managed.aggregate_cpi());
    }

    #[test]
    fn interval_edge_is_exact() {
        // An instruction stream whose length lands exactly on a 128-
        // instruction interval edge must produce only full intervals —
        // no trailing partial — and conserve the instruction count.
        let opts = SimOptions {
            samples: 4,
            interval_instructions: 128,
            seed: 7,
        };
        let sim = Simulator::new(MachineConfig::baseline());
        let exact = TraceGenerator::new(Benchmark::Gcc, 4 * 128, 7);
        let r = sim.run_trace(exact, &opts);
        assert_eq!(r.intervals.len(), 4);
        assert!(r.intervals.iter().all(|i| i.instructions == 128));
        assert_eq!(r.total_instructions(), 4 * 128);

        // One instruction past the edge spills into a partial interval of
        // exactly one instruction; nothing is lost or double-counted.
        let over = TraceGenerator::new(Benchmark::Gcc, 4 * 128 + 1, 7);
        let r = sim.run_trace(over, &opts);
        assert_eq!(r.intervals.len(), 5);
        assert!(r.intervals[..4].iter().all(|i| i.instructions == 128));
        assert_eq!(r.intervals[4].instructions, 1);
        assert_eq!(r.total_instructions(), 4 * 128 + 1);

        // One short of the edge: the last interval is partial with 127.
        let under = TraceGenerator::new(Benchmark::Gcc, 4 * 128 - 1, 7);
        let r = sim.run_trace(under, &opts);
        assert_eq!(r.intervals.len(), 4);
        assert_eq!(r.intervals[3].instructions, 127);
        assert_eq!(r.total_instructions(), 4 * 128 - 1);
    }

    /// Table 2 corner and mixed points, and the baseline with each
    /// extension the engine models; store forwarding twice, once with a
    /// 2-entry, 2-way DTLB whose LRU order a stray access would disturb.
    fn config_matrix() -> Vec<MachineConfig> {
        let baseline = MachineConfig::baseline();
        let mut bimodal = baseline.clone();
        bimodal.bp_kind = crate::BranchPredictorKind::Bimodal;
        let dtm = |throttle_factor| {
            baseline.clone().with_dtm(crate::dtm::DtmConfig {
                ipc_trigger: 0.2,
                throttle_factor,
            })
        };
        let mut small_dtlb = baseline.clone().with_store_forwarding();
        small_dtlb.dtlb_entries = 2;
        small_dtlb.tlb_ways = 2;
        vec![
            baseline.clone(),
            MachineConfig::from_design_values(&[2.0, 96.0, 32.0, 16.0, 256.0, 8.0, 8.0, 8.0, 1.0]),
            MachineConfig::from_design_values(&[
                16.0, 160.0, 128.0, 64.0, 4096.0, 20.0, 64.0, 64.0, 4.0,
            ]),
            bimodal,
            dtm(0.5),
            dtm(0.3),
            MachineConfig::from_design_values(&[
                8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0, 0.1,
            ]),
            baseline.clone().with_next_line_prefetch(),
            baseline.clone().with_store_forwarding(),
            small_dtlb,
        ]
    }

    #[test]
    fn stored_outcomes_replay_exactly_like_the_inline_front_end() {
        let configs = config_matrix();
        let mut other = MachineConfig::baseline();
        other.btb_entries = 512;
        other.btb_ways = 2;
        other.itlb_entries = 32;
        other.dtlb_entries = 64;
        let case = |rng: &mut dynawave_testkit::Rng| {
            let bench = rng.range_usize(0, Benchmark::ALL.len());
            (
                bench,
                rng.range_usize(0, configs.len()),
                rng.range_u64(1, 1 << 20),
            )
        };
        dynawave_testkit::check("stored front-end outcomes == inline front end")
            .cases(48)
            .run(case, |&(bench, index, seed)| {
                let opts = SimOptions {
                    samples: 4,
                    interval_instructions: 200 + seed % 300,
                    seed,
                };
                let bench = Benchmark::ALL[bench % Benchmark::ALL.len()];
                let config = &configs[index % configs.len()];
                let sim = Simulator::new(config.clone());
                let stream = opts.stream(bench);
                let want = sim.run(bench, &opts).intervals;
                if sim.run_trace(stream.iter().copied(), &opts).intervals != want {
                    return Err("inline replay differs from Simulator::run".into());
                }
                let own = FrontEndOutcomes::new(config, &stream);
                let stored = own.for_config(config, stream.len()).is_some();
                if stored == config.store_forwarding {
                    return Err(format!("stored outcomes used: {stored}"));
                }
                let baseline = FrontEndOutcomes::new(&MachineConfig::baseline(), &stream);
                let foreign = FrontEndOutcomes::new(&other, &stream);
                if foreign.for_config(config, stream.len()).is_some() {
                    return Err("outcomes of another front end were used".into());
                }
                for (name, outcomes) in [("own", own), ("baseline", baseline), ("foreign", foreign)]
                {
                    if sim.run_replay(&stream, &outcomes, &opts).intervals != want {
                        return Err(format!("replay with {name} outcomes differs"));
                    }
                }
                Ok(())
            });
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let _ = Simulator::new(MachineConfig::baseline()).run(
            Benchmark::Gcc,
            &SimOptions {
                samples: 0,
                interval_instructions: 100,
                seed: 1,
            },
        );
    }
}
