//! The fixed Table 1 front end: ITLB, DTLB, branch direction predictor
//! and BTB.
//!
//! None of these structures is a Table 2 knob, and each is touched in
//! program order, independent of timing. Their outcome for each
//! instruction is therefore the same at every design point of a
//! benchmark: [`FrontEndOutcomes`] computes it once per stream, and
//! [`Simulator::run_replay`](crate::Simulator::run_replay) reads it back
//! instead of running the structures again.

use crate::branch::{Bimodal, Btb, Gshare};
use crate::cache::Tlb;
use crate::config::{BranchPredictorKind, MachineConfig};
use dynawave_workloads::Instruction;

/// Outcome bit: the ITLB missed on a new fetch line.
pub(crate) const ITLB_MISS: u8 = 1;
/// Outcome bit: the DTLB missed on a store or an unforwarded load.
pub(crate) const DTLB_MISS: u8 = 1 << 1;
/// Outcome bit: the branch direction was mispredicted.
pub(crate) const MISPREDICT: u8 = 1 << 2;
/// Outcome bit: the BTB missed on a correctly predicted taken branch.
pub(crate) const BTB_MISS: u8 = 1 << 3;

/// The configuration fields the front end's outcomes depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Geometry {
    bp_kind: BranchPredictorKind,
    bp_entries: u32,
    bp_history_bits: u32,
    btb_entries: u32,
    btb_ways: u32,
    itlb_entries: u32,
    dtlb_entries: u32,
    tlb_ways: u32,
    il1_line: u32,
}

impl Geometry {
    fn of(c: &MachineConfig) -> Self {
        Geometry {
            bp_kind: c.bp_kind,
            bp_entries: c.bp_entries,
            bp_history_bits: c.bp_history_bits,
            btb_entries: c.btb_entries,
            btb_ways: c.btb_ways,
            itlb_entries: c.itlb_entries,
            dtlb_entries: c.dtlb_entries,
            tlb_ways: c.tlb_ways,
            il1_line: c.il1_line,
        }
    }
}

#[derive(Debug, Clone)]
enum Direction {
    Gshare(Gshare),
    Bimodal(Bimodal),
}

/// The front-end structures of one run, stepped in program order.
#[derive(Debug, Clone)]
pub(crate) struct FrontEnd {
    itlb: Tlb,
    dtlb: Tlb,
    direction: Direction,
    btb: Btb,
    last_line: u64,
    line_shift: u32,
}

impl FrontEnd {
    pub(crate) fn new(c: &MachineConfig) -> Self {
        FrontEnd {
            itlb: Tlb::new(c.itlb_entries, c.tlb_ways),
            dtlb: Tlb::new(c.dtlb_entries, c.tlb_ways),
            direction: match c.bp_kind {
                BranchPredictorKind::Gshare => {
                    Direction::Gshare(Gshare::new(c.bp_entries, c.bp_history_bits))
                }
                BranchPredictorKind::Bimodal => Direction::Bimodal(Bimodal::new(c.bp_entries)),
            },
            btb: Btb::new(c.btb_entries, c.btb_ways),
            last_line: u64::MAX,
            line_shift: c.il1_line.trailing_zeros(),
        }
    }

    /// Steps every structure `instr` touches and returns its outcome bits.
    /// A load that `forwarded` from the store buffer skips the DTLB;
    /// `forwarded` is never set for any other instruction.
    pub(crate) fn outcome(&mut self, instr: &Instruction, forwarded: bool) -> u8 {
        let mut bits = 0;
        let line = instr.pc >> self.line_shift;
        if line != self.last_line {
            self.last_line = line;
            if !self.itlb.access(instr.pc) {
                bits |= ITLB_MISS;
            }
        }
        if instr.is_memory() && !forwarded && !self.dtlb.access(instr.addr) {
            bits |= DTLB_MISS;
        }
        if instr.is_branch() {
            let correct = match &mut self.direction {
                Direction::Gshare(g) => g.predict_and_update(instr.pc, instr.taken),
                Direction::Bimodal(b) => b.predict_and_update(instr.pc, instr.taken),
            };
            if !correct {
                bits |= MISPREDICT;
            } else if instr.taken && !self.btb.access(instr.pc) {
                bits |= BTB_MISS;
            }
        }
        bits
    }
}

/// The front-end outcomes of one instruction stream, one byte per
/// instruction, for the front end of the configuration they were built
/// for.
///
/// A caller that replays one stream into many configurations builds
/// this once beside the stream and passes both to
/// [`Simulator::run_replay`](crate::Simulator::run_replay). The stored
/// outcomes serve every configuration with the same predictor, BTB, TLB
/// and L1I-line fields and store forwarding off, which includes every
/// Table 2 design point; any other configuration runs the front end
/// inline, with the same result.
///
/// # Examples
///
/// ```
/// use dynawave_sim::{FrontEndOutcomes, MachineConfig, SimOptions, Simulator};
/// use dynawave_workloads::Benchmark;
///
/// let opts = SimOptions { samples: 4, interval_instructions: 500, seed: 1 };
/// let stream = opts.stream(Benchmark::Gcc);
/// let outcomes = FrontEndOutcomes::new(&MachineConfig::baseline(), &stream);
/// let narrow = MachineConfig::from_design_values(&[
///     2.0, 96.0, 32.0, 16.0, 256.0, 8.0, 8.0, 8.0, 1.0,
/// ]);
/// let sim = Simulator::new(narrow);
/// assert_eq!(
///     sim.run_replay(&stream, &outcomes, &opts).intervals,
///     sim.run(Benchmark::Gcc, &opts).intervals,
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FrontEndOutcomes {
    geometry: Geometry,
    bits: Vec<u8>,
}

impl FrontEndOutcomes {
    /// Runs `config`'s front end over `stream` once, in program order,
    /// with store forwarding off.
    pub fn new(config: &MachineConfig, stream: &[Instruction]) -> Self {
        let mut front_end = FrontEnd::new(config);
        FrontEndOutcomes {
            geometry: Geometry::of(config),
            bits: stream.iter().map(|i| front_end.outcome(i, false)).collect(),
        }
    }

    /// The stored outcomes, if they hold for `config` on a stream of
    /// `len` instructions.
    pub(crate) fn for_config(&self, config: &MachineConfig, len: usize) -> Option<&[u8]> {
        let fits = !config.store_forwarding
            && self.bits.len() == len
            && self.geometry == Geometry::of(config);
        fits.then_some(&self.bits[..])
    }
}
