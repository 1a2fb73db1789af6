//! Statistical workload-model building blocks.

use crate::phase::PhaseSignal;

/// Relative frequencies of instruction classes.
///
/// Values are weights, not probabilities — they are normalized on use —
/// but keeping them near `1.0` total makes profiles easy to read.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionMix {
    /// Integer ALU weight.
    pub int_alu: f64,
    /// Integer multiply/divide weight.
    pub int_mul: f64,
    /// FP add weight.
    pub fp_alu: f64,
    /// FP multiply/divide weight.
    pub fp_mul: f64,
    /// Load weight.
    pub load: f64,
    /// Store weight.
    pub store: f64,
    /// Conditional-branch weight.
    pub branch: f64,
}

impl InstructionMix {
    /// A generic integer-code mix.
    pub fn integer_default() -> Self {
        InstructionMix {
            int_alu: 0.42,
            int_mul: 0.02,
            fp_alu: 0.01,
            fp_mul: 0.01,
            load: 0.26,
            store: 0.12,
            branch: 0.16,
        }
    }

    /// A generic FP/scientific mix.
    pub fn fp_default() -> Self {
        InstructionMix {
            int_alu: 0.24,
            int_mul: 0.01,
            fp_alu: 0.22,
            fp_mul: 0.14,
            load: 0.28,
            store: 0.08,
            branch: 0.03,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.int_alu
            + self.int_mul
            + self.fp_alu
            + self.fp_mul
            + self.load
            + self.store
            + self.branch
    }
}

/// Static branch-site population model.
///
/// The trace generator materializes `sites` static branches; each dynamic
/// branch selects a site and asks it for an outcome. Sites come in three
/// behavioural families whose proportions are given here.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchModel {
    /// Number of static branch sites.
    pub sites: usize,
    /// Fraction of sites behaving as loop back-edges (taken `period - 1`
    /// times out of `period`).
    pub loop_fraction: f64,
    /// Mean loop period for loop sites (geometric-ish spread around it).
    pub mean_loop_period: u32,
    /// Fraction of sites that are strongly biased (probability `bias`).
    pub biased_fraction: f64,
    /// Taken probability of biased sites.
    pub bias: f64,
    /// Remaining sites are "hard": outcome flips pseudo-randomly with
    /// probability `hard_flip`. The branch-noise phase signal scales this.
    pub hard_flip: f64,
}

impl BranchModel {
    /// A generic, fairly predictable population.
    pub fn predictable() -> Self {
        BranchModel {
            sites: 256,
            loop_fraction: 0.56,
            mean_loop_period: 20,
            biased_fraction: 0.40,
            bias: 0.95,
            hard_flip: 0.15,
        }
    }
}

/// Working-set / reuse model for data accesses.
///
/// Accesses pick a region — hot, warm, cold or streaming — then an aligned
/// address inside it. Region sizes straddle the design space's cache-size
/// levels so that dl1/L2 capacity changes move the miss rates.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Hot-region size in KB (should sit below the smallest dl1 level).
    pub hot_kb: u32,
    /// Warm-region size in KB (straddles the dl1 levels).
    pub warm_kb: u32,
    /// Cold-region size in KB (straddles the L2 levels).
    pub cold_kb: u32,
    /// Probability of a hot access (before phase modulation).
    pub p_hot: f64,
    /// Probability of a warm access.
    pub p_warm: f64,
    /// Probability of a cold access.
    pub p_cold: f64,
    /// Residual probability is streaming: sequential addresses marching
    /// through memory with this stride in bytes.
    pub stream_stride: u32,
}

impl MemoryModel {
    /// Cache-friendly default.
    pub fn cache_friendly() -> Self {
        MemoryModel {
            hot_kb: 4,
            warm_kb: 48,
            cold_kb: 1536,
            p_hot: 0.70,
            p_warm: 0.22,
            p_cold: 0.05,
            stream_stride: 8,
        }
    }

    /// Memory-bound default (mcf-like).
    pub fn memory_bound() -> Self {
        MemoryModel {
            hot_kb: 8,
            warm_kb: 96,
            cold_kb: 3072,
            p_hot: 0.35,
            p_warm: 0.25,
            p_cold: 0.24,
            stream_stride: 32,
        }
    }
}

/// Per-knob phase signals: how each behavioural dial moves over the
/// execution interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynamicsSignals {
    /// Scales cold/stream access probability (cache pressure).
    pub memory: PhaseSignal,
    /// Scales mean dependency distance (instruction-level parallelism).
    pub ilp: PhaseSignal,
    /// Scales the hard-branch flip probability.
    pub branch: PhaseSignal,
    /// Scales the dead-instruction fraction (AVF dynamics).
    pub deadness: PhaseSignal,
}

/// A complete benchmark personality.
///
/// Use [`BenchmarkProfile::builder`] to assemble custom workloads:
///
/// ```
/// use dynawave_workloads::{BenchmarkProfile, Component, PhaseSignal, TraceGenerator};
///
/// let profile = BenchmarkProfile::builder("mykernel")
///     .code_kb(12)
///     .mean_dep_distance(9.0)
///     .memory_signal(PhaseSignal::new(vec![Component::Sine {
///         freq: 2.0,
///         phase: 0.0,
///         amp: 0.6,
///     }]))
///     .build();
/// let trace: Vec<_> = TraceGenerator::from_profile(profile, 1000, 1).collect();
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Display name (`"gcc"`, ...).
    pub name: &'static str,
    /// Instruction-class weights.
    pub mix: InstructionMix,
    /// Branch-site population.
    pub branch: BranchModel,
    /// Data working-set model.
    pub memory: MemoryModel,
    /// Instruction-footprint (code) size in KB; drives il1 behaviour.
    pub code_kb: u32,
    /// Mean register dependency distance (smaller = serial code).
    pub mean_dep_distance: f64,
    /// Baseline fraction of dynamically dead instructions (un-ACE).
    pub dead_fraction: f64,
    /// Phase signals for the four behavioural knobs.
    pub signals: DynamicsSignals,
}

impl BenchmarkProfile {
    /// Starts a builder with generic-integer-code defaults.
    pub fn builder(name: &'static str) -> ProfileBuilder {
        ProfileBuilder {
            profile: BenchmarkProfile {
                name,
                mix: InstructionMix::integer_default(),
                branch: BranchModel::predictable(),
                memory: MemoryModel::cache_friendly(),
                code_kb: 24,
                mean_dep_distance: 5.0,
                dead_fraction: 0.25,
                signals: DynamicsSignals::default(),
            },
        }
    }
}

/// Builder for custom [`BenchmarkProfile`]s. See
/// [`BenchmarkProfile::builder`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: BenchmarkProfile,
}

impl ProfileBuilder {
    /// Sets the instruction-class weights.
    pub fn mix(mut self, mix: InstructionMix) -> Self {
        self.profile.mix = mix;
        self
    }

    /// Sets the branch-site population.
    pub fn branch(mut self, branch: BranchModel) -> Self {
        self.profile.branch = branch;
        self
    }

    /// Sets the data working-set model.
    pub fn memory(mut self, memory: MemoryModel) -> Self {
        self.profile.memory = memory;
        self
    }

    /// Sets the code footprint in KB.
    ///
    /// # Panics
    ///
    /// Panics if `kb == 0`.
    pub fn code_kb(mut self, kb: u32) -> Self {
        assert!(kb > 0, "code footprint must be positive");
        self.profile.code_kb = kb;
        self
    }

    /// Sets the mean register dependency distance (>= 1).
    ///
    /// # Panics
    ///
    /// Panics if `d < 1.0`.
    pub fn mean_dep_distance(mut self, d: f64) -> Self {
        assert!(d >= 1.0, "dependency distance must be >= 1");
        self.profile.mean_dep_distance = d;
        self
    }

    /// Sets the baseline dynamically-dead instruction fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f < 1.0`.
    pub fn dead_fraction(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "dead fraction must be in [0, 1)");
        self.profile.dead_fraction = f;
        self
    }

    /// Sets the cache-pressure phase signal.
    pub fn memory_signal(mut self, signal: PhaseSignal) -> Self {
        self.profile.signals.memory = signal;
        self
    }

    /// Finalizes the profile.
    pub fn build(self) -> BenchmarkProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_normalizable() {
        for mix in [
            InstructionMix::integer_default(),
            InstructionMix::fp_default(),
        ] {
            let t = mix.total();
            assert!(t > 0.9 && t < 1.1, "weight total {t} far from 1");
        }
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let p = BenchmarkProfile::builder("custom")
            .code_kb(8)
            .mean_dep_distance(3.0)
            .dead_fraction(0.1)
            .build();
        assert_eq!(p.name, "custom");
        assert_eq!(p.code_kb, 8);
        assert_eq!(p.mean_dep_distance, 3.0);
        assert_eq!(p.dead_fraction, 0.1);
        // Untouched fields keep their defaults.
        assert_eq!(p.mix, InstructionMix::integer_default());
    }

    #[test]
    #[should_panic(expected = "dead fraction")]
    fn builder_validates_dead_fraction() {
        let _ = BenchmarkProfile::builder("x").dead_fraction(1.5);
    }

    #[test]
    fn memory_probabilities_leave_stream_residual() {
        for m in [MemoryModel::cache_friendly(), MemoryModel::memory_bound()] {
            let p = m.p_hot + m.p_warm + m.p_cold;
            assert!(p < 1.0, "no stream residual");
            assert!(p > 0.5);
        }
    }
}
