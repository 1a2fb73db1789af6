//! Phase signals: deterministic time-varying modulation of workload
//! behaviour over an execution interval.
//!
//! A [`PhaseSignal`] maps trace position `t in [0, 1)` to a positive
//! multiplier around `1.0`. The trace generator evaluates one signal per
//! behavioural knob (memory intensity, ILP, branch noise, FP share) and
//! scales the corresponding model parameter, giving each benchmark its
//! characteristic dynamics.

use dynawave_numeric::rng::{splitmix64, unit_f64};

/// One additive component of a [`PhaseSignal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// `amp * sin(2*pi*(freq*t + phase))` — smooth periodic phases
    /// (e.g. swim's loop nests).
    Sine {
        /// Cycles over the whole interval.
        freq: f64,
        /// Phase offset in cycles.
        phase: f64,
        /// Amplitude.
        amp: f64,
    },
    /// Square wave alternating `+amp` (for a `duty` fraction) / `-amp` —
    /// block-structured phases (e.g. bzip2 compress/expand blocks).
    Square {
        /// Cycles over the whole interval.
        freq: f64,
        /// Fraction of each cycle spent at `+amp`, in `(0, 1)`.
        duty: f64,
        /// Phase offset in cycles.
        phase: f64,
        /// Amplitude.
        amp: f64,
    },
    /// `count` triangular spikes of half-width `width` at pseudo-random
    /// positions derived from `seed` — bursty behaviour (e.g. gcc).
    Spikes {
        /// Number of spikes in the interval.
        count: u32,
        /// Spike half-width as a fraction of the interval.
        width: f64,
        /// Spike amplitude.
        amp: f64,
        /// Position-derivation seed.
        seed: u64,
    },
    /// Linear ramp from `-amp` at `t = 0` to `+amp` at `t = 1` — drift
    /// (e.g. data-structure growth in mcf/parser).
    Ramp {
        /// Amplitude.
        amp: f64,
    },
}

impl Component {
    fn eval(&self, t: f64) -> f64 {
        match *self {
            Component::Sine { freq, phase, amp } => {
                amp * (std::f64::consts::TAU * (freq * t + phase)).sin()
            }
            Component::Square {
                freq,
                duty,
                phase,
                amp,
            } => {
                let cycle = (freq * t + phase).rem_euclid(1.0);
                if cycle < duty {
                    amp
                } else {
                    -amp
                }
            }
            Component::Spikes {
                count,
                width,
                amp,
                seed,
            } => {
                let mut v: f64 = 0.0;
                for k in 0..count {
                    let pos = unit_f64(splitmix64(seed ^ (u64::from(k) << 17)));
                    let d = (t - pos).abs();
                    if d < width {
                        v = v.max(amp * (1.0 - d / width));
                    }
                }
                v
            }
            Component::Ramp { amp } => amp * (2.0 * t - 1.0),
        }
    }
}

/// A positive multiplier signal over the execution interval.
///
/// The value at `t` is `1.0 + sum(components)` clamped to
/// `[0.05, 4.0]`.
///
/// # Examples
///
/// ```
/// use dynawave_workloads::{Component, PhaseSignal};
///
/// let s = PhaseSignal::new(vec![Component::Sine { freq: 2.0, phase: 0.0, amp: 0.5 }]);
/// assert!((s.value(0.0) - 1.0).abs() < 1e-12);
/// assert!(s.value(0.125) > 1.4); // peak of the sine
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSignal {
    components: Vec<Component>,
}

impl PhaseSignal {
    /// A constant signal of value 1.0.
    pub fn constant() -> Self {
        PhaseSignal::new(Vec::new())
    }

    /// Lowest value a signal takes.
    const FLOOR: f64 = 0.05;
    /// Highest value a signal takes.
    const CEILING: f64 = 4.0;

    /// Builds a signal from its components.
    pub fn new(components: Vec<Component>) -> Self {
        PhaseSignal { components }
    }

    /// Evaluates the multiplier at trace position `t` (clamped to
    /// `[0, 1]`).
    pub fn value(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        let raw: f64 = 1.0 + self.components.iter().map(|c| c.eval(t)).sum::<f64>();
        raw.clamp(Self::FLOOR, Self::CEILING)
    }

    /// The signal's components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }
}

impl Default for PhaseSignal {
    fn default() -> Self {
        PhaseSignal::constant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one_everywhere() {
        let s = PhaseSignal::constant();
        for i in 0..=10 {
            assert_eq!(s.value(i as f64 / 10.0), 1.0);
        }
    }

    #[test]
    fn sine_oscillates_around_one() {
        let s = PhaseSignal::new(vec![Component::Sine {
            freq: 1.0,
            phase: 0.0,
            amp: 0.5,
        }]);
        assert!((s.value(0.25) - 1.5).abs() < 1e-12);
        assert!((s.value(0.75) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn square_has_two_levels() {
        let s = PhaseSignal::new(vec![Component::Square {
            freq: 1.0,
            duty: 0.5,
            phase: 0.0,
            amp: 0.3,
        }]);
        assert!((s.value(0.1) - 1.3).abs() < 1e-12);
        assert!((s.value(0.9) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn spikes_are_localized_and_deterministic() {
        let s = PhaseSignal::new(vec![Component::Spikes {
            count: 3,
            width: 0.02,
            amp: 2.0,
            seed: 9,
        }]);
        let vals: Vec<f64> = (0..1000).map(|i| s.value(i as f64 / 1000.0)).collect();
        let above: usize = vals.iter().filter(|&&v| v > 1.5).count();
        assert!(above > 0, "no spikes found");
        assert!(above < 150, "spikes too wide: {above}");
        let again: Vec<f64> = (0..1000).map(|i| s.value(i as f64 / 1000.0)).collect();
        assert_eq!(vals, again);
    }

    #[test]
    fn ramp_monotone() {
        let s = PhaseSignal::new(vec![Component::Ramp { amp: 0.4 }]);
        assert!((s.value(0.0) - 0.6).abs() < 1e-12);
        assert!((s.value(1.0) - 1.4).abs() < 1e-12);
        assert!((s.value(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamping_applies() {
        let s = PhaseSignal::new(vec![Component::Ramp { amp: 100.0 }]);
        assert_eq!(s.value(0.0), 0.05);
        assert_eq!(s.value(1.0), 4.0);
    }
}
