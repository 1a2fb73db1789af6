//! Seeded deterministic-interleaving stress harness for sharded executors.
//!
//! Concurrency bugs hide in schedules, not in code paths — so instead of
//! hoping the OS scheduler stumbles onto the bad interleaving, this module
//! *generates* interleavings: a [`StressPlan`] is an explicit, seeded
//! schedule of which shard advances at each step, with occasional mid-run
//! kills (the shards' one shared journal torn mid-write, executor rebuilt
//! from the journal alone). The property under test interprets the plan
//! against the executor and compares it to a sequential oracle.
//!
//! Plans ride the existing property harness, so a failing schedule is
//! shrunk to a minimal one (fewer ops, lower shard indices, smaller
//! kills) and the report prints the replay seed, exactly like
//! [`crate::check`].
//!
//! ```
//! use dynawave_testkit::stress::{stress_parallel, StressOp};
//!
//! // A toy "executor": shards count steps; kills wipe nothing because
//! // state is rebuilt from the (always-complete) journal.
//! stress_parallel("toy counter", 3, 16, |plan| {
//!     let mut counts = vec![0u32; plan.shards];
//!     for op in &plan.ops {
//!         if let StressOp::Step(shard) = op {
//!             counts[shard % plan.shards] += 1;
//!         }
//!     }
//!     let steps = plan
//!         .ops
//!         .iter()
//!         .filter(|op| matches!(op, StressOp::Step(_)))
//!         .count();
//!     if counts.iter().sum::<u32>() as usize == steps {
//!         Ok(())
//!     } else {
//!         Err("lost a step".into())
//!     }
//! });
//! ```

use crate::{CaseResult, Checker, Rng, Shrink};

/// One operation in a randomized shard schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressOp {
    /// Advance the given shard by one work unit. Interpreters should take
    /// the index modulo the plan's shard count so shrinking an index never
    /// creates an invalid op.
    Step(usize),
    /// Kill the executor mid-write: tear `drop_bytes` off the tail of the
    /// journal the shards share (clamped so the header survives, as an
    /// append-only file's header would), and rebuild the executor from
    /// the journal alone.
    Kill {
        /// How many bytes the partial final write loses.
        drop_bytes: usize,
    },
}

impl Shrink for StressOp {
    fn shrink(&self) -> Vec<Self> {
        match *self {
            StressOp::Step(0) => vec![],
            StressOp::Step(shard) => vec![StressOp::Step(0), StressOp::Step(shard / 2)],
            StressOp::Kill { drop_bytes } => {
                // A kill shrinks toward a plain step first (is the kill
                // even needed?), then toward smaller tears.
                let mut out = vec![StressOp::Step(0)];
                if drop_bytes > 0 {
                    out.push(StressOp::Kill {
                        drop_bytes: drop_bytes / 2,
                    });
                }
                out
            }
        }
    }
}

/// A complete randomized schedule for a sharded executor: the shard count
/// it was generated for plus the ordered operations to interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressPlan {
    /// Number of shards the executor under test is partitioned into.
    pub shards: usize,
    /// The interleaving: which shard advances at each step, with
    /// occasional mid-run kills.
    pub ops: Vec<StressOp>,
}

impl Shrink for StressPlan {
    /// Shrinks the schedule (shorter op lists via the `Vec` shrinker),
    /// then each op through its *full* candidate list — the generic
    /// element-wise pass only tries one candidate per element, which
    /// would strand a kill at its first (step) replacement instead of
    /// reaching a smaller kill. The shard count never shrinks: it is part
    /// of the scenario, not the input.
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .ops
            .shrink()
            .into_iter()
            .map(|ops| StressPlan {
                shards: self.shards,
                ops,
            })
            .collect();
        for i in 0..self.ops.len() {
            for candidate in self.ops[i].shrink() {
                let mut ops = self.ops.clone();
                ops[i] = candidate;
                out.push(StressPlan {
                    shards: self.shards,
                    ops,
                });
            }
        }
        out
    }
}

/// Generator for [`StressPlan`]s over `shards` shards: schedules of
/// `min_ops..=max_ops` operations, roughly `kill_percent`% of them kills
/// (tears of up to 48 bytes — enough to eat a unit line's tail), the rest
/// steps on uniformly random shards.
pub fn stress_plan(
    shards: usize,
    min_ops: usize,
    max_ops: usize,
    kill_percent: u32,
) -> impl Fn(&mut Rng) -> StressPlan {
    assert!(shards >= 1, "need at least one shard");
    assert!(min_ops >= 1 && min_ops <= max_ops, "bad op-count bounds");
    move |rng| {
        let len = rng.range_usize(min_ops, max_ops + 1);
        let ops = (0..len)
            .map(|_| {
                if rng.range_u32(0, 100) < kill_percent {
                    StressOp::Kill {
                        drop_bytes: rng.range_usize(0, 48),
                    }
                } else {
                    StressOp::Step(rng.range_usize(0, shards))
                }
            })
            .collect();
        StressPlan { shards, ops }
    }
}

/// Runs `property` against `cases` seeded random schedules over `shards`
/// shards, shrinking any failure to a minimal schedule and panicking with
/// a replayable report (see [`Checker::run`]). The schedule mixes steps
/// with mid-run kills at a fixed 20% rate; build on [`stress_plan`]
/// directly for custom mixes.
pub fn stress_parallel<P>(label: &str, shards: usize, cases: u32, property: P)
where
    P: FnMut(&StressPlan) -> CaseResult,
{
    Checker::new(label)
        .cases(cases)
        .run(stress_plan(shards, 1, 48, 20), property);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_respects_bounds_and_mixes_kills() {
        let mut rng = Rng::new(11);
        let gen = stress_plan(4, 5, 30, 25);
        let mut kills = 0;
        for _ in 0..200 {
            let plan = gen(&mut rng);
            assert_eq!(plan.shards, 4);
            assert!((5..=30).contains(&plan.ops.len()));
            for op in &plan.ops {
                match op {
                    StressOp::Step(shard) => assert!(*shard < 4),
                    StressOp::Kill { drop_bytes } => {
                        assert!(*drop_bytes < 48);
                        kills += 1;
                    }
                }
            }
        }
        assert!(kills > 0, "kill mix never fired");
    }

    #[test]
    fn same_seed_generates_identical_plans() {
        let gen = stress_plan(3, 1, 20, 20);
        let a: Vec<StressPlan> = {
            let mut rng = Rng::new(7);
            (0..10).map(|_| gen(&mut rng)).collect()
        };
        let b: Vec<StressPlan> = {
            let mut rng = Rng::new(7);
            (0..10).map(|_| gen(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn failing_schedule_shrinks_to_a_minimal_kill() {
        // Property: "no kill ever happens". The shrunken witness must be
        // a single zero-byte kill — the smallest schedule that still
        // contains a kill.
        let result = std::panic::catch_unwind(|| {
            stress_parallel("kills forbidden", 4, 64, |plan| {
                if plan
                    .ops
                    .iter()
                    .any(|op| matches!(op, StressOp::Kill { .. }))
                {
                    Err("schedule contains a kill".into())
                } else {
                    Ok(())
                }
            });
        });
        let panic = result.unwrap_err();
        let text = panic.downcast_ref::<String>().expect("string panic");
        assert!(text.contains("replay seed"), "{text}");
        let input_line = text.lines().find(|l| l.contains("input:")).unwrap();
        assert!(
            input_line.contains("ops: [Kill { drop_bytes: 0 }]"),
            "not minimal: {input_line}"
        );
    }

    #[test]
    fn step_ops_shrink_toward_shard_zero() {
        assert_eq!(StressOp::Step(0).shrink(), vec![]);
        let c = StressOp::Step(6).shrink();
        assert!(c.contains(&StressOp::Step(0)));
        assert!(c.contains(&StressOp::Step(3)));
        let c = StressOp::Kill { drop_bytes: 8 }.shrink();
        assert!(c.contains(&StressOp::Step(0)));
        assert!(c.contains(&StressOp::Kill { drop_bytes: 4 }));
    }
}
