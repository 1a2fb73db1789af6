/// Functional class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (1-cycle).
    IntAlu,
    /// Integer multiply/divide (long latency).
    IntMul,
    /// Floating-point add/sub/compare.
    FpAlu,
    /// Floating-point multiply/divide/sqrt (long latency).
    FpMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

impl OpClass {
    /// Position of this class in [`OpClass::ALL`].
    pub const fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::FpAlu => 2,
            OpClass::FpMul => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::Branch => 6,
        }
    }

    /// All classes, in a stable order.
    pub const ALL: [OpClass; 7] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// `true` for loads and stores.
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One dynamic instruction of a synthetic trace.
///
/// Dependency distances count backwards in program order: `dep1 == 3`
/// means the first source operand is produced by the instruction three
/// positions earlier. `0` means no register dependence (or a dependence
/// old enough to always be satisfied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Instruction address (bytes; 4-byte instructions).
    pub pc: u64,
    /// Functional class.
    pub class: OpClass,
    /// Distance to the producer of source 1 (`0` = none).
    pub dep1: u16,
    /// Distance to the producer of source 2 (`0` = none).
    pub dep2: u16,
    /// Effective data address for loads/stores, `0` otherwise.
    pub addr: u64,
    /// Branch outcome (meaningful only when `class == Branch`).
    pub taken: bool,
    /// `true` when the result is dynamically dead — it never influences
    /// architected state, so its bits are un-ACE for AVF purposes.
    pub dead: bool,
}

impl Instruction {
    /// `true` when the instruction is a conditional branch.
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// `true` when the instruction accesses memory.
    pub fn is_memory(&self) -> bool {
        self.class.is_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Store.is_memory());
        assert!(!OpClass::Branch.is_memory());
    }

    #[test]
    fn all_classes_unique() {
        for (i, a) in OpClass::ALL.iter().enumerate() {
            for b in &OpClass::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
