//! Parameter and design-space definitions.

use std::fmt;

/// Which level set of a [`Parameter`] to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Levels used to build training designs.
    Train,
    /// Levels used to build independent test designs.
    Test,
}

/// One microarchitectural design parameter with discrete train/test levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    name: &'static str,
    train: Vec<f64>,
    test: Vec<f64>,
}

impl Parameter {
    /// Creates a parameter.
    ///
    /// # Panics
    ///
    /// Panics if either level list is empty.
    pub fn new(name: &'static str, train: Vec<f64>, test: Vec<f64>) -> Self {
        assert!(!train.is_empty(), "parameter {name} has no train levels");
        assert!(!test.is_empty(), "parameter {name} has no test levels");
        Parameter { name, train, test }
    }

    /// Parameter name (e.g. `"Fetch_width"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Levels available for training designs.
    pub fn train_levels(&self) -> &[f64] {
        &self.train
    }

    /// Levels available for test designs.
    pub fn test_levels(&self) -> &[f64] {
        &self.test
    }

    /// Levels for the given split.
    pub fn levels(&self, split: Split) -> &[f64] {
        match split {
            Split::Train => &self.train,
            Split::Test => &self.test,
        }
    }
}

/// An ordered collection of [`Parameter`]s spanning the explored space.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    parameters: Vec<Parameter>,
}

impl DesignSpace {
    /// Builds a design space from a parameter list.
    ///
    /// # Panics
    ///
    /// Panics if `parameters` is empty.
    pub fn new(parameters: Vec<Parameter>) -> Self {
        assert!(!parameters.is_empty(), "design space needs >= 1 parameter");
        DesignSpace { parameters }
    }

    /// The paper's Table 2: the 9-parameter SPEC CPU 2000 design space.
    ///
    /// Cache sizes are in KB, latencies in cycles, everything else in
    /// entries or slots.
    pub fn micro2007() -> Self {
        DesignSpace::new(vec![
            Parameter::new("Fetch_width", vec![2.0, 4.0, 8.0, 16.0], vec![2.0, 8.0]),
            Parameter::new("ROB_size", vec![96.0, 128.0, 160.0], vec![128.0, 160.0]),
            Parameter::new("IQ_size", vec![32.0, 64.0, 96.0, 128.0], vec![32.0, 64.0]),
            Parameter::new(
                "LSQ_size",
                vec![16.0, 24.0, 32.0, 64.0],
                vec![16.0, 24.0, 32.0],
            ),
            Parameter::new(
                "L2_size",
                vec![256.0, 1024.0, 2048.0, 4096.0],
                vec![256.0, 1024.0, 4096.0],
            ),
            Parameter::new(
                "L2_lat",
                vec![8.0, 12.0, 14.0, 16.0, 20.0],
                vec![8.0, 12.0, 14.0],
            ),
            Parameter::new(
                "il1_size",
                vec![8.0, 16.0, 32.0, 64.0],
                vec![8.0, 16.0, 32.0],
            ),
            Parameter::new(
                "dl1_size",
                vec![8.0, 16.0, 32.0, 64.0],
                vec![16.0, 32.0, 64.0],
            ),
            Parameter::new("dl1_lat", vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 2.0, 3.0]),
        ])
    }

    /// Table 2 extended with the `DVM` parameter the §5 case study adds
    /// ("we built workload dynamics predictive models which incorporate
    /// DVM as a new design parameter"). The value encodes the policy's
    /// trigger threshold; `0` disables the policy. The paper's default
    /// target is 0.3.
    pub fn micro2007_with_dvm() -> Self {
        Self::micro2007_with_dvm_threshold(0.3)
    }

    /// As [`DesignSpace::micro2007_with_dvm`] with an explicit DVM trigger
    /// threshold (Figure 19 evaluates 0.2, 0.3 and 0.5).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < threshold <= 1.0`.
    pub fn micro2007_with_dvm_threshold(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "DVM threshold must be in (0, 1]"
        );
        let mut s = Self::micro2007();
        s.parameters.push(Parameter::new(
            "DVM",
            vec![0.0, threshold],
            vec![0.0, threshold],
        ));
        s
    }

    /// Number of parameters (input dimensionality of the predictors).
    pub fn dims(&self) -> usize {
        self.parameters.len()
    }

    /// The parameters, in feature order.
    pub fn parameters(&self) -> &[Parameter] {
        &self.parameters
    }

    /// Total number of distinct configurations in the given split's grid.
    pub fn grid_size(&self, split: Split) -> usize {
        self.parameters
            .iter()
            .map(|p| p.levels(split).len())
            .product()
    }

    /// Maps a point's concrete values to `[0, 1]^d` unit coordinates using
    /// the *rank* of each value among the split's levels (centered:
    /// `(rank + 0.5) / levels`). Values not exactly on a level snap to the
    /// nearest level first.
    pub fn to_unit(&self, point: &DesignPoint, split: Split) -> Vec<f64> {
        point
            .values()
            .iter()
            .zip(&self.parameters)
            .map(|(&v, p)| {
                let levels = p.levels(split);
                let rank = nearest_level_index(levels, v);
                (rank as f64 + 0.5) / levels.len() as f64
            })
            .collect()
    }
}

fn nearest_level_index(levels: &[f64], v: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &l) in levels.iter().enumerate() {
        let d = (l - v).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// A concrete configuration: one value per parameter, in the design
/// space's parameter order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    values: Vec<f64>,
}

impl DesignPoint {
    /// Wraps concrete parameter values.
    pub fn new(values: Vec<f64>) -> Self {
        DesignPoint { values }
    }

    /// The parameter values, in design-space order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of the parameter at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn value(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Consumes the point, returning the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for DesignPoint {
    fn from(values: Vec<f64>) -> Self {
        DesignPoint::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape() {
        let s = DesignSpace::micro2007();
        assert_eq!(s.dims(), 9);
        let p = &s.parameters()[0];
        assert_eq!(p.name(), "Fetch_width");
        assert_eq!(p.train_levels(), &[2.0, 4.0, 8.0, 16.0]);
        assert_eq!(p.test_levels(), &[2.0, 8.0]);
        assert_eq!(s.parameters()[8].name(), "dl1_lat");
    }

    #[test]
    fn grid_sizes_match_table2_levels() {
        let s = DesignSpace::micro2007();
        // 4*3*4*4*4*5*4*4*4 train combinations
        assert_eq!(s.grid_size(Split::Train), 4 * 3 * 4 * 4 * 4 * 5 * 4 * 4 * 4);
        assert_eq!(s.grid_size(Split::Test), 2 * 2 * 2 * 3 * 3 * 3 * 3 * 3 * 3);
    }

    #[test]
    fn dvm_space_has_ten_dims() {
        let s = DesignSpace::micro2007_with_dvm();
        assert_eq!(s.dims(), 10);
        assert_eq!(s.parameters()[9].name(), "DVM");
    }

    #[test]
    fn unit_mapping_centers_ranks() {
        let s = DesignSpace::new(vec![Parameter::new(
            "p",
            vec![10.0, 20.0, 30.0, 40.0],
            vec![10.0],
        )]);
        let u = s.to_unit(&DesignPoint::new(vec![20.0]), Split::Train);
        assert!((u[0] - 0.375).abs() < 1e-12);
        // Off-grid values snap to the nearest level.
        let u = s.to_unit(&DesignPoint::new(vec![24.0]), Split::Train);
        assert!((u[0] - 0.375).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no train levels")]
    fn empty_levels_panic() {
        let _ = Parameter::new("x", vec![], vec![1.0]);
    }

    #[test]
    fn display_point() {
        let p = DesignPoint::new(vec![1.0, 2.0]);
        assert_eq!(p.to_string(), "[1, 2]");
    }
}
