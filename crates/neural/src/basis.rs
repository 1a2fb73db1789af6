//! The one evaluation kernel of every Gaussian RBF unit.

/// A set of Gaussian units `phi_u(x) = exp(-sum_j ((x_j - mu_uj) / theta_uj)^2)`,
/// the paper's basis functions with centre vector `mu` and radius vector
/// `theta` (§2.2), evaluated on normalized inputs.
///
/// Centres and radii are stored dim-major: one contiguous slice per input
/// dimension holds that coordinate of every unit, so
/// [`GaussianBasis::responses`] walks each slice once with the units in
/// the inner loop. Every unit still gets the operations of the textbook
/// per-unit loop in the same order — `z = (x_j - mu_uj) / theta_uj`,
/// `s_u += z * z` for `j = 0..d` from `s_u = 0`, then `exp(-s_u)` — so its
/// response is bit-identical to that loop's.
#[derive(Debug, Clone)]
pub struct GaussianBasis {
    units: usize,
    /// `centers[j][u]`: coordinate `j` of unit `u`'s centre.
    centers: Vec<Vec<f64>>,
    /// `radii[j][u]`: radius of unit `u` along dimension `j`.
    radii: Vec<Vec<f64>>,
}

impl GaussianBasis {
    /// An empty basis over `dims` input dimensions with room for `units`
    /// units.
    pub fn with_capacity(dims: usize, units: usize) -> Self {
        // Not `vec![..; dims]`: a cloned `Vec` drops its capacity.
        let columns = || (0..dims).map(|_| Vec::with_capacity(units)).collect();
        GaussianBasis {
            units: 0,
            centers: columns(),
            radii: columns(),
        }
    }

    /// Appends one unit.
    ///
    /// # Panics
    ///
    /// Panics unless `center` and `radius` both have [`GaussianBasis::dims`]
    /// entries.
    pub fn push(&mut self, center: &[f64], radius: &[f64]) {
        assert!(
            center.len() == self.dims() && radius.len() == self.dims(),
            "unit dimensionality differs from the basis"
        );
        for (column, &c) in self.centers.iter_mut().zip(center) {
            column.push(c);
        }
        for (column, &r) in self.radii.iter_mut().zip(radius) {
            column.push(r);
        }
        self.units += 1;
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units
    }

    /// `true` when the basis holds no unit.
    pub fn is_empty(&self) -> bool {
        self.units == 0
    }

    /// Number of input dimensions.
    pub fn dims(&self) -> usize {
        self.centers.len()
    }

    /// The centres, dim-major: `centers()[j][u]` is coordinate `j` of
    /// unit `u`'s centre.
    pub fn centers(&self) -> &[Vec<f64>] {
        &self.centers
    }

    /// The radii, dim-major: `radii()[j][u]` is unit `u`'s radius along
    /// dimension `j`.
    pub fn radii(&self) -> &[Vec<f64>] {
        &self.radii
    }

    /// Every unit's centre and radius vectors, in unit order.
    pub fn units(&self) -> impl Iterator<Item = (Vec<f64>, Vec<f64>)> + '_ {
        (0..self.units).map(|u| {
            (
                self.centers.iter().map(|column| column[u]).collect(),
                self.radii.iter().map(|column| column[u]).collect(),
            )
        })
    }

    /// Writes every unit's response at the normalized input `xn` to the
    /// first [`GaussianBasis::len`] entries of `out`, in unit order.
    ///
    /// # Panics
    ///
    /// Panics unless `xn` has [`GaussianBasis::dims`] entries and `out`
    /// has room for every unit.
    pub fn responses(&self, xn: &[f64], out: &mut [f64]) {
        assert!(
            xn.len() == self.dims() && out.len() >= self.units,
            "input or output length differs from the basis"
        );
        let out = &mut out[..self.units];
        out.fill(0.0);
        for ((&x, mu), theta) in xn.iter().zip(&self.centers).zip(&self.radii) {
            for ((s, &m), &t) in out.iter_mut().zip(mu).zip(theta) {
                let z = (x - m) / t;
                *s += z * z;
            }
        }
        for s in out {
            *s = (-*s).exp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynawave_numeric::rng::Rng;

    /// The per-unit loop the kernel must match bit for bit.
    fn scalar_response(x: &[f64], center: &[f64], radius: &[f64]) -> f64 {
        let mut s = 0.0;
        for ((&xi, &mu), &th) in x.iter().zip(center).zip(radius) {
            let z = (xi - mu) / th;
            s += z * z;
        }
        (-s).exp()
    }

    fn assert_matches_scalar(basis: &GaussianBasis, x: &[f64]) {
        let mut out = vec![f64::NAN; basis.len() + 2];
        basis.responses(x, &mut out);
        for (u, (center, radius)) in basis.units().enumerate() {
            let want = scalar_response(x, &center, &radius);
            assert_eq!(out[u].to_bits(), want.to_bits(), "unit {u} at {x:?}");
        }
        // Entries past the units are left alone.
        assert!(out[basis.len()..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn responses_match_the_scalar_formula_bitwise() {
        let mut rng = Rng::new(0x6A05_5BA5);
        for dims in [1, 2, 9, 10] {
            let mut basis = GaussianBasis::with_capacity(dims, 67);
            for u in 0..67 {
                let center: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 1.4 - 0.2).collect();
                // Every third unit sits at the 0.7 radius floor in some
                // dimensions, as narrow tree leaves do.
                let radius: Vec<f64> = (0..dims)
                    .map(|j| {
                        if (u + j) % 3 == 0 {
                            0.7
                        } else {
                            0.7 + rng.next_f64() * 5.0
                        }
                    })
                    .collect();
                basis.push(&center, &radius);
            }
            assert_eq!(basis.len(), 67);
            for _ in 0..20 {
                let x: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 2.0 - 0.5).collect();
                assert_matches_scalar(&basis, &x);
            }
            // On a centre every term is exactly zero.
            let (center, _) = basis.units().nth(5).unwrap();
            assert_matches_scalar(&basis, &center);
        }
    }

    #[test]
    fn far_inputs_underflow_to_zero_like_the_scalar_formula() {
        let mut basis = GaussianBasis::with_capacity(3, 3);
        basis.push(&[0.0, 0.0, 0.0], &[0.7, 0.7, 0.7]);
        basis.push(&[0.5, 0.5, 0.5], &[1e-3, 2.0, 0.7]);
        basis.push(&[1.0, -1.0, 0.25], &[1e-9, 1e-9, 1e-9]);
        for x in [[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [1e6, -1e6, 3.0]] {
            assert_matches_scalar(&basis, &x);
        }
        let mut out = [1.0; 3];
        basis.responses(&[1e6, -1e6, 3.0], &mut out);
        assert_eq!(out.map(f64::to_bits), [0.0f64.to_bits(); 3]);
    }

    #[test]
    fn empty_and_zero_dimensional_bases() {
        let empty = GaussianBasis::with_capacity(4, 0);
        assert!(empty.is_empty());
        let mut out = [7.0];
        empty.responses(&[0.0; 4], &mut out);
        assert_eq!(out, [7.0]);
        // A unit over no dimensions has s = 0 and responds exp(-0) = 1.
        let mut flat = GaussianBasis::with_capacity(0, 2);
        flat.push(&[], &[]);
        flat.push(&[], &[]);
        let mut out = [0.0; 2];
        flat.responses(&[], &mut out);
        assert_eq!(out, [1.0, 1.0]);
        assert_eq!(flat.units().count(), 2);
    }

    #[test]
    fn units_round_trip_in_order() {
        let mut basis = GaussianBasis::with_capacity(2, 2);
        basis.push(&[0.1, 0.2], &[1.0, 2.0]);
        basis.push(&[0.3, 0.4], &[3.0, 4.0]);
        let units: Vec<_> = basis.units().collect();
        assert_eq!(
            units,
            [
                (vec![0.1, 0.2], vec![1.0, 2.0]),
                (vec![0.3, 0.4], vec![3.0, 4.0])
            ]
        );
    }
}
