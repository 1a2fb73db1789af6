//! RBF neural networks with regression-tree center selection.
//!
//! The predictive models in the MICRO 2007 paper are radial-basis-function
//! (RBF) networks whose centers and radii come from a CART-style regression
//! tree, following Orr et al., *"Combining Regression Trees and Radial
//! Basis Function Networks"* (paper reference \[16\]):
//!
//! 1. [`RegressionTree`] recursively partitions the training inputs with
//!    variance-reducing axis-aligned splits. Each tree node — root,
//!    internal and terminal alike — contributes one Gaussian unit whose
//!    center is the node's sample mean and whose radius is the node's
//!    per-dimension extent.
//! 2. [`RbfNetwork`] places those units, then fits the output weights with
//!    ridge-regularized least squares.
//!
//! Every unit response — a row of the design matrix, a network's
//! prediction, a whole predictor's merged basis — comes from one kernel,
//! [`GaussianBasis::responses`].
//!
//! The tree also exposes the *split order* and *split frequency*
//! introspection used for the paper's Figure 11 star plots
//! ([`RegressionTree::split_order_scores`] /
//! [`RegressionTree::split_frequencies`]).
//!
//! A [`LinearModel`] baseline and random-center RBF construction
//! ([`RbfNetwork::fit_with_random_centers`]) are included for the ablation
//! studies in `dynawave-bench`.
//!
//! # Examples
//!
//! ```
//! use dynawave_neural::{RbfNetwork, RbfParams};
//! use dynawave_numeric::Matrix;
//!
//! // Learn y = x0 + x1 on a tiny grid.
//! let mut rows = Vec::new();
//! let mut y = Vec::new();
//! for i in 0..5 {
//!     for j in 0..5 {
//!         rows.push(vec![i as f64 / 4.0, j as f64 / 4.0]);
//!         y.push((i + j) as f64 / 4.0);
//!     }
//! }
//! let x = Matrix::from_vec(25, 2, rows.concat()).unwrap();
//! let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
//! let pred = net.predict(&[0.5, 0.5]);
//! assert!((pred - 1.0).abs() < 0.25);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod basis;
mod context;
mod error;
mod linear;
mod normalize;
mod rbf;
mod tree;

pub use basis::GaussianBasis;
pub use context::FitContext;
pub use error::ModelError;
pub use linear::LinearModel;
pub use normalize::Normalizer;
pub use rbf::{RbfNetwork, RbfNetworkData, RbfParams};
pub use tree::{RegressionTree, SplitInfo, TreeParams};
