//! Dense linear algebra and least-squares kernels for BanditWare.
//!
//! This crate is the from-scratch replacement for the NumPy / scikit-learn
//! layer the paper's Python prototype relies on. It provides exactly the
//! numerical machinery Algorithm 1 needs, and nothing more:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual kernels (products,
//!   transpose, slicing) including a cache-blocked multiply.
//! * [`cholesky`] — Cholesky factorization and SPD solves (with a jittered
//!   fallback for nearly-singular normal equations), plus
//!   [`UpdatableCholesky`]: a factor maintained under O(m²) rank-1
//!   update/downdate/scale, the engine of the allocation-free record path.
//! * [`qr`] — Householder QR and QR-based least squares, the numerically
//!   robust path used when normal equations are ill-conditioned.
//! * [`lstsq`] — ordinary and ridge least squares (`fit_ols`, `fit_ridge`),
//!   the direct analogue of the paper's per-arm regression (step 11 of
//!   Algorithm 1).
//! * [`online`] — incremental normal-equation accumulators and
//!   Sherman–Morrison rank-1 inverse updates, used by the fast arm estimators
//!   and by LinUCB.
//! * [`stats`] — scalar summary statistics (mean/var/quantiles/R²-helpers).
//!
//! Everything is `f64`; the matrices involved in hardware recommendation are
//! tiny (tens of rows, < 10 features), so the design favours clarity and
//! numerical robustness over BLAS-level tuning — with the exception of
//! [`Matrix::mul_blocked`], which is used by the (much larger) matrix
//! workload kernels.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cholesky;
pub mod error;
pub mod lstsq;
pub mod matrix;
pub mod online;
pub mod qr;
mod simd;
pub mod stats;
pub mod vector;

pub use cholesky::{Cholesky, FactorParts, UpdatableCholesky};
pub use error::LinalgError;
pub use lstsq::{fit_ols, fit_ridge, LinearFit};
pub use matrix::Matrix;
pub use online::{NormalEqState, NormalEquations, RankOneInverse, RankOneState, SolveScratch};
pub use qr::QrDecomposition;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
