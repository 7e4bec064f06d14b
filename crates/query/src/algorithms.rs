//! Efficient BMO evaluation algorithms.
//!
//! The paper defers efficiency but points at the skyline literature for
//! the restricted Pareto case ("efficient evaluation algorithms have been
//! given in \[KLP75\], \[BKS01\] and \[TEO01\]", §6.1). This module implements:
//!
//! * [`bnl::bnl`] — Block-Nested-Loops (\[BKS01\]), correct for *any*
//!   strict partial order, the general-purpose workhorse;
//! * [`bnl::bnl_parallel`] — chunked BNL merging local maxima
//!   (maxima of a union are contained in the union of local maxima);
//! * [`dnc::dnc`] — divide & conquer maxima (\[KLP75\]) for `SKYLINE OF`
//!   shaped terms (Pareto over LOWEST/HIGHEST chains);
//! * [`sfs::sfs`] — Sort-Filter-Skyline: presort by a monotone utility,
//!   then a single filtering pass against accepted maxima.
//!
//! SFS's filter pass and D&C's merge (and D&C's fallback on a slice its
//! first dimension cannot split) ask the same question — does any
//! accepted row dominate this one? — of one private early-exit window
//! (`window`): a flat head of the first 256 accepted rows, then
//! partitions by a bit mask against the head's median, of which a
//! candidate sweeps only those whose mask is a subset of its own.
//!
//! All algorithms return sorted row-index vectors and are
//! property-checked against the naive oracle.

pub mod bnl;
pub mod dnc;
pub mod sfs;
mod window;

pub use bnl::{bnl, bnl_generic, bnl_matrix, bnl_parallel};
pub use dnc::dnc;
pub use sfs::sfs;
