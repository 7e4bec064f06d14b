//! Dominance backends over row indices: the [`Dominance`] interface the
//! BMO inner loops are generic over, its batch-gather side door
//! ([`ParetoAccess`]) and the [`MatrixWindow`] view that lets one cached
//! [`ScoreMatrix`] answer for any subset of its rows.

use std::sync::Arc;

use crate::base::BaseRef;
use crate::matrix::ScoreMatrix;

/// The granularity parallel BNL rounds its chunk boundaries to over a
/// whole matrix (and the identity view of one): inputs of up to this
/// many rows run as one chunk, larger ones split at its multiples.
/// Windowed views report `1` and always split. This is a scheduling
/// rule, not a storage fact — key lanes are flat — and the per-backend
/// distinction is load-bearing: both uniform replacements that were
/// measured moved one benchmark workload the wrong way (ROADMAP item 2).
const BNL_CHUNK_ROWS: usize = 4096;

/// A pairwise dominance backend over row indices — the interface the
/// BMO inner loops (BNL windows, SFS filter passes, naive scans) are
/// generic over, implemented by the [`ScoreMatrix`] itself and by
/// [`MatrixWindow`] views onto one.
pub trait Dominance {
    /// Number of rows covered.
    fn len(&self) -> usize;

    /// Is `y` better than `x`?
    fn better(&self, x: usize, y: usize) -> bool;

    /// Is the backend over an empty relation?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batch-gather access to the backend's flat Pareto dimensions, when
    /// the order is a pure `ParetoKeys` plan (every operand a dominance
    /// key). `None` — the default — means the backend has no such lanes
    /// and callers must stay on the pairwise [`Dominance::better`] path.
    fn pareto_access(&self) -> Option<ParetoAccess<'_>> {
        None
    }

    /// Preferred row-chunk alignment for parallel partitioning (`1` = no
    /// preference): parallel BNL rounds its chunk size up to a multiple
    /// of this.
    fn chunk_alignment(&self) -> usize {
        1
    }
}

/// Gather-based access to the key/equality lanes of a flat Pareto order
/// — the batch-dominance interface of [`Dominance::pareto_access`].
///
/// One call to [`ParetoAccess::gather`] copies a row's per-dimension
/// `(key, eq)` pairs into caller-owned buffers; the caller then compares
/// that row against *its own* contiguous structure-of-arrays copies of
/// whatever row set it maintains (e.g. a BNL window), which is where the
/// auto-vectorizable inner loops live. Only the gather pays the window
/// indirection of a [`MatrixWindow`].
#[derive(Debug, Clone, Copy)]
pub struct ParetoAccess<'m> {
    matrix: &'m ScoreMatrix,
    /// `(key slot, eq slot)` per Pareto dimension.
    slots: &'m [(usize, usize)],
    /// Window indirection: row `i` here is matrix row `ids[i]`.
    ids: Option<&'m [u32]>,
}

impl<'m> ParetoAccess<'m> {
    fn new(matrix: &'m ScoreMatrix, ids: Option<&'m [u32]>) -> Option<Self> {
        let slots = matrix.pareto_slots()?;
        Some(ParetoAccess { matrix, slots, ids })
    }

    /// Number of Pareto dimensions.
    pub fn dims(&self) -> usize {
        self.slots.len()
    }

    /// Number of rows covered (window rows when windowed).
    pub fn len(&self) -> usize {
        match self.ids {
            Some(ids) => ids.len(),
            None => self.matrix.len(),
        }
    }

    /// Is the row set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy row `row`'s per-dimension dominance keys and equality codes
    /// into `keys` / `eqs` (each at least [`ParetoAccess::dims`] long).
    /// Keys are never NaN — the matrix build rejects NaN embeddings.
    #[inline]
    pub fn gather(&self, row: usize, keys: &mut [f64], eqs: &mut [u64]) {
        let base = match self.ids {
            Some(ids) => ids[row] as usize,
            None => row,
        };
        for (d, &(k, e)) in self.slots.iter().enumerate() {
            keys[d] = self.matrix.key_at(base, k);
            eqs[d] = self.matrix.eq_at(base, e);
        }
    }
}

impl Dominance for ScoreMatrix {
    fn len(&self) -> usize {
        ScoreMatrix::len(self)
    }

    fn better(&self, x: usize, y: usize) -> bool {
        ScoreMatrix::better(self, x, y)
    }

    fn pareto_access(&self) -> Option<ParetoAccess<'_>> {
        ParetoAccess::new(self, None)
    }

    fn chunk_alignment(&self) -> usize {
        BNL_CHUNK_ROWS
    }
}

/// A view of a shared [`ScoreMatrix`], optionally *windowed* onto a row
/// subset by an index vector.
///
/// Every per-row quantity the matrix materializes — dominance keys,
/// equality ids, EXPLICIT vertex ids — is a pure function of that row's
/// values (equality ids compare only for equality, which restriction
/// preserves), so the matrix built for a whole relation answers
/// dominance questions for **any** subset of its rows: evaluating row
/// `i` of a subset is evaluating base row `ids[i]` of the full matrix.
/// A windowed view is therefore semantically identical to the matrix a
/// fresh materialization of the subset would produce, at the cost of
/// one index indirection per row access — which is how a *never-seen*
/// selection over an already-materialized base runs warm.
#[derive(Debug, Clone)]
pub struct MatrixWindow {
    matrix: Arc<ScoreMatrix>,
    /// `None` = the identity view (the full matrix).
    ids: Option<Arc<[u32]>>,
}

impl MatrixWindow {
    /// The identity view over a whole matrix.
    pub fn full(matrix: Arc<ScoreMatrix>) -> Self {
        MatrixWindow { matrix, ids: None }
    }

    /// Window `matrix` onto the subset selected by `ids` (row `i` of the
    /// window is base row `ids[i]`).
    ///
    /// Every id must be `< matrix.len()`; out-of-range ids panic on
    /// first access, exactly like out-of-range row indices on the
    /// matrix itself.
    pub fn windowed(matrix: Arc<ScoreMatrix>, ids: Arc<[u32]>) -> Self {
        MatrixWindow {
            matrix,
            ids: Some(ids),
        }
    }

    /// Is this a genuine window (index indirection), as opposed to the
    /// identity view?
    pub fn is_windowed(&self) -> bool {
        self.ids.is_some()
    }

    /// The shared underlying matrix.
    pub fn matrix(&self) -> &Arc<ScoreMatrix> {
        &self.matrix
    }

    /// The base-matrix row backing window row `row`.
    #[inline]
    fn base_row(&self, row: usize) -> usize {
        match &self.ids {
            Some(ids) => ids[row] as usize,
            None => row,
        }
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match &self.ids {
            Some(ids) => ids.len(),
            None => self.matrix.len(),
        }
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The strict better-than test on *view* row indices.
    #[inline]
    pub fn better(&self, x: usize, y: usize) -> bool {
        self.matrix.better(self.base_row(x), self.base_row(y))
    }

    /// [`ScoreMatrix::base_key_slot`], unchanged by windowing (slots are
    /// per-term, not per-row).
    pub fn base_key_slot(&self, col: usize, base: &BaseRef) -> Option<usize> {
        self.matrix.base_key_slot(col, base)
    }

    /// The materialized dominance key of *view* row `row` in `slot`.
    pub fn key_at(&self, row: usize, slot: usize) -> f64 {
        self.matrix.key_at(self.base_row(row), slot)
    }

    /// Does the underlying matrix run EXPLICIT sub-terms on the
    /// reachability-bitset backend?
    pub fn explicit_backend(&self) -> bool {
        self.matrix.explicit_backend()
    }
}

impl Dominance for MatrixWindow {
    fn len(&self) -> usize {
        MatrixWindow::len(self)
    }

    fn better(&self, x: usize, y: usize) -> bool {
        MatrixWindow::better(self, x, y)
    }

    fn pareto_access(&self) -> Option<ParetoAccess<'_>> {
        ParetoAccess::new(&self.matrix, self.ids.as_deref())
    }

    fn chunk_alignment(&self) -> usize {
        // A windowed view's rows are not a contiguous run of base rows.
        match self.ids {
            Some(_) => 1,
            None => BNL_CHUNK_ROWS,
        }
    }
}
