//! Dominance backends over row indices: the [`Dominance`] interface the
//! BMO inner loops are generic over, its batch-gather side doors
//! ([`ParetoAccess`] for flat Pareto orders, [`PriorAccess`] for
//! prioritisations headed by one key lane) and the [`MatrixWindow`] view
//! that lets one cached [`ScoreMatrix`] answer for any subset of its rows.

use std::sync::Arc;

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

    /// Head-by-head access to a prioritisation whose first operand is one
    /// key lane (or to a lone key lane). `None` — the default — for every
    /// other order.
    fn prior_access(&self) -> Option<PriorAccess<'_>> {
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
        let base = base_row(self.ids, row);
        for (d, &(k, e)) in self.slots.iter().enumerate() {
            keys[d] = self.matrix.key_at(base, k);
            eqs[d] = self.matrix.eq_at(base, e);
        }
    }
}

/// Head-by-head access to a prioritisation `P1 & … & Pn` whose leading
/// operands are single key lanes or anti-chains — the *heads* — and to
/// what follows them — the [`PriorTail`] ([`Dominance::prior_access`]).
/// A lone key lane or anti-chain is the degenerate case: one head, no
/// tail.
///
/// A key lane is a weak order by key whose Def. 9 equality `=A` is
/// equality of codes, so Prop. 10 (`σ[P1&P2](R) = σ[P1](R) ∩ σ[P2 groupby
/// A1](R)`) evaluates the order a head at a time: every row below the best
/// head key present is dominated by any row at that key, rows at that key
/// with different codes are incomparable, and inside one code the next
/// head (or the tail) decides. An anti-chain head `A↔` is the weak order
/// with one key: every row ties on it, and its codes are the groups of
/// Def. 16's `σ[P groupby A](R) = σ[A↔ & P](R)`.
#[derive(Debug, Clone)]
pub struct PriorAccess<'m> {
    matrix: &'m ScoreMatrix,
    ids: Option<&'m [u32]>,
    /// `(key slot, eq slot)` per head; see `matrix::PriorSplit`.
    heads: Vec<(Option<usize>, Option<usize>)>,
    tail: PriorTail<'m>,
}

/// What follows the heads of a [`PriorAccess`].
#[derive(Debug, Clone)]
pub enum PriorTail<'m> {
    /// Nothing: the rows the last head keeps are maximal.
    Empty,
    /// One flat Pareto operand, with its key lanes.
    Lanes(ParetoAccess<'m>),
    /// Anything else: inside one bucket of head codes,
    /// [`Dominance::better`] compares exactly the tail.
    Pairwise,
}

impl<'m> PriorAccess<'m> {
    fn new(matrix: &'m ScoreMatrix, ids: Option<&'m [u32]>) -> Option<Self> {
        let split = matrix.prior_split()?;
        let tail = match split.tail {
            None => PriorTail::Empty,
            Some(Some(slots)) => PriorTail::Lanes(ParetoAccess { matrix, slots, ids }),
            Some(None) => PriorTail::Pairwise,
        };
        Some(PriorAccess {
            matrix,
            ids,
            heads: split.heads,
            tail,
        })
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

    /// Number of heads (at least one).
    pub fn heads(&self) -> usize {
        self.heads.len()
    }

    /// Head `h`'s dominance key of a row (higher is better, never NaN);
    /// `None` for an anti-chain head, on which every row ties.
    pub fn key(&self, h: usize) -> Option<impl Fn(usize) -> f64 + '_> {
        let slot = self.heads[h].0?;
        Some(move |row| self.matrix.key_at(base_row(self.ids, row), slot))
    }

    /// Head `h`'s equality code of row `row`. Every head that an operand
    /// follows has codes; the last operand of the prioritisation and the
    /// one head of a lone key lane have none, and asking for them panics.
    #[inline]
    pub fn code(&self, row: usize, h: usize) -> u64 {
        let slot = self.heads[h].1.expect("nothing follows the last head");
        self.matrix.eq_at(base_row(self.ids, row), slot)
    }

    /// What follows the heads.
    pub fn tail(&self) -> &PriorTail<'m> {
        &self.tail
    }
}

/// The base-matrix row behind row `row` of an access windowed by `ids`.
#[inline]
fn base_row(ids: Option<&[u32]>, row: usize) -> usize {
    match ids {
        Some(ids) => ids[row] as usize,
        None => row,
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

    fn prior_access(&self) -> Option<PriorAccess<'_>> {
        PriorAccess::new(self, None)
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

    /// The window onto rows `rows` of this view: row `k` of the result
    /// is view row `rows[k]`, composed onto the same base matrix.
    pub fn restrict(&self, rows: &[usize]) -> Self {
        let ids = rows.iter().map(|&k| self.base_row(k) as u32).collect();
        MatrixWindow::windowed(Arc::clone(&self.matrix), ids)
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

    fn prior_access(&self) -> Option<PriorAccess<'_>> {
        PriorAccess::new(&self.matrix, self.ids.as_deref())
    }

    fn chunk_alignment(&self) -> usize {
        // A windowed view's rows are not a contiguous run of base rows.
        match self.ids {
            Some(_) => 1,
            None => BNL_CHUNK_ROWS,
        }
    }
}
