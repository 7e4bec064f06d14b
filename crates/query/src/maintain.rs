//! The result-maintenance classifier: patch a cached BMO result against
//! a relation's [`Delta`](pref_relation::Delta) instead of re-running
//! the algorithm.
//!
//! Chomicki's incremental-skyline argument (PAPERS.md): for a finite
//! strict partial order, `max(P, A ∪ B) = max(P, max(P, A) ∪ B)` — and
//! when no member of `max(P, A)` was deleted, the old maxima of the
//! surviving rows stay maximal (every non-maximal old row was dominated
//! by a *surviving* maximal one). Storage only grows by appends and
//! shrinks by tombstones, so maintenance reduces to running the BNL
//! window again, seeded with the previous result, over only the
//! appended rows: `O(|appended| · |result|)` dominance tests, no pass
//! over the relation and no matrix walk.
//!
//! The classifier is a pure function of its arguments — it reads no
//! engine state; [`Engine`](crate::engine::Engine) decides when to call
//! it and what to do with the answer.

use pref_core::eval::CompiledPref;
use pref_relation::Relation;

use crate::algorithms::bnl::bnl_window;

/// Maintain `prev` — the result row positions cached at
/// `r.delta().bases()[base_idx]`, ascending — into the result over
/// `r`'s current content, as sorted row positions.
///
/// Positions are translated through the delta's storage-space claims
/// (tombstone watermarks, see [`Delta`](pref_relation::Delta)). Returns
/// `None` when classification cannot decide — a result member is
/// tombstoned, or the delta's claims don't map onto the current view —
/// and the caller recomputes from scratch (this is also how deletes
/// re-promote previously dominated rows).
pub(crate) fn maintain_result(
    c: &CompiledPref,
    r: &Relation,
    prev: &[u32],
    base_idx: usize,
) -> Option<Vec<usize>> {
    let delta = r.delta()?;
    let (_, base_len) = delta.bases()[base_idx];
    let since = delta.deleted_since(base_idx);
    let t = delta.deleted().len() - since.len();
    // Storage length at the base state: its visible rows were
    // storage `0..s_g` minus the `t` tombstones recorded before it.
    let s_g = base_len + t;

    // Translate the cached result's *positions* (at the base state)
    // into *storage ids*. With no prior tombstones the two spaces
    // coincide; otherwise enumerate the visible-at-base sequence.
    let old_ids: Vec<u32> = if t == 0 {
        prev.to_vec()
    } else {
        let before = &delta.deleted()[..t];
        let visible: Vec<u32> = (0..s_g as u32).filter(|id| !before.contains(id)).collect();
        // A position past the visible set means the delta's claims
        // don't describe the cached state — recompute.
        prev.iter()
            .map(|&p| visible.get(p as usize).copied())
            .collect::<Option<Vec<u32>>>()?
    };

    // A vanished result member breaks the survivors-stay-maximal
    // argument: bail to a full recompute.
    if old_ids.iter().any(|id| since.contains(id)) {
        return None;
    }

    // Map the surviving result onto current positions, and collect
    // the candidate rows (appended since the base) that must be
    // classified against it.
    let window: Vec<usize>;
    let candidates: Vec<usize>;
    match r.row_ids() {
        None => {
            // Dense: positions are storage ids, and a dense relation
            // cannot carry tombstones (flattening clears the delta).
            if t != 0 || !since.is_empty() {
                return None;
            }
            window = old_ids.iter().map(|&id| id as usize).collect();
            candidates = (s_g..r.len()).collect();
        }
        Some(ids) => {
            // Delete-chain view: ids are ascending storage ids (the
            // dense prefix minus tombstones), so binary search maps
            // each survivor; an unmapped survivor means the claims
            // are broken — recompute.
            window = old_ids
                .iter()
                .map(|id| ids.binary_search(id).ok())
                .collect::<Option<_>>()?;
            candidates = (ids.iter().enumerate())
                .filter(|&(_, &id)| id as usize >= s_g)
                .map(|(p, _)| p)
                .collect();
        }
    }

    // BNL-insert every candidate against the maintained window. The
    // compiled term's `better(x, y)` ("y is better than x") is the
    // only dominance test used — the same comparator a recompute
    // would run, so equal tuples, Prior chains and EXPLICIT orders
    // all classify identically.
    let mut window = bnl_window(|x, y| c.better(r.row(x), r.row(y)), window, candidates);
    window.sort_unstable();
    Some(window)
}
