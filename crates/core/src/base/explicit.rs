//! EXPLICIT preference (Def. 6e): a hand-crafted finite better-than graph.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pref_relation::Value;

use super::{BasePreference, Range};
use crate::error::CoreError;

/// The transitive closure of an EXPLICIT graph, materialized as a dense
/// reachability bitset over vertex *ids* — `n` vertices plus one virtual
/// "outside the graph" id (`n` itself). Cheap to clone (the bit matrix is
/// shared), so evaluators can lift it out of the [`Explicit`] term and
/// run dominance tests on pre-resolved ids with two loads and a mask
/// instead of `Value` clones and hash-set probes.
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    /// Words per row of the bit matrix.
    stride: usize,
    /// Row-major bits: vertex `i` row holds a set bit at column `j` iff
    /// `i <E j` (j is better than i).
    bits: Arc<[u64]>,
    /// Fragment orders do not rank outside values below the graph.
    fragment: bool,
}

impl Reachability {
    /// Number of graph vertices; `vertex_count()` doubles as the id of
    /// the virtual outside-the-graph vertex.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The id callers must use for values that are not graph vertices.
    pub fn outside_id(&self) -> usize {
        self.n
    }

    #[inline]
    fn bit(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.stride + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Strict better-than on vertex ids (Def. 6e): `b` beats `a` iff the
    /// closure has the edge, or `a` is outside a completed graph and `b`
    /// is inside.
    #[inline]
    pub fn better_ids(&self, a: usize, b: usize) -> bool {
        if b >= self.n {
            false
        } else if a >= self.n {
            !self.fragment
        } else {
            self.bit(a, b)
        }
    }
}

/// `EXPLICIT(A, EXPLICIT-graph{(val1, val2), …})`.
///
/// Each pair `(a, b)` states `a <E b` ("b is better than a"); the induced
/// order is the transitive closure of the pairs. Every value occurring in
/// the graph is better than every value outside it:
///
/// ```text
/// x <P y  iff  x <E y  ∨  (x ∉ range(<E) ∧ y ∈ range(<E))
/// ```
///
/// The graph must be acyclic. Isolated vertices may be added with
/// [`Explicit::with_vertices`] — needed to express, e.g., POS/POS as an
/// EXPLICIT preference when one layer would otherwise have no edges
/// (the sub-constructor hierarchy of §3.4).
#[derive(Debug, Clone)]
pub struct Explicit {
    /// Pairs `(worse, better)` as given (pre-closure), for display.
    edges: Vec<(Value, Value)>,
    /// All vertices (edge endpoints plus explicitly added ones).
    vertices: Vec<Value>,
    /// Vertex → dense id, the key into the reachability bitset.
    index: HashMap<Value, usize>,
    /// Transitive closure as a reachability bitset over vertex ids.
    reach: Reachability,
    /// Longest-path level (1 = maximal) of each vertex within the graph.
    levels: HashMap<Value, u32>,
    /// Fragment mode: just `E = (V, <E)` without the
    /// "outside values are worse" completion of Def. 6e.
    fragment: bool,
}

impl Explicit {
    /// Build from better-than pairs `(worse, better)`. Fails on cycles.
    pub fn new<I, V, W>(edges: I) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = (V, W)>,
        V: Into<Value>,
        W: Into<Value>,
    {
        Explicit::with_vertices(edges, Vec::<Value>::new())
    }

    /// Build the *bare* explicit order `E = (V, <E)` of Def. 6e — the
    /// transitive closure of the pairs with NO ranking of outside values.
    /// Its range is exactly `V`, which makes fragments the building block
    /// for provably disjoint unions (Def. 11b).
    pub fn fragment<I, V, W>(edges: I) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = (V, W)>,
        V: Into<Value>,
        W: Into<Value>,
    {
        let mut e = Explicit::with_vertices(edges, Vec::<Value>::new())?;
        e.fragment = true;
        e.reach.fragment = true;
        Ok(e)
    }

    /// Build from pairs plus extra isolated vertices.
    pub fn with_vertices<I, V, W, J, U>(edges: I, extra: J) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = (V, W)>,
        V: Into<Value>,
        W: Into<Value>,
        J: IntoIterator<Item = U>,
        U: Into<Value>,
    {
        let edges: Vec<(Value, Value)> = edges
            .into_iter()
            .map(|(a, b)| (a.into(), b.into()))
            .collect();

        // Collect vertices, preserving first-seen order for stable display.
        let mut vertices: Vec<Value> = Vec::new();
        let mut seen: HashSet<Value> = HashSet::new();
        let add = |v: &Value, vertices: &mut Vec<Value>, seen: &mut HashSet<Value>| {
            if seen.insert(v.clone()) {
                vertices.push(v.clone());
            }
        };
        for (a, b) in &edges {
            add(a, &mut vertices, &mut seen);
            add(b, &mut vertices, &mut seen);
        }
        for v in extra {
            let v = v.into();
            add(&v, &mut vertices, &mut seen);
        }

        let n = vertices.len();
        let idx: HashMap<&Value, usize> =
            vertices.iter().enumerate().map(|(i, v)| (v, i)).collect();

        // Adjacency of the raw pairs; reachability by Floyd–Warshall
        // (graphs are "handcrafted", so n is small by construction).
        let mut reach = vec![false; n * n];
        for (a, b) in &edges {
            reach[idx[a] * n + idx[b]] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i * n + k] {
                    for j in 0..n {
                        if reach[k * n + j] {
                            reach[i * n + j] = true;
                        }
                    }
                }
            }
        }
        for (i, v) in vertices.iter().enumerate() {
            if reach[i * n + i] {
                return Err(CoreError::CyclicExplicit {
                    on_cycle: v.clone(),
                });
            }
        }

        // Pack the closure into a row-major bitset: dominance tests (and
        // the score-matrix EXPLICIT backend) become two loads and a mask.
        let stride = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * stride];
        for i in 0..n {
            for j in 0..n {
                if reach[i * n + j] {
                    bits[i * stride + j / 64] |= 1u64 << (j % 64);
                }
            }
        }

        // Level of vertex i = 1 + max(level of all j better than i), where
        // "better than i" = reach[i][j]. Maximal vertices are level 1.
        let mut levels = HashMap::with_capacity(n);
        // Iterate to a fixpoint; n passes suffice since levels only grow
        // along edges of a DAG.
        let mut lv = vec![1u32; n];
        for _ in 0..n {
            let mut changed = false;
            for i in 0..n {
                let mut best = 1;
                for j in 0..n {
                    if reach[i * n + j] {
                        best = best.max(lv[j] + 1);
                    }
                }
                if lv[i] != best {
                    lv[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (i, v) in vertices.iter().enumerate() {
            levels.insert(v.clone(), lv[i]);
        }

        let index: HashMap<Value, usize> = vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();

        Ok(Explicit {
            edges,
            vertices,
            index,
            reach: Reachability {
                n,
                stride,
                bits: bits.into(),
                fragment: false,
            },
            levels,
            fragment: false,
        })
    }

    /// The vertices of the graph (= `range(<E)` plus isolated vertices).
    pub fn vertices(&self) -> &[Value] {
        &self.vertices
    }

    /// Number of graph vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The dense id of `v` in the reachability bitset, `None` for values
    /// outside the graph (use [`Reachability::outside_id`] for those).
    pub fn vertex_index(&self, v: &Value) -> Option<usize> {
        self.index.get(v).copied()
    }

    /// A shared handle to the materialized transitive closure — the
    /// input of the score-matrix EXPLICIT backend, which resolves every
    /// row's value to a vertex id once and then runs all O(n²) dominance
    /// tests on the bitset.
    pub fn reachability(&self) -> Reachability {
        self.reach.clone()
    }

    /// The raw edges `(worse, better)`.
    pub fn edges(&self) -> &[(Value, Value)] {
        &self.edges
    }

    /// The deepest level of the graph itself.
    fn max_graph_level(&self) -> u32 {
        self.levels.values().copied().max().unwrap_or(0)
    }
}

impl BasePreference for Explicit {
    fn name(&self) -> &'static str {
        if self.fragment {
            "EXPLICIT-FRAGMENT"
        } else {
            "EXPLICIT"
        }
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        let id = |v: &Value| self.vertex_index(v).unwrap_or(self.reach.outside_id());
        self.reach.better_ids(id(x), id(y))
    }

    fn as_explicit(&self) -> Option<&Explicit> {
        Some(self)
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(match self.levels.get(v) {
            Some(&l) => l,
            // Completed EXPLICIT: outside values sit below every graph
            // value. Fragment: outside values are unranked, hence maximal.
            None if !self.fragment => self.max_graph_level() + 1,
            None => 1,
        })
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(self.level(v) == Some(1))
    }

    fn range(&self) -> Range {
        if self.fragment || self.vertices.is_empty() {
            Range::Known(self.vertices.iter().cloned().collect())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        let body: Vec<String> = self
            .edges
            .iter()
            .map(|(a, b)| format!("({a}, {b})"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    /// Example 1: EXPLICIT(Color, {(green, yellow), (green, red), (yellow, white)})
    /// over dom(Color) = {white, red, yellow, green, brown, black}.
    fn example1() -> Explicit {
        Explicit::new([("green", "yellow"), ("green", "red"), ("yellow", "white")]).unwrap()
    }

    #[test]
    fn example1_levels() {
        let p = example1();
        // "white and red are maximal at level 1, yellow is at level 2,
        //  green is at level 3 and the other values brown and black are
        //  minimal at level 4."
        assert_eq!(p.level(&v("white")), Some(1));
        assert_eq!(p.level(&v("red")), Some(1));
        assert_eq!(p.level(&v("yellow")), Some(2));
        assert_eq!(p.level(&v("green")), Some(3));
        assert_eq!(p.level(&v("brown")), Some(4));
        assert_eq!(p.level(&v("black")), Some(4));
    }

    #[test]
    fn transitive_closure() {
        let p = example1();
        // green < yellow and yellow < white imply green < white.
        assert!(p.better(&v("green"), &v("white")));
        // red and white are unranked (no path).
        assert!(!p.better(&v("red"), &v("white")));
        assert!(!p.better(&v("white"), &v("red")));
    }

    #[test]
    fn outside_values_are_worse_than_graph_values() {
        let p = example1();
        assert!(p.better(&v("brown"), &v("green")));
        assert!(p.better(&v("black"), &v("white")));
        assert!(!p.better(&v("green"), &v("brown")));
        // two outside values are unranked
        assert!(!p.better(&v("brown"), &v("black")));
    }

    #[test]
    fn rejects_cycles() {
        let err = Explicit::new([("a", "b"), ("b", "c"), ("c", "a")]).unwrap_err();
        assert!(matches!(err, CoreError::CyclicExplicit { .. }));
        // self-loop is a 1-cycle
        assert!(Explicit::new([("a", "a")]).is_err());
    }

    #[test]
    fn is_strict_partial_order() {
        let p = example1();
        let dom: Vec<Value> = ["white", "red", "yellow", "green", "brown", "black"]
            .iter()
            .map(|s| v(s))
            .collect();
        check_spo_values(&p, &dom).unwrap();
    }

    #[test]
    fn isolated_vertices_rank_above_outsiders() {
        let p = Explicit::with_vertices([("b", "a")], ["solo"]).unwrap();
        assert!(p.better(&v("outside"), &v("solo")));
        assert!(!p.better(&v("solo"), &v("a")));
        assert_eq!(p.level(&v("solo")), Some(1));
        assert_eq!(p.level(&v("outside")), Some(3));
    }

    #[test]
    fn reachability_bitset_agrees_with_value_level_better() {
        for p in [
            example1(),
            Explicit::fragment([("a", "b"), ("b", "c")]).unwrap(),
            Explicit::with_vertices([("b", "a")], ["solo"]).unwrap(),
        ] {
            let reach = p.reachability();
            assert_eq!(reach.vertex_count(), p.vertex_count());
            let mut dom: Vec<Value> = p.vertices().to_vec();
            dom.push(v("outside-1"));
            dom.push(v("outside-2"));
            let id = |x: &Value| p.vertex_index(x).unwrap_or(reach.outside_id());
            for x in &dom {
                for y in &dom {
                    assert_eq!(
                        reach.better_ids(id(x), id(y)),
                        p.better(x, y),
                        "bitset diverged on ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph_is_antichain() {
        let p = Explicit::new(Vec::<(&str, &str)>::new()).unwrap();
        assert!(!p.better(&v("a"), &v("b")));
        assert_eq!(p.level(&v("a")), Some(1));
    }
}
