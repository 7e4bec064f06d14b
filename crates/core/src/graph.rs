//! Better-than graphs (Def. 2): Hasse diagrams of preferences restricted
//! to finite sets, with the paper's level and quality notions.
//!
//! "Since preferences reflect important aspects of the real world a good
//! visual representation is essential" — this module regenerates every
//! graph figure in the paper (Examples 1–4, 7) and exports DOT for real
//! visualisation.

use std::fmt::Write as _;

use pref_relation::{Relation, Value};

use crate::base::BasePreference;
use crate::eval::CompiledPref;
use crate::spo::{check_spo, SpoViolation};

/// The better-than graph of a preference restricted to `n` items.
#[derive(Debug, Clone)]
pub struct BetterGraph {
    n: usize,
    /// Full strict order: `rel[x*n+y]` iff `x <P y`.
    rel: Vec<bool>,
    /// Hasse cover edges `(worse, better)`.
    hasse: Vec<(usize, usize)>,
    /// `levels[x]` = 1 for maximal items, else 1 + length of the longest
    /// chain above `x` (Def. 2).
    levels: Vec<u32>,
}

impl BetterGraph {
    /// Build from an arbitrary better-than function over item indices;
    /// validates the strict-partial-order axioms first.
    pub fn from_fn(n: usize, better: impl Fn(usize, usize) -> bool) -> Result<Self, SpoViolation> {
        check_spo(n, &better)?;
        let mut rel = vec![false; n * n];
        for x in 0..n {
            for y in 0..n {
                rel[x * n + y] = better(x, y);
            }
        }

        // Hasse reduction: keep x<y with no z strictly between.
        let mut hasse = Vec::new();
        for x in 0..n {
            for y in 0..n {
                if !rel[x * n + y] {
                    continue;
                }
                let covered = (0..n).any(|z| rel[x * n + z] && rel[z * n + y]);
                if !covered {
                    hasse.push((x, y));
                }
            }
        }

        // Levels: fixpoint of level(x) = 1 + max(level(y) | x < y).
        let mut levels = vec![1u32; n];
        loop {
            let mut changed = false;
            for x in 0..n {
                let mut best = 1;
                for y in 0..n {
                    if rel[x * n + y] {
                        best = best.max(levels[y] + 1);
                    }
                }
                if levels[x] != best {
                    levels[x] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Ok(BetterGraph {
            n,
            rel,
            hasse,
            levels,
        })
    }

    /// Graph of a compiled preference over a relation's tuples.
    pub fn from_relation(pref: &CompiledPref, rel: &Relation) -> Result<Self, SpoViolation> {
        BetterGraph::from_fn(rel.len(), |x, y| pref.better(rel.row(x), rel.row(y)))
    }

    /// Graph of a base preference over a sample of values.
    pub fn from_values(pref: &dyn BasePreference, dom: &[Value]) -> Result<Self, SpoViolation> {
        BetterGraph::from_fn(dom.len(), |x, y| pref.better(&dom[x], &dom[y]))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the graph over an empty item set?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Full-order query: `x <P y`.
    pub fn better(&self, x: usize, y: usize) -> bool {
        self.rel[x * self.n + y]
    }

    /// The Hasse cover edges `(worse, better)`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.hasse
    }

    /// Level of item `x` (1 = maximal; Def. 2).
    pub fn level(&self, x: usize) -> u32 {
        self.levels[x]
    }

    /// Maximal items — `max(P)` restricted to the item set.
    pub fn maximal(&self) -> Vec<usize> {
        (0..self.n).filter(|&x| self.levels[x] == 1).collect()
    }

    /// Minimal items (no successor: nothing is worse).
    pub fn minimal(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&y| (0..self.n).all(|x| !self.rel[x * self.n + y]))
            .collect()
    }

    /// Items grouped by level: `groups()[0]` is level 1, etc.
    pub fn level_groups(&self) -> Vec<Vec<usize>> {
        let depth = self.levels.iter().copied().max().unwrap_or(0) as usize;
        let mut groups = vec![Vec::new(); depth];
        for x in 0..self.n {
            groups[self.levels[x] as usize - 1].push(x);
        }
        groups
    }

    /// All unranked pairs `x ≠ y` with neither `x < y` nor `y < x` — the
    /// paper's "natural reservoir to negotiate compromises".
    pub fn unranked_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for x in 0..self.n {
            for y in (x + 1)..self.n {
                if !self.rel[x * self.n + y] && !self.rel[y * self.n + x] {
                    out.push((x, y));
                }
            }
        }
        out
    }

    /// Is the restriction a chain (every pair ranked, Def. 3a)?
    pub fn is_chain(&self) -> bool {
        self.unranked_pairs().is_empty()
    }

    /// Graphviz DOT output with 'better' drawn above 'worse', like the
    /// paper's figures.
    pub fn to_dot(&self, labels: &[String]) -> String {
        let mut s = String::from("digraph better_than {\n  rankdir=BT;\n");
        for x in 0..self.n {
            let label = labels.get(x).cloned().unwrap_or_else(|| x.to_string());
            let _ = writeln!(s, "  n{x} [label=\"{label}\"];");
        }
        for &(worse, better) in &self.hasse {
            let _ = writeln!(s, "  n{worse} -> n{better};");
        }
        s.push_str("}\n");
        s
    }

    /// Plain-text rendering grouped by level, matching the layout of the
    /// paper's figures.
    pub fn render(&self, labels: &[String]) -> String {
        let mut s = String::new();
        for (i, group) in self.level_groups().iter().enumerate() {
            let names: Vec<String> = group
                .iter()
                .map(|&x| labels.get(x).cloned().unwrap_or_else(|| x.to_string()))
                .collect();
            let _ = writeln!(s, "Level {}: {}", i + 1, names.join("  "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Explicit;
    use pref_relation::rel;

    /// Example 1's EXPLICIT color preference over its six-color domain.
    fn example1() -> (Explicit, Vec<Value>) {
        let p =
            Explicit::new([("green", "yellow"), ("green", "red"), ("yellow", "white")]).unwrap();
        let dom = ["white", "red", "yellow", "green", "brown", "black"]
            .iter()
            .map(|s| Value::from(*s))
            .collect();
        (p, dom)
    }

    #[test]
    fn example1_graph_levels() {
        let (p, dom) = example1();
        let g = BetterGraph::from_values(&p, &dom).unwrap();
        // white(0), red(1) at level 1; yellow(2) level 2; green(3) level 3;
        // brown(4), black(5) level 4.
        assert_eq!(g.level(0), 1);
        assert_eq!(g.level(1), 1);
        assert_eq!(g.level(2), 2);
        assert_eq!(g.level(3), 3);
        assert_eq!(g.level(4), 4);
        assert_eq!(g.level(5), 4);
        assert_eq!(g.maximal(), vec![0, 1]);
        assert_eq!(g.minimal(), vec![4, 5]);
        assert_eq!(
            g.level_groups(),
            vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]
        );
    }

    #[test]
    fn example1_hasse_has_no_transitive_edges() {
        let (p, dom) = example1();
        let g = BetterGraph::from_values(&p, &dom).unwrap();
        // green < white holds in the order…
        assert!(g.better(3, 0));
        // …but is not a cover edge (goes through yellow).
        assert!(!g.edges().contains(&(3, 0)));
        assert!(g.edges().contains(&(3, 2))); // green -> yellow
        assert!(g.edges().contains(&(2, 0))); // yellow -> white
    }

    #[test]
    fn chain_detection() {
        let g = BetterGraph::from_fn(4, |x, y| x < y).unwrap();
        assert!(g.is_chain());
        assert_eq!(g.level_groups(), vec![vec![3], vec![2], vec![1], vec![0]]);
        let g = BetterGraph::from_fn(3, |_, _| false).unwrap();
        assert!(!g.is_chain());
        assert_eq!(g.unranked_pairs().len(), 3);
        assert_eq!(g.maximal(), vec![0, 1, 2]);
    }

    #[test]
    fn rejects_non_spo() {
        assert!(BetterGraph::from_fn(2, |_, _| true).is_err());
    }

    #[test]
    fn from_relation_example2() {
        use crate::term::{around, highest, lowest};
        let r = rel! {
            ("A1": Int, "A2": Int, "A3": Int);
            (-5, 3, 4), (-5, 4, 4), (5, 1, 8), (5, 6, 6),
            (-6, 0, 6), (-6, 0, 4), (6, 2, 7),
        };
        let p = around("A1", 0).pareto(lowest("A2")).pareto(highest("A3"));
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let g = BetterGraph::from_relation(&c, &r).unwrap();
        // Paper figure: Level 1 = {val1, val3, val5}, Level 2 = the rest.
        assert_eq!(g.level_groups(), vec![vec![0, 2, 4], vec![1, 3, 5, 6]]);
    }

    #[test]
    fn dot_and_render_output() {
        let (p, dom) = example1();
        let g = BetterGraph::from_values(&p, &dom).unwrap();
        let labels: Vec<String> = dom.iter().map(|v| v.to_string()).collect();
        let dot = g.to_dot(&labels);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n3 -> n2")); // green -> yellow
        let txt = g.render(&labels);
        assert!(txt.starts_with("Level 1: 'white'  'red'"));
        assert!(txt.contains("Level 4: 'brown'  'black'"));
    }

    #[test]
    fn empty_graph() {
        let g = BetterGraph::from_fn(0, |_, _| false).unwrap();
        assert!(g.is_empty());
        assert!(g.maximal().is_empty());
        assert!(g.level_groups().is_empty());
    }
}
