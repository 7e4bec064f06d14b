//! Synthetic multi-dimensional tables in the three correlation classes of
//! the skyline literature (\[BKS01\]): independent, correlated and
//! anti-correlated dimensions.
//!
//! Correlated data has tiny Pareto-optimal sets (one point tends to win
//! everywhere); anti-correlated data has huge ones (every gain on one
//! dimension costs another) — the knob behind the X1/X3 experiments.

use pref_relation::{DataType, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Correlation classes of \[BKS01\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Dimensions drawn independently, uniform in [0, 1).
    Independent,
    /// Dimensions clustered around a common per-row level.
    Correlated,
    /// Dimensions trading off against each other around a constant sum.
    Anticorrelated,
}

impl Distribution {
    /// All three classes, for sweeps.
    pub fn all() -> [Distribution; 3] {
        [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
        ]
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Distribution::Independent => "independent",
            Distribution::Correlated => "correlated",
            Distribution::Anticorrelated => "anti-correlated",
        }
    }
}

/// Standard normal via Box–Muller (avoids a distribution-crate
/// dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generate an `n × d` table of Float columns `d0 … d{d-1}` in [0, 1).
pub fn table(n: usize, d: usize, dist: Distribution, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new((0..d).map(|i| (format!("d{i}"), DataType::Float)))
        .expect("generated column names are unique");
    let mut r = Relation::empty(schema);
    for _ in 0..n {
        let row = vector(&mut rng, d, dist);
        r.push_values(row.into_iter().map(Value::from).collect())
            .expect("generated rows match schema");
    }
    r
}

fn vector(rng: &mut StdRng, d: usize, dist: Distribution) -> Vec<f64> {
    match dist {
        Distribution::Independent => (0..d).map(|_| rng.random_range(0.0..1.0)).collect(),
        Distribution::Correlated => {
            // A per-row quality level with small per-dimension jitter.
            let level: f64 = rng.random_range(0.0..1.0);
            (0..d)
                .map(|_| (level + gaussian(rng) * 0.05).clamp(0.0, 1.0))
                .collect()
        }
        Distribution::Anticorrelated => {
            // Rescale a uniform vector to a common per-row sum so that a
            // high coordinate forces low ones elsewhere.
            let target = ((0.5 + gaussian(rng) * 0.05) * d as f64).max(1e-9);
            let raw: Vec<f64> = (0..d).map(|_| rng.random_range(0.01..1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter()
                .map(|x| (x * target / sum).clamp(0.0, 1.0))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_core::prelude::*;
    use pref_core::term::Pref;
    use pref_query::bmo::sigma_naive_generic as sigma;

    fn maximize_all(d: usize) -> Pref {
        Pref::pareto_all((0..d).map(|i| highest(format!("d{i}").as_str())).collect()).unwrap()
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = table(50, 3, Distribution::Independent, 42);
        let b = table(50, 3, Distribution::Independent, 42);
        assert_eq!(a.to_owned_rows(), b.to_owned_rows());
        let c = table(50, 3, Distribution::Independent, 43);
        assert_ne!(a.to_owned_rows(), c.to_owned_rows());
    }

    #[test]
    fn values_in_unit_interval() {
        for dist in Distribution::all() {
            let r = table(200, 4, dist, 7);
            for t in r.iter() {
                for i in 0..4 {
                    let x = t[i].as_f64().unwrap();
                    assert!((0.0..=1.0).contains(&x), "{dist:?} produced {x}");
                }
            }
        }
    }

    #[test]
    fn skyline_sizes_order_by_correlation() {
        // The defining property: |sky(corr)| ≤ |sky(indep)| ≤ |sky(anti)|.
        let n = 600;
        let d = 3;
        let p = maximize_all(d);
        let size = |dist| {
            let r = table(n, d, dist, 11);
            sigma(&p, &r).unwrap().len()
        };
        let corr = size(Distribution::Correlated);
        let ind = size(Distribution::Independent);
        let anti = size(Distribution::Anticorrelated);
        assert!(corr <= ind, "correlated {corr} vs independent {ind}");
        assert!(ind <= anti, "independent {ind} vs anti-correlated {anti}");
        assert!(anti >= 10, "anti-correlated skyline suspiciously small");
    }

    #[test]
    fn dimension_count_matches() {
        let r = table(10, 6, Distribution::Correlated, 1);
        assert_eq!(r.schema().arity(), 6);
        assert_eq!(r.len(), 10);
    }
}
