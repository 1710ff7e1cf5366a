//! Sampling primitives shared by topologies and generators.

use rand::{Rng, RngCore};

/// Draws an unordered pair of *distinct* indices uniformly from `0..n`.
///
/// Returns `None` if `n < 2`. The pair is returned with the smaller index
/// first so that callers can use it directly as a normalised undirected edge.
pub(crate) fn sample_distinct_pair(n: usize, rng: &mut dyn RngCore) -> Option<(usize, usize)> {
    if n < 2 {
        return None;
    }
    let first = rng.gen_range(0..n);
    let mut second = rng.gen_range(0..n - 1);
    if second >= first {
        second += 1;
    }
    Some(if first < second {
        (first, second)
    } else {
        (second, first)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn distinct_pair_is_distinct_and_ordered() {
        let mut r = rng();
        for _ in 0..500 {
            let (a, b) = sample_distinct_pair(7, &mut r).unwrap();
            assert!(a < b);
            assert!(b < 7);
        }
    }

    #[test]
    fn distinct_pair_requires_two_elements() {
        let mut r = rng();
        assert!(sample_distinct_pair(0, &mut r).is_none());
        assert!(sample_distinct_pair(1, &mut r).is_none());
        assert_eq!(sample_distinct_pair(2, &mut r), Some((0, 1)));
    }

    #[test]
    fn distinct_pair_covers_all_pairs() {
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            seen.insert(sample_distinct_pair(5, &mut r).unwrap());
        }
        // C(5,2) = 10 unordered pairs.
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn distinct_pair_is_roughly_uniform() {
        let mut r = rng();
        let n = 4; // 6 pairs
        let draws = 30_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..draws {
            *counts
                .entry(sample_distinct_pair(n, &mut r).unwrap())
                .or_insert(0usize) += 1;
        }
        let expected = draws as f64 / 6.0;
        for (&pair, &count) in &counts {
            assert!(
                (count as f64 - expected).abs() < expected * 0.1,
                "pair {pair:?} count {count} deviates from expected {expected}"
            );
        }
    }
}
