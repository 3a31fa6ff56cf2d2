//! Seeded request-stream sampling: a Zipf rank sampler, a shuffle and
//! stratified popularity ranks.

use si_corpus::rng::StdRng;

/// Samples ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^s` by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `n` ranks by systematic sampling, in shuffled order: the points
    /// `(j + u) / n` for one random `u` are pushed through the inverse
    /// CDF, so every rank occurs within one of its expected count
    /// `n * p(rank)` and only the rare tail ranks differ between calls.
    /// A stretch of the stream then costs what the distribution says,
    /// not what a lucky or unlucky draw of heavy queries does.
    pub fn systematic(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        let u: f64 = rng.gen();
        let mut ranks: Vec<usize> = (0..n)
            .map(|j| self.rank_at((j as f64 + u) / n as f64))
            .collect();
        shuffle(&mut ranks, rng);
        ranks
    }
}

/// Fisher–Yates shuffle of `items`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Popularity ranks whose cost and answer-size profiles do not depend
/// on which queries a shuffle happens to put at the head of a Zipf
/// ranking. Each rank in turn takes the item that brings the costs and
/// the sizes dealt so far closest to `cost_per_rank` and `size_per_rank`
/// per rank (squared relative distance to both lines), so the
/// cumulative cost and the cumulative size along the ranking are the
/// same two lines for every pool that can follow them. The seed decides
/// the pool; the ranking follows from it. Returns rank → item index.
pub fn dealt_ranks(
    costs: &[u64],
    sizes: &[u64],
    cost_per_rank: u64,
    size_per_rank: u64,
) -> Vec<u32> {
    assert_eq!(costs.len(), sizes.len(), "one cost and one size per item");
    let mut left: Vec<u32> = (0..costs.len() as u32).collect();
    let (mut cost_dealt, mut size_dealt) = (0u64, 0u64);
    let off = |value: u64, want: u64, per_rank: u64| {
        let d = value.abs_diff(want) as f64 / per_rank.max(1) as f64;
        d * d
    };
    (1..=costs.len() as u64)
        .map(|rank| {
            let want_cost = (cost_per_rank * rank).saturating_sub(cost_dealt);
            let want_size = (size_per_rank * rank).saturating_sub(size_dealt);
            let distance = |&i: &u32| {
                off(costs[i as usize], want_cost, cost_per_rank)
                    + off(sizes[i as usize], want_size, size_per_rank)
            };
            let pick = (0..left.len())
                .min_by(|&a, &b| distance(&left[a]).total_cmp(&distance(&left[b])))
                .expect("an item per rank");
            // `remove`, not `swap_remove`: ties go to the earlier item,
            // whatever was taken before.
            let item = left.remove(pick);
            cost_dealt += costs[item as usize];
            size_dealt += sizes[item as usize];
            item
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successive_passes_of_one_generator_differ_but_repeat_per_seed() {
        let zipf = Zipf::new(1000, 1.0);
        let passes = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                zipf.systematic(1920, &mut rng),
                zipf.systematic(1920, &mut rng),
            )
        };
        let (first, second) = passes(7);
        assert_eq!((first.clone(), second.clone()), passes(7));
        assert_ne!(first, second);
        assert_ne!(first, passes(8).0);
        assert!(first.iter().chain(&second).all(|&r| r < 1000));
    }

    #[test]
    fn systematic_stream_hits_expected_counts_and_is_seeded() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| zipf.systematic(1920, &mut StdRng::seed_from_u64(seed));
        let (a, b) = (draw(1), draw(2));
        assert_eq!(a, draw(1), "bit-identical for a seed");
        assert_ne!(a, b, "differs across seeds");
        let harmonic: f64 = (1..=1000).map(|r| 1.0 / r as f64).sum();
        for s in [&a, &b] {
            assert_eq!(s.len(), 1920);
            for rank in [0usize, 1, 2, 9, 49] {
                let expected = 1920.0 / ((rank + 1) as f64 * harmonic);
                let count = s.iter().filter(|&&r| r == rank).count() as f64;
                assert!(
                    (count - expected).abs() <= 1.0,
                    "rank {rank}: {count} vs {expected}"
                );
            }
        }
        // Not sorted: the order is shuffled.
        assert!(a.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn dealt_ranks_track_both_lines_whatever_the_pool() {
        // Two long-tailed "pools" that differ in every item.
        let pool = |salt: u64| -> (Vec<u64>, Vec<u64>) {
            let h = |i: u64, k: u64| (i ^ salt ^ k << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let costs = (0..200).map(|i| (h(i, 1) % 10 + 1).pow(3) * 10).collect();
            let sizes = (0..200)
                .map(|i| {
                    if h(i, 2) % 4 == 0 {
                        h(i, 3) % 900
                    } else {
                        h(i, 3) % 40
                    }
                })
                .collect();
            (costs, sizes)
        };
        for salt in [1, 2, 3] {
            let (costs, sizes) = pool(salt);
            let ranks = dealt_ranks(&costs, &sizes, 2_000, 60);
            assert_eq!(
                ranks,
                dealt_ranks(&costs, &sizes, 2_000, 60),
                "deterministic"
            );
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..200).collect::<Vec<u32>>(), "a permutation");
            // While the pool can follow them, both cumulative sums stay
            // within one large item of their lines.
            let (mut cost, mut size) = (0, 0);
            for (rank, &i) in ranks.iter().enumerate().take(80) {
                cost += costs[i as usize];
                size += sizes[i as usize];
                let rank = rank as u64 + 1;
                assert!(
                    cost.abs_diff(2_000 * rank) <= 10_000,
                    "rank {rank}: cost {cost}"
                );
                assert!(size.abs_diff(60 * rank) <= 900, "rank {rank}: size {size}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            shuffle(&mut v, &mut StdRng::seed_from_u64(seed));
            v
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
