//! Seeded sampling utilities shared by the dataset generators.

use rand::Rng;
use rand_pcg::Pcg64Mcg;
use std::cell::RefCell;

/// Creates the crate's canonical deterministic RNG from a seed.
pub fn rng(seed: u64) -> Pcg64Mcg {
    // Mix the seed so that nearby seeds diverge immediately.
    Pcg64Mcg::new(((seed as u128) << 64 | (seed as u128 ^ 0x9e3779b97f4a7c15)) | 1)
}

/// Samples an index in `0..n` with Zipf-like weights `1/(i+1)^s`.
///
/// Used to skew categorical attributes (genres, topics) the way real
/// catalogs are skewed — a handful of dominant categories and a long tail
/// — and to pick directors, actors, orgs and authors, where `n` is the
/// population size. The weights' prefix sums are memoized per `(n, s)`
/// and binary-searched, so a draw costs `O(log n)` after the first; every
/// draw equals the sequential-subtraction sampler's (see [`pick`]).
pub fn zipf<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    ZIPF_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        let key = (n, s.to_bits());
        let at = match tables.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                tables.truncate(ZIPF_TABLES_MAX - 1);
                tables.insert(0, (key, zipf_prefix(n, s)));
                0
            }
        };
        let prefix = &tables[at].1;
        let x = rng.gen_range(0.0..prefix[n - 1]);
        pick(prefix, x, s)
    })
}

/// Distinct `(n, s)` prefix tables kept per thread (a generator uses at
/// most six; the oldest is dropped beyond this).
const ZIPF_TABLES_MAX: usize = 16;

/// [`zipf_prefix`] tables keyed by `(n, s.to_bits())`, newest first.
type ZipfTables = Vec<((usize, u64), Vec<f64>)>;

thread_local! {
    static ZIPF_TABLES: RefCell<ZipfTables> = const { RefCell::new(Vec::new()) };
}

fn zipf_weight(i: usize, s: f64) -> f64 {
    1.0 / ((i + 1) as f64).powf(s)
}

/// `prefix[k] = w_0 + … + w_k`, accumulated left to right; the last entry
/// is bit-identical to the sequential sampler's total.
fn zipf_prefix(n: usize, s: f64) -> Vec<f64> {
    let mut sum = 0.0;
    (0..n)
        .map(|i| {
            sum += zipf_weight(i, s);
            sum
        })
        .collect()
}

/// The index the sequential sampler returns for the uniform draw `x`.
///
/// The sequential sampler returns the first `i` with `x_i < w_i`, where
/// `x_0 = x` and `x_{i+1} = x_i − w_i`; in exact arithmetic that is the
/// first `i` with `x < S_{i+1}`, the exact prefix sum. Both the computed
/// `x_i` and the computed `prefix[i]` carry at most `(n+1)·u·total`
/// accumulated rounding error (`u = 2⁻⁵³`; at most `n` additions or
/// subtractions of terms bounded by `total`). When `x` is more than
/// `margin = 4·(n+2)·u·total` from both computed boundaries of the bucket
/// the binary search found, every exact boundary is more than either
/// error away, so each of the sequential sampler's comparisons agrees
/// with the binary search's and they pick the same index. Within the
/// margin — probability about `8·(n+2)·u` per draw — the sequential loop
/// itself decides.
fn pick(prefix: &[f64], x: f64, s: f64) -> usize {
    let n = prefix.len();
    let margin = 2.0 * (n + 2) as f64 * f64::EPSILON * prefix[n - 1];
    let i = prefix.partition_point(|&p| p <= x);
    // Bucket 0's lower boundary is no comparison of the sequential loop.
    let lower = if i == 0 {
        f64::NEG_INFINITY
    } else {
        prefix[i - 1]
    };
    if i < n && prefix[i] - x > margin && x - lower > margin {
        return i;
    }
    pick_sequential(x, n, s)
}

/// The sequential-subtraction sampler for the draw `x`.
fn pick_sequential(mut x: f64, n: usize, s: f64) -> usize {
    for i in 0..n {
        let w = zipf_weight(i, s);
        if x < w {
            return i;
        }
        x -= w;
    }
    n - 1
}

/// O(1) approximation of [`zipf`] for large `n` (the streaming emitters
/// sample among millions of nodes per edge, where the exact per-call CDF
/// is unaffordable). Uses the continuous inverse-CDF of the bounded
/// power law `w(i) ∝ (i+1)^-s`: head-skewed like `zipf`, but the exact
/// per-index probabilities differ slightly.
pub fn zipf_approx<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    let u = rng.gen_range(0.0..1.0f64);
    let nf = n as f64;
    let x = if (s - 1.0).abs() < 1e-9 {
        // s = 1: CDF(x) = ln(1+x) / ln(1+n).
        (1.0 + nf).powf(u) - 1.0
    } else {
        let p = 1.0 - s;
        // CDF(x) = ((1+x)^p - 1) / ((1+n)^p - 1).
        (u * ((1.0 + nf).powf(p) - 1.0) + 1.0).powf(1.0 / p) - 1.0
    };
    (x as usize).min(n - 1)
}

/// Samples an integer in `[lo, hi]` with a log-uniform distribution
/// (org sizes, citation counts).
pub fn log_uniform<R: Rng>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo >= 1 && hi >= lo);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let x = rng.gen_range(llo..=lhi);
    (x.exp().round() as u64).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_towards_head() {
        let mut r = rng(1);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[zipf(&mut r, 5, 1.0)] += 1;
        }
        assert!(
            counts[0] > counts[4] * 2,
            "head should dominate tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0));
    }

    /// The sampler `zipf` replaced: an `O(n)` weight vector and a
    /// sequential subtraction walk on every draw.
    fn zipf_reference<R: Rng>(rng: &mut R, n: usize, s: f64) -> usize {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let x = rng.gen_range(0.0..total);
        reference_walk(&weights, x)
    }

    fn reference_walk(weights: &[f64], mut x: f64) -> usize {
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Draw for draw, and at the floating-point neighbours of every
        /// prefix sum (where rounding decides the bucket), the memoized
        /// sampler matches the reference.
        #[test]
        fn zipf_matches_reference(n in 1usize..1200, s in 0.3f64..1.8, seed in 0u64..1_000_000) {
            let (mut a, mut b) = (rng(seed), rng(seed));
            for _ in 0..200 {
                proptest::prop_assert_eq!(zipf(&mut a, n, s), zipf_reference(&mut b, n, s));
            }
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
            let prefix = zipf_prefix(n, s);
            for &p in &prefix {
                for bits in [p.to_bits() - 1, p.to_bits(), p.to_bits() + 1] {
                    let x = f64::from_bits(bits);
                    proptest::prop_assert_eq!(pick(&prefix, x, s), reference_walk(&weights, x));
                }
            }
        }
    }

    /// A bare prefix-sum search disagrees with the reference right at the
    /// boundaries, so the probes above do exercise the fallback.
    #[test]
    fn boundary_probes_need_the_fallback() {
        let (n, s) = (2000, 0.7);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let prefix = zipf_prefix(n, s);
        let mut bare_misses = 0;
        for &p in &prefix[..n - 1] {
            for bits in [p.to_bits() - 1, p.to_bits(), p.to_bits() + 1] {
                let x = f64::from_bits(bits);
                let want = reference_walk(&weights, x);
                assert_eq!(pick(&prefix, x, s), want, "x = {x}");
                bare_misses += usize::from(prefix.partition_point(|&q| q <= x) != want);
            }
        }
        assert!(bare_misses > 0, "probes never reached a rounding boundary");
    }

    /// The memoized table's total is the reference's total bit for bit,
    /// so `gen_range` sees the same range.
    #[test]
    fn zipf_prefix_total_is_the_reference_sum() {
        for (n, s) in [(1, 1.0), (11, 1.2), (4000, 0.7), (100_000, 0.6)] {
            let total: f64 = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).sum();
            assert_eq!(zipf_prefix(n, s)[n - 1].to_bits(), total.to_bits());
        }
    }

    #[test]
    fn zipf_approx_is_skewed_and_in_bounds() {
        let mut r = rng(3);
        for s in [0.6, 1.0, 1.4] {
            let mut head = 0usize;
            for _ in 0..4000 {
                let i = zipf_approx(&mut r, 1_000_000, s);
                assert!(i < 1_000_000);
                if i < 1000 {
                    head += 1;
                }
            }
            // The first 0.1% of indices must receive far more than 0.1%
            // of the mass.
            assert!(head > 200, "s={s}: head mass too small ({head}/4000)");
        }
        // Degenerate n=1 never panics.
        assert_eq!(zipf_approx(&mut r, 1, 1.0), 0);
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut r = rng(2);
        for _ in 0..1000 {
            let v = log_uniform(&mut r, 50, 5000);
            assert!((50..=5000).contains(&v));
        }
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: u64 = rng(7).gen();
        let b: u64 = rng(7).gen();
        let c: u64 = rng(8).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
