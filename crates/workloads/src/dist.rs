//! Copy-size distributions.
//!
//! [`ProtobufSizes`] is an empirical distribution matched to the CDF the
//! paper reports for Fleetbench's Protobuf workload (Fig. 4): copies from
//! 2 B to 4 KB, with the single largest mass (~56%) at 1 KB — which is why
//! the paper interposes copies ≥ 1 KB and why zIO, needing page-sized
//! copies, elides nothing there.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An empirical discrete distribution over copy sizes.
#[derive(Debug, Clone)]
pub struct SizeDist {
    // (size, cumulative per-mille)
    cdf: Vec<(u64, u32)>,
}

impl SizeDist {
    /// Build from (size, probability per-mille) pairs.
    ///
    /// # Panics
    /// Panics if the weights do not sum to 1000.
    pub fn from_pmf(pmf: &[(u64, u32)]) -> SizeDist {
        let mut acc = 0;
        let cdf = pmf
            .iter()
            .map(|&(s, w)| {
                acc += w;
                (s, acc)
            })
            .collect::<Vec<_>>();
        assert_eq!(acc, 1000, "probabilities must sum to 1000 per-mille");
        SizeDist { cdf }
    }

    /// Sample a size.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let x: u32 = rng.random_range(0..1000);
        for &(s, c) in &self.cdf {
            if x < c {
                return s;
            }
        }
        self.cdf.last().expect("nonempty").0
    }

    /// The cumulative probability of sizes ≤ `size` (for checks).
    pub fn cdf_at(&self, size: u64) -> f64 {
        let mut last = 0;
        for &(s, c) in &self.cdf {
            if s <= size {
                last = c;
            }
        }
        last as f64 / 1000.0
    }
}

/// The Fig. 4 Protobuf memcpy size distribution.
#[derive(Debug, Clone)]
pub struct ProtobufSizes(SizeDist);

impl Default for ProtobufSizes {
    fn default() -> Self {
        // Matched to the Fig. 4 CDF: a thin tail of tiny copies, modest
        // mass through 512 B, the dominant step (~56%) at 1 KB, and the
        // remainder at 2–4 KB. All sub-page, as the paper observes.
        ProtobufSizes(SizeDist::from_pmf(&[
            (2, 20),
            (4, 20),
            (8, 40),
            (16, 40),
            (32, 40),
            (64, 60),
            (128, 40),
            (256, 40),
            (512, 40),
            (1024, 560),
            (2048, 50),
            (4096, 50),
        ]))
    }
}

impl ProtobufSizes {
    /// Sample one copy size.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        self.0.sample(rng)
    }

    /// CDF query.
    pub fn cdf_at(&self, size: u64) -> f64 {
        self.0.cdf_at(size)
    }
}

/// A seeded RNG for deterministic workload generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protobuf_mass_at_1kb_matches_paper() {
        let d = ProtobufSizes::default();
        // "the majority of copies (~56%) copy a single kilobyte" and the
        // CDF reaches 100% at 4 KB.
        assert!((d.cdf_at(1024) - d.cdf_at(512) - 0.56).abs() < 1e-9);
        assert!((d.cdf_at(4096) - 1.0).abs() < 1e-9);
        assert!(d.cdf_at(64) < 0.3);
    }

    #[test]
    fn sampling_is_deterministic_and_in_support() {
        let d = ProtobufSizes::default();
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..1000 {
            let x = d.sample(&mut a);
            assert_eq!(x, d.sample(&mut b));
            assert!((2..=4096).contains(&x) && x.is_power_of_two());
        }
    }

    #[test]
    fn empirical_frequency_approaches_pmf() {
        let d = ProtobufSizes::default();
        let mut r = rng(7);
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut r) == 1024).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.56).abs() < 0.02, "got {frac}");
    }

    #[test]
    #[should_panic(expected = "sum to 1000")]
    fn bad_pmf_panics() {
        let _ = SizeDist::from_pmf(&[(1, 500)]);
    }
}
