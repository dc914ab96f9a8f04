//! Token sampling.

use rkvc_tensor::{argmax, seeded_rng, softmax_slice, SeededRng};

use crate::vocab::TokenId;

/// Temperature sampler with a deterministic RNG.
///
/// `temperature == 0.0` means greedy (argmax) decoding; otherwise tokens are
/// drawn from `softmax(logits / temperature)`. The paper fixes temperature
/// 1.0 for its compression/length experiments and sweeps {0.9, 1.1} as the
/// temperature-only control (Table 5).
#[derive(Debug, Clone)]
pub struct Sampler {
    temperature: f32,
    rng: SeededRng,
}

impl Sampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is negative or not finite.
    pub fn new(temperature: f32, seed: u64) -> Self {
        assert!(
            temperature.is_finite() && temperature >= 0.0,
            "temperature must be finite and >= 0"
        );
        Sampler {
            temperature,
            rng: seeded_rng(seed),
        }
    }

    /// Greedy sampler (temperature 0).
    pub fn greedy() -> Self {
        Sampler::new(0.0, 0)
    }

    /// The configured temperature.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Samples a token id from the logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn sample(&mut self, logits: &[f32]) -> TokenId {
        assert!(!logits.is_empty(), "logits must not be empty");
        if self.temperature == 0.0 {
            return argmax(logits);
        }
        let mut probs: Vec<f32> = logits.iter().map(|l| l / self.temperature).collect();
        softmax_slice(&mut probs);
        let u: f32 = self.rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1 // Floating-point slack lands on the last token.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_takes_argmax() {
        let mut s = Sampler::greedy();
        assert_eq!(s.sample(&[0.1, 5.0, 0.3]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let logits = vec![1.0, 1.1, 0.9, 1.05];
        let a: Vec<TokenId> = {
            let mut s = Sampler::new(1.0, 7);
            (0..20).map(|_| s.sample(&logits)).collect()
        };
        let b: Vec<TokenId> = {
            let mut s = Sampler::new(1.0, 7);
            (0..20).map(|_| s.sample(&logits)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn strong_logit_dominates_at_low_temperature() {
        let mut s = Sampler::new(0.2, 3);
        let logits = vec![0.0, 10.0, 0.0];
        for _ in 0..50 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn high_temperature_spreads_mass() {
        let mut s = Sampler::new(50.0, 11);
        let logits = vec![0.0, 3.0, 0.0, 0.0];
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            seen[s.sample(&logits)] += 1;
        }
        // At temperature 50 the distribution is nearly uniform.
        assert!(seen.iter().all(|&c| c > 40), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn negative_temperature_rejected() {
        Sampler::new(-1.0, 0);
    }
}
