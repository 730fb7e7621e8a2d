//! Deterministic random tensor construction and weight initializers.

use rand::{RngCore, SeedableRng};

use crate::tensor::Tensor;

/// Keystream words per refill: eight ChaCha8 blocks, one call to
/// [`hfta_kernels::chacha8_blocks`].
const WORDS: usize = 8 * 16;

/// A deterministic, seedable random number generator for tensors.
///
/// A ChaCha8 keystream (the vendored ChaCha8 generator's, word for word:
/// [`SeedableRng::seed_from_u64`]'s key derivation, a zero nonce, a 64-bit
/// block counter from zero), refilled eight blocks at a time, so every
/// experiment in the workspace is reproducible from a single `u64` seed.
/// HFTA's convergence-equivalence experiments (paper §3.3) rely on serial
/// and fused runs drawing the *same* initial weights; [`Rng::split`]
/// derives independent per-model streams. Tensor draws take their words
/// from the buffer in bulk; every draw maps words to values with the same
/// formulas one at a time or in bulk, so the stream does not depend on how
/// it is drawn.
///
/// # Example
///
/// ```
/// use hfta_tensor::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.standard_normal(), b.standard_normal());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    /// ChaCha input block: constants, 8 key words, the 64-bit block counter
    /// of the next refill (words 12-13), 2 nonce words.
    state: [u32; 16],
    /// Eight blocks of keystream.
    buf: [u32; WORDS],
    /// Next unread word of `buf`; `WORDS` means refill.
    at: usize,
}

/// `[0, 1)` from a word's top 24 bits `m`, as `rand`'s `gen::<f32>()`:
/// exactly `m · 2^-24`, built as `(1 + (m >> 1) · 2^-23) − 1` plus `2^-24`
/// when `m` is odd. Both steps are exact, so the bits are those of
/// `m as f32 * 2^-24`, without its integer-to-float conversion: that
/// instruction writes only the low lane of its register, so consecutive
/// draws inlined into one loop would chain through the lane's old value.
fn unit(w: u32) -> f32 {
    let halves = f32::from_bits(0x3f80_0000 | w >> 9) - 1.0;
    halves + f32::from_bits((w >> 8 & 1) * 0x3380_0000)
}

/// `[lo, hi)` from a word, as `rand`'s `gen_range(lo..hi)`: `lo + (hi −
/// lo)·u`, and `lo` where rounding lands on `hi`.
fn in_range(w: u32, lo: f32, hi: f32) -> f32 {
    let v = lo + (hi - lo) * unit(w);
    if v >= hi {
        lo
    } else {
        v
    }
}

/// One standard normal sample from two words (Box–Muller): `u1` in
/// `[EPSILON, 1)`, `u2` in `[0, 1)`, one `f32` `ln`, `sqrt` and `cos` each.
fn box_muller(w1: u32, w2: u32) -> f32 {
    let (u1, u2) = (in_range(w1, f32::EPSILON, 1.0), unit(w2));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl SeedableRng for Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&hfta_kernels::reference::CHACHA_CONSTANTS);
        for (w, key) in state[4..12].iter_mut().zip(seed.chunks_exact(4)) {
            *w = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
        }
        Rng {
            state,
            buf: [0; WORDS],
            at: WORDS,
        }
    }
}

impl RngCore for Rng {
    fn next_u32(&mut self) -> u32 {
        if self.at == WORDS {
            self.refill();
        }
        self.at += 1;
        self.buf[self.at - 1]
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32();
        u64::from(self.next_u32()) << 32 | u64::from(lo)
    }
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn seed_from(seed: u64) -> Self {
        Rng::seed_from_u64(seed)
    }

    fn refill(&mut self) {
        hfta_kernels::chacha8_blocks(&mut self.state, &mut self.buf);
        self.at = 0;
    }

    /// `out[i] = f(words)` for the next `K` words per element, in stream
    /// order: straight from the buffer, and word by word only for an element
    /// whose words straddle a refill.
    fn fill<const K: usize>(&mut self, out: &mut [f32], f: impl Fn([u32; K]) -> f32) {
        let mut done = 0;
        while done < out.len() {
            if self.at == WORDS {
                self.refill();
            }
            let whole = ((WORDS - self.at) / K).min(out.len() - done);
            if whole == 0 {
                out[done] = f(std::array::from_fn(|_| self.next_u32()));
                done += 1;
                continue;
            }
            let words = &self.buf[self.at..self.at + whole * K];
            for (o, w) in out[done..done + whole]
                .iter_mut()
                .zip(words.chunks_exact(K))
            {
                *o = f(std::array::from_fn(|i| w[i]));
            }
            self.at += whole * K;
            done += whole;
        }
    }

    /// Derives an independent child stream (e.g. one per model in an array).
    pub fn split(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// One sample from the standard normal distribution (Box–Muller).
    pub fn standard_normal(&mut self) -> f32 {
        let w1 = self.next_u32();
        box_muller(w1, self.next_u32())
    }

    /// One sample uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform requires lo < hi");
        in_range(self.next_u32(), lo, hi)
    }

    /// One sample uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Tensor of i.i.d. standard normal samples.
    ///
    /// The buffer comes from the recycling pool, so re-initializing models
    /// inside a warm process allocates nothing.
    pub fn randn(&mut self, shape: impl Into<crate::Shape>) -> Tensor {
        let mut t = Tensor::unfilled(shape);
        self.fill(t.as_mut_slice(), |[w1, w2]| box_muller(w1, w2));
        t
    }

    /// Tensor of i.i.d. `N(mean, std^2)` samples.
    pub fn normal(&mut self, shape: impl Into<crate::Shape>, mean: f32, std: f32) -> Tensor {
        let mut t = Tensor::unfilled(shape);
        self.fill(t.as_mut_slice(), |[w1, w2]| mean + std * box_muller(w1, w2));
        t
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand(&mut self, shape: impl Into<crate::Shape>, lo: f32, hi: f32) -> Tensor {
        assert!(lo < hi, "uniform requires lo < hi");
        let mut t = Tensor::unfilled(shape);
        self.fill(t.as_mut_slice(), |[w]| in_range(w, lo, hi));
        t
    }

    /// Kaiming-uniform initializer (PyTorch's default for conv/linear):
    /// uniform in `±sqrt(1 / fan_in)` scaled by `sqrt(5)`-gain semantics
    /// reduced to the standard bound `sqrt(1 / fan_in)`.
    pub fn kaiming_uniform(&mut self, shape: impl Into<crate::Shape>, fan_in: usize) -> Tensor {
        let bound = if fan_in == 0 {
            0.0
        } else {
            (1.0 / fan_in as f32).sqrt()
        };
        if bound == 0.0 {
            return Tensor::zeros(shape);
        }
        self.rand(shape, -bound, bound)
    }

    /// Xavier/Glorot-uniform initializer.
    pub fn xavier_uniform(
        &mut self,
        shape: impl Into<crate::Shape>,
        fan_in: usize,
        fan_out: usize,
    ) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.rand(shape, -bound, bound)
    }

    /// Fisher–Yates shuffle of a slice of indices.
    pub fn shuffle(&mut self, data: &mut [usize]) {
        for i in (1..data.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `unit` against the conversion it replaces, for every top-24-bit
    /// value (the low byte, which both ignore, varies too).
    #[test]
    fn unit_equals_the_scaled_conversion_for_every_value() {
        for m in 0..1u32 << 24 {
            let w = m << 8 | (m.wrapping_mul(0x9e37_79b9) >> 24);
            let want = (w >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
            assert_eq!(unit(w).to_bits(), want.to_bits(), "word {w:#010x}");
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let a = Rng::seed_from(7).randn([16]);
        let b = Rng::seed_from(7).randn([16]);
        assert_eq!(a, b);
        let c = Rng::seed_from(8).randn([16]);
        assert_ne!(a, c);
    }

    #[test]
    fn split_streams_diverge() {
        let mut root = Rng::seed_from(1);
        let a = root.split().randn([8]);
        let b = root.split().randn([8]);
        assert_ne!(a, b);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::seed_from(1234);
        let t = rng.randn([10_000]);
        let mean = t.mean().item();
        let var = t.square().mean().item() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(99);
        let t = rng.rand([1000], -0.25, 0.5);
        assert!(t.min_value() >= -0.25);
        assert!(t.max_value() < 0.5);
    }

    #[test]
    fn kaiming_bound() {
        let mut rng = Rng::seed_from(3);
        let t = rng.kaiming_uniform([64, 16], 16);
        let bound = (1.0f32 / 16.0).sqrt();
        assert!(t.max_value() <= bound && t.min_value() >= -bound);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_in_range() {
        let mut rng = Rng::seed_from(17);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
