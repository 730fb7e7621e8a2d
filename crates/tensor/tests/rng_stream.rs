//! Pins the stream of `hfta_tensor::Rng`: every draw equals an oracle built
//! from the vendored `rand_chacha::ChaCha8Rng`, the vendored `rand` traits
//! and the per-element formulas (`gen_range` for uniforms and integers,
//! Box–Muller over `gen_range(EPSILON..1.0)` and `gen::<f32>()` for
//! normals), bit for bit.
//!
//! Each case drives a pool of generator pairs through a random interleaving
//! of every draw `Rng` offers — single words, pairs, `u64`s, tensors of
//! 0-600 elements and splits, whose children join the pool — so draws start
//! at odd and even word offsets and cross the keystream's buffer and block
//! boundaries anywhere.

use hfta_tensor::{Rng, Tensor};
use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The generator `Rng` must equal: ChaCha8 plus the element formulas.
struct Oracle(ChaCha8Rng);

impl Oracle {
    fn seed_from(seed: u64) -> Self {
        Oracle(ChaCha8Rng::seed_from_u64(seed))
    }

    fn split(&mut self) -> Oracle {
        Oracle::seed_from(self.0.gen::<u64>())
    }

    fn standard_normal(&mut self) -> f32 {
        let u1: f32 = self.0.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.0.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.0.gen_range(lo..hi)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn randn(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.standard_normal()).collect()
    }

    fn normal(&mut self, len: usize, mean: f32, std: f32) -> Vec<f32> {
        (0..len)
            .map(|_| mean + std * self.standard_normal())
            .collect()
    }

    fn rand(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }

    fn kaiming_uniform(&mut self, len: usize, fan_in: usize) -> Vec<f32> {
        let bound = if fan_in == 0 {
            0.0
        } else {
            (1.0 / fan_in as f32).sqrt()
        };
        if bound == 0.0 {
            return vec![0.0; len];
        }
        self.rand(len, -bound, bound)
    }

    fn xavier_uniform(&mut self, len: usize, fan_in: usize, fan_out: usize) -> Vec<f32> {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.rand(len, -bound, bound)
    }

    fn shuffle(&mut self, data: &mut [usize]) {
        for i in (1..data.len()).rev() {
            let j = self.0.gen_range(0..=i);
            data.swap(i, j);
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    bits(t.as_slice())
}

/// A shape of `len` elements: rank 1, or rank 2-3 when `len` factors.
fn shape_of(len: usize, pick: usize) -> Vec<usize> {
    match pick % 3 {
        1 if len.is_multiple_of(4) => vec![4, len / 4],
        2 if len.is_multiple_of(6) => vec![len / 6, 2, 3],
        _ => vec![len],
    }
}

/// One case: `ops` random draws over a pool grown by splits from `seed`.
fn run_case(seed: u64, script_seed: u64, ops: usize) {
    let mut script = ChaCha8Rng::seed_from_u64(script_seed);
    let mut pool = vec![(Rng::seed_from(seed), Oracle::seed_from(seed))];
    for op in 0..ops {
        let at = script.gen_range(0..pool.len());
        let len = match script.gen_range(0..4u32) {
            0 => script.gen_range(0..8usize),
            1 => script.gen_range(60..200usize),
            _ => script.gen_range(0..=600usize),
        };
        let pick = script.gen_range(0..3usize);
        let lo = script.gen_range(-4.0f32..4.0);
        let hi = lo + script.gen_range(0.001f32..8.0);
        let ctx = format!("seed {seed} script {script_seed} op {op} len {len}");
        let kind = script.gen_range(0..11u32);
        let (rng, oracle) = &mut pool[at];
        match kind {
            0 => assert_eq!(
                rng.uniform(lo, hi).to_bits(),
                oracle.uniform(lo, hi).to_bits(),
                "uniform({lo}, {hi}): {ctx}"
            ),
            1 => {
                let n = script.gen_range(1..1000usize);
                assert_eq!(rng.below(n), oracle.below(n), "below({n}): {ctx}");
            }
            2 => assert_eq!(
                rng.standard_normal().to_bits(),
                oracle.standard_normal().to_bits(),
                "standard_normal: {ctx}"
            ),
            3 => {
                let child = (rng.split(), oracle.split());
                pool.push(child);
            }
            4 => assert_eq!(
                tensor_bits(&rng.randn(shape_of(len, pick))),
                bits(&oracle.randn(len)),
                "randn: {ctx}"
            ),
            5 => {
                let (mean, std) = (lo, hi - lo);
                assert_eq!(
                    tensor_bits(&rng.normal(shape_of(len, pick), mean, std)),
                    bits(&oracle.normal(len, mean, std)),
                    "normal({mean}, {std}): {ctx}"
                );
            }
            6 => assert_eq!(
                tensor_bits(&rng.rand(shape_of(len, pick), lo, hi)),
                bits(&oracle.rand(len, lo, hi)),
                "rand({lo}, {hi}): {ctx}"
            ),
            7 => {
                let fan_in = script.gen_range(0..300usize);
                assert_eq!(
                    tensor_bits(&rng.kaiming_uniform(shape_of(len, pick), fan_in)),
                    bits(&oracle.kaiming_uniform(len, fan_in)),
                    "kaiming_uniform(fan_in {fan_in}): {ctx}"
                );
            }
            8 => {
                let (fan_in, fan_out) = (script.gen_range(1..300usize), script.gen_range(0..300));
                assert_eq!(
                    tensor_bits(&rng.xavier_uniform(shape_of(len, pick), fan_in, fan_out)),
                    bits(&oracle.xavier_uniform(len, fan_in, fan_out)),
                    "xavier_uniform({fan_in}, {fan_out}): {ctx}"
                );
            }
            9 => {
                let (mut a, mut b): (Vec<usize>, Vec<usize>) =
                    ((0..len).collect(), (0..len).collect());
                rng.shuffle(&mut a);
                oracle.shuffle(&mut b);
                assert_eq!(a, b, "shuffle: {ctx}");
            }
            _ => {
                // A run of single words, to leave the stream at an odd offset.
                for _ in 0..script.gen_range(1..6u32) {
                    assert_eq!(
                        rng.uniform(0.0, 1.0).to_bits(),
                        oracle.uniform(0.0, 1.0).to_bits(),
                        "word run: {ctx}"
                    );
                }
            }
        }
    }
    // Every stream in the pool still agrees after the interleaving.
    for (i, (rng, oracle)) in pool.iter_mut().enumerate() {
        assert_eq!(
            tensor_bits(&rng.randn([33])),
            bits(&oracle.randn(33)),
            "seed {seed} script {script_seed}: pool entry {i} after the script"
        );
    }
}

#[test]
fn draws_equal_the_chacha8_oracle() {
    let seeds = [0, 1, 7, 41, 0x48F7_A000, u64::MAX, 0x9E37_79B9_7F4A_7C15];
    for (i, &seed) in seeds.iter().enumerate() {
        for script in 0..6u64 {
            run_case(seed, script * 31 + i as u64, 48);
        }
    }
    let mut seeds = ChaCha8Rng::seed_from_u64(0x5eed);
    for script in 0..24u64 {
        run_case(seeds.gen(), 1000 + script, 48);
    }
}

/// Every draw of `len` words or pairs, starting at every word offset of the
/// first two keystream blocks and of a 128-word buffer's last block.
#[test]
fn tensor_draws_equal_the_oracle_from_every_offset() {
    for offset in (0..40).chain(100..136) {
        for len in [0, 1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300] {
            let (mut rng, mut oracle) = (Rng::seed_from(offset), Oracle::seed_from(offset));
            for _ in 0..offset {
                assert_eq!(
                    rng.uniform(-1.0, 1.0).to_bits(),
                    oracle.uniform(-1.0, 1.0).to_bits()
                );
            }
            let ctx = format!("offset {offset} len {len}");
            assert_eq!(
                tensor_bits(&rng.randn([len])),
                bits(&oracle.randn(len)),
                "randn: {ctx}"
            );
            assert_eq!(
                tensor_bits(&rng.rand([len], -0.5, 2.0)),
                bits(&oracle.rand(len, -0.5, 2.0)),
                "rand: {ctx}"
            );
            assert_eq!(rng.below(3), oracle.below(3), "below: {ctx}");
            assert_eq!(
                tensor_bits(&rng.normal([len], 1.0, 0.25)),
                bits(&oracle.normal(len, 1.0, 0.25)),
                "normal: {ctx}"
            );
        }
    }
}
