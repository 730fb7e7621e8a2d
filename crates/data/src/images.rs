//! Synthetic images standing in for LSUN (DCGAN) and CIFAR-10 (ResNet-18).

use hfta_mem::Storage;
use hfta_tensor::{Rng, Tensor};

/// Unlabeled "natural-looking" image generator for GAN training — a
/// procedural stand-in for LSUN bedrooms: smooth gradient backgrounds with
/// axis-aligned rectangles (furniture-like structure), values in `[-1, 1]`
/// matching DCGAN's `tanh` output range.
///
/// # Example
///
/// ```
/// use hfta_data::GanImages;
/// let mut ds = GanImages::new(16, 0);
/// let batch = ds.batch(4);
/// assert_eq!(batch.dims(), &[4, 3, 16, 16]);
/// ```
#[derive(Debug)]
pub struct GanImages {
    size: usize,
    rng: Rng,
}

impl GanImages {
    /// Creates a generator of `size x size` RGB images.
    pub fn new(size: usize, seed: u64) -> Self {
        GanImages {
            size,
            rng: Rng::seed_from(seed),
        }
    }

    /// Image side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Samples a batch `[N, 3, S, S]` in `[-1, 1]`.
    pub fn batch(&mut self, n: usize) -> Tensor {
        let s = self.size;
        let mut storage = Storage::unfilled(n * 3 * s * s);
        let data = storage.as_mut_slice();
        for i in 0..n {
            // Gradient background per channel.
            let mut base = [[0.0f32; 3]; 2];
            for row in &mut base {
                for v in row.iter_mut() {
                    *v = self.rng.uniform(-0.8, 0.8);
                }
            }
            let img = &mut data[i * 3 * s * s..(i + 1) * 3 * s * s];
            for c in 0..3 {
                for y in 0..s {
                    let t = y as f32 / (s - 1).max(1) as f32;
                    let v = base[0][c] * (1.0 - t) + base[1][c] * t;
                    for x in 0..s {
                        img[(c * s + y) * s + x] = v;
                    }
                }
            }
            // A few rectangles.
            for _ in 0..3 {
                let x0 = self.rng.below(s);
                let y0 = self.rng.below(s);
                let w = (self.rng.below(s / 2) + 1).min(s - x0);
                let h = (self.rng.below(s / 2) + 1).min(s - y0);
                let mut color = [0.0f32; 3];
                for c in &mut color {
                    *c = self.rng.uniform(-1.0, 1.0);
                }
                for c in 0..3 {
                    for y in y0..y0 + h {
                        for x in x0..x0 + w {
                            img[(c * s + y) * s + x] = color[c];
                        }
                    }
                }
            }
        }
        data.iter_mut().for_each(|v| *v = v.clamp(-1.0, 1.0));
        Tensor::from_storage(storage, [n, 3, s, s])
    }
}

/// Labeled image generator standing in for CIFAR-10: each class renders a
/// distinct parametric pattern (stripes, checkers, blobs at class-specific
/// frequencies) plus noise, so classifiers genuinely have to learn.
#[derive(Debug)]
pub struct LabeledImages {
    size: usize,
    classes: usize,
    rng: Rng,
}

impl LabeledImages {
    /// Creates a generator of `size x size` RGB images over `classes`
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(size: usize, classes: usize, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        LabeledImages {
            size,
            classes,
            rng: Rng::seed_from(seed),
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Samples a batch: `([N, 3, S, S], labels)`.
    pub fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        let s = self.size;
        let mut storage = Storage::unfilled(n * 3 * s * s);
        let data = storage.as_mut_slice();
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = self.rng.below(self.classes);
            labels.push(class);
            let freq = 1.0 + class as f32;
            let phase = self.rng.uniform(0.0, std::f32::consts::TAU);
            let img = &mut data[i * 3 * s * s..(i + 1) * 3 * s * s];
            for c in 0..3 {
                for y in 0..s {
                    for x in 0..s {
                        let u = x as f32 / s as f32;
                        let v = y as f32 / s as f32;
                        let pattern = ((freq * std::f32::consts::TAU * u + phase).sin()
                            + (freq * std::f32::consts::TAU * v + phase * 0.5).cos())
                            * 0.4;
                        let noise = self.rng.standard_normal() * 0.1;
                        img[(c * s + y) * s + x] = pattern + noise + 0.1 * c as f32;
                    }
                }
            }
        }
        (Tensor::from_storage(storage, [n, 3, s, s]), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gan_images_in_range() {
        let mut ds = GanImages::new(16, 1);
        let b = ds.batch(3);
        assert_eq!(b.dims(), &[3, 3, 16, 16]);
        assert!(b.max_value() <= 1.0);
        assert!(b.min_value() >= -1.0);
    }

    #[test]
    fn gan_images_have_structure() {
        // Not constant, not white noise: neighboring pixels correlate.
        let mut ds = GanImages::new(32, 2);
        let b = ds.batch(1);
        let d = b.as_slice();
        let mut same = 0;
        let mut total = 0;
        for i in 0..d.len() - 1 {
            if (d[i] - d[i + 1]).abs() < 0.05 {
                same += 1;
            }
            total += 1;
        }
        assert!(
            same as f64 / total as f64 > 0.5,
            "insufficient spatial coherence"
        );
    }

    #[test]
    fn labeled_images_shapes_and_classes() {
        let mut ds = LabeledImages::new(8, 10, 3);
        let (x, y) = ds.batch(16);
        assert_eq!(x.dims(), &[16, 3, 8, 8]);
        assert!(y.iter().all(|&c| c < 10));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = GanImages::new(8, 5).batch(2);
        let b = GanImages::new(8, 5).batch(2);
        assert_eq!(a, b);
    }

    #[test]
    fn classes_have_different_statistics() {
        // Class frequency should show up in horizontal autocorrelation.
        let mut ds = LabeledImages::new(16, 4, 7);
        let mut stats = vec![Vec::new(); 4];
        for _ in 0..20 {
            let (x, y) = ds.batch(8);
            for (i, &c) in y.iter().enumerate() {
                let img = x.narrow(0, i, 1);
                // Mean absolute horizontal difference = roughness.
                let d = img.as_slice();
                let rough: f32 =
                    d.windows(2).map(|w| (w[0] - w[1]).abs()).sum::<f32>() / (d.len() - 1) as f32;
                stats[c].push(rough);
            }
        }
        let mean = |v: &Vec<f32>| v.iter().sum::<f32>() / v.len().max(1) as f32;
        // Higher-frequency classes are rougher.
        assert!(mean(&stats[3]) > mean(&stats[0]));
    }
}
