//! Synthetic 3-D point clouds standing in for the ShapeNet-part dataset.
//!
//! Each cloud is sampled from a parametric primitive (sphere, cuboid,
//! cylinder, cone, torus, plane) with per-point *part* labels derived from
//! the surface region — the same `(points, class)` and
//! `(points, per-point part)` supervision shapes as ShapeNet-part.

use hfta_mem::Storage;
use hfta_tensor::{Rng, Tensor};

/// Number of shape classes the generator produces.
pub const SHAPE_CLASSES: usize = 6;

/// Number of part labels per shape (all shapes use the same label space,
/// as PointNet-seg's per-category heads do after flattening).
pub const PART_CLASSES: usize = 4;

fn sample_point(rng: &mut Rng, class: usize) -> ([f32; 3], usize) {
    match class {
        // Sphere: parts = octant pairs.
        0 => {
            let v = [
                rng.standard_normal(),
                rng.standard_normal(),
                rng.standard_normal(),
            ];
            let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-6);
            let p = [v[0] / n, v[1] / n, v[2] / n];
            let part = (p[2] > 0.0) as usize * 2 + (p[0] > 0.0) as usize;
            (p, part)
        }
        // Cuboid surface: parts = which face pair.
        1 => {
            let face = rng.below(3);
            let sign = if rng.below(2) == 0 { -1.0 } else { 1.0 };
            let mut p = [
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
            ];
            p[face] = sign;
            (p, face.min(PART_CLASSES - 1))
        }
        // Cylinder: side vs caps, split by height.
        2 => {
            let theta = rng.uniform(0.0, std::f32::consts::TAU);
            if rng.below(4) == 0 {
                // Cap.
                let r = rng.uniform(0.0, 1.0).sqrt();
                let z = if rng.below(2) == 0 { -1.0 } else { 1.0 };
                ([r * theta.cos(), r * theta.sin(), z], 3)
            } else {
                let z = rng.uniform(-1.0, 1.0);
                let part = ((z + 1.0) / 2.0 * 3.0) as usize;
                ([theta.cos(), theta.sin(), z], part.min(2))
            }
        }
        // Cone: apex region vs base rings.
        3 => {
            let h = rng.uniform(0.0, 1.0).sqrt();
            let theta = rng.uniform(0.0, std::f32::consts::TAU);
            let r = h * 0.8;
            let part = (h * PART_CLASSES as f32) as usize;
            (
                [r * theta.cos(), r * theta.sin(), 1.0 - h * 2.0],
                part.min(PART_CLASSES - 1),
            )
        }
        // Torus: quadrant of the major angle.
        4 => {
            let u = rng.uniform(0.0, std::f32::consts::TAU);
            let v = rng.uniform(0.0, std::f32::consts::TAU);
            let (cr, r) = (1.0, 0.35);
            let p = [
                (cr + r * v.cos()) * u.cos(),
                (cr + r * v.cos()) * u.sin(),
                r * v.sin(),
            ];
            let part = (u / std::f32::consts::TAU * PART_CLASSES as f32) as usize;
            (p, part.min(PART_CLASSES - 1))
        }
        // Plane with a ridge: side of the ridge + height band.
        _ => {
            let x = rng.uniform(-1.0, 1.0);
            let y = rng.uniform(-1.0, 1.0);
            let z = 0.3 * (3.0 * x).sin();
            let part = (x > 0.0) as usize * 2 + (y > 0.0) as usize;
            ([x, y, z], part)
        }
    }
}

/// Classification point-cloud generator: `(cloud [3, P], class)` samples,
/// batched as `([N, 3, P], Vec<class>)`.
///
/// # Example
///
/// ```
/// use hfta_data::PointClouds;
/// let mut ds = PointClouds::new(128, 7);
/// let (x, y) = ds.batch(4);
/// assert_eq!(x.dims(), &[4, 3, 128]);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug)]
pub struct PointClouds {
    points: usize,
    rng: Rng,
}

impl PointClouds {
    /// Creates a generator producing `points` points per cloud.
    pub fn new(points: usize, seed: u64) -> Self {
        PointClouds {
            points,
            rng: Rng::seed_from(seed),
        }
    }

    /// Points per cloud.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Samples a batch of `n` clouds: `([N, 3, P], class labels)`.
    pub fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        let mut storage = Storage::unfilled(n * 3 * self.points);
        let data = storage.as_mut_slice();
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = self.rng.below(SHAPE_CLASSES);
            labels.push(class);
            for p in 0..self.points {
                let (xyz, _) = sample_point(&mut self.rng, class);
                for (d, &v) in xyz.iter().enumerate() {
                    data[(i * 3 + d) * self.points + p] = v;
                }
            }
        }
        (Tensor::from_storage(storage, [n, 3, self.points]), labels)
    }
}

/// Segmentation point-cloud generator: per-point part labels.
#[derive(Debug)]
pub struct PartLabeledClouds {
    points: usize,
    rng: Rng,
}

impl PartLabeledClouds {
    /// Creates a generator producing `points` points per cloud.
    pub fn new(points: usize, seed: u64) -> Self {
        PartLabeledClouds {
            points,
            rng: Rng::seed_from(seed),
        }
    }

    /// Samples a batch: `([N, 3, P], per-point labels of length N * P)`.
    pub fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        let mut storage = Storage::unfilled(n * 3 * self.points);
        let data = storage.as_mut_slice();
        let mut labels = Vec::with_capacity(n * self.points);
        for i in 0..n {
            let class = self.rng.below(SHAPE_CLASSES);
            for p in 0..self.points {
                let (xyz, part) = sample_point(&mut self.rng, class);
                for (d, &v) in xyz.iter().enumerate() {
                    data[(i * 3 + d) * self.points + p] = v;
                }
                labels.push(part);
            }
        }
        (Tensor::from_storage(storage, [n, 3, self.points]), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shapes() {
        let mut ds = PointClouds::new(64, 1);
        let (x, y) = ds.batch(8);
        assert_eq!(x.dims(), &[8, 3, 64]);
        assert_eq!(y.len(), 8);
        assert!(y.iter().all(|&c| c < SHAPE_CLASSES));
    }

    #[test]
    fn seg_labels_per_point() {
        let mut ds = PartLabeledClouds::new(32, 2);
        let (x, y) = ds.batch(4);
        assert_eq!(x.dims(), &[4, 3, 32]);
        assert_eq!(y.len(), 4 * 32);
        assert!(y.iter().all(|&p| p < PART_CLASSES));
    }

    #[test]
    fn deterministic_by_seed() {
        let (a, la) = PointClouds::new(16, 9).batch(2);
        let (b, lb) = PointClouds::new(16, 9).batch(2);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        let (c, _) = PointClouds::new(16, 10).batch(2);
        assert_ne!(a, c);
    }

    #[test]
    fn points_are_bounded() {
        let (x, _) = PointClouds::new(256, 3).batch(4);
        assert!(x.max_value() <= 1.5);
        assert!(x.min_value() >= -1.5);
        assert!(!x.has_non_finite());
    }

    #[test]
    fn classes_are_distinguishable() {
        // Crude separability: spheres (class 0) have near-unit radius,
        // planes (class 5) are flat — their mean |z| statistics differ.
        let mut rng = Rng::seed_from(4);
        let mut radius = [0.0f32; 2];
        for (slot, class) in [(0, 0), (1, 5)] {
            let mut acc = 0.0;
            for _ in 0..500 {
                let (p, _) = sample_point(&mut rng, class);
                acc += (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            }
            radius[slot] = acc / 500.0;
        }
        assert!((radius[0] - 1.0).abs() < 0.05);
        assert!(radius[1] < 0.95);
    }

    #[test]
    fn all_parts_appear() {
        let mut ds = PartLabeledClouds::new(512, 5);
        let (_, y) = ds.batch(8);
        for part in 0..PART_CLASSES {
            assert!(y.contains(&part), "part {part} never sampled");
        }
    }
}
