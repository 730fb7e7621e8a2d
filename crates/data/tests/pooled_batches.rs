//! Every generator draws its batch buffer from the storage pool: after one
//! warm-up batch, a thousand more make no fresh allocation and leave the
//! pool's free bytes where the warm-up left them (an adopted `Vec` would
//! park one more buffer per batch). The pool counters are process-wide, so
//! this binary holds only these checks, run one after the other.
//! Each generator's batch is also pinned by a digest of its bits.

use hfta_data::{GanImages, LabeledImages, PartLabeledClouds, PointClouds};
use hfta_tensor::Tensor;

/// FNV-1a over the batch's bits and its labels.
fn digest(x: &Tensor, labels: &[usize]) -> u64 {
    let words =
        (x.as_slice().iter().map(|v| v.to_bits() as u64)).chain(labels.iter().map(|&l| l as u64));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Draws a generator's next batch, labels empty where it has none.
type Next = Box<dyn FnMut() -> (Tensor, Vec<usize>)>;

/// Each generator by name.
fn batches() -> [(&'static str, Next); 4] {
    let mut gan = GanImages::new(16, 7);
    let mut labeled = LabeledImages::new(8, 5, 8);
    let mut clouds = PointClouds::new(32, 9);
    let mut parts = PartLabeledClouds::new(32, 10);
    [
        ("GanImages", Box::new(move || (gan.batch(4), Vec::new()))),
        ("LabeledImages", Box::new(move || labeled.batch(4))),
        ("PointClouds", Box::new(move || clouds.batch(4))),
        ("PartLabeledClouds", Box::new(move || parts.batch(4))),
    ]
}

#[test]
fn batches_reuse_pooled_buffers_and_keep_their_bits() {
    let pinned = [
        ("GanImages", 0x0f87_fee1_449d_922c),
        ("LabeledImages", 0xf32e_345a_c5dd_1d65),
        ("PointClouds", 0xf9c5_4bcc_eb2a_567b),
        ("PartLabeledClouds", 0x48e4_0ba1_1fc2_b80b),
    ];
    for ((name, mut next), (pinned_name, want)) in batches().into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        let (x, labels) = next();
        assert_eq!(digest(&x, &labels), want, "{name}: batch bits moved");
        drop(x);
        let warm = hfta_mem::stats();
        for _ in 0..1000 {
            next();
        }
        let after = hfta_mem::stats();
        assert_eq!(
            after.pool_fresh_allocs, warm.pool_fresh_allocs,
            "{name}: batches allocate fresh buffers"
        );
        assert_eq!(
            after.pooled_free_bytes, warm.pooled_free_bytes,
            "{name}: batches park buffers in the pool"
        );
    }
}
