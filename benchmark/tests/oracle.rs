//! The oracle counts what it is shown: a corrupted lane is a failed
//! lane-step, not a footnote.

use hfta_benchmark::oracle::{LossDigest, Oracle, FUSED_SERIAL_REL_TOL};

#[test]
fn corrupting_one_lanes_loss_is_counted() {
    let clean = vec![0.7f32, 0.6, 0.5, 0.4];
    let mut oracle = Oracle::default();
    oracle.check_finite("array", &clean, 1);
    oracle.check_bits("1T vs mt", &clean, &clean, 1);
    oracle.check_rel("array vs serial", &clean, &clean, 1, FUSED_SERIAL_REL_TOL);
    assert_eq!((oracle.attempted, oracle.failed), (4, 0));

    // One ulp off in lane 2 breaks bit-identity but not the tolerance.
    let mut nudged = clean.clone();
    nudged[2] = f32::from_bits(nudged[2].to_bits() + 1);
    oracle.check_bits("1T vs mt", &clean, &nudged, 1);
    assert_eq!(oracle.failed, 1);
    oracle.check_rel("array vs serial", &clean, &nudged, 1, FUSED_SERIAL_REL_TOL);
    assert_eq!(oracle.failed, 1);

    // A lane that drifted by 1 % breaks the tolerance; a NaN breaks both.
    let mut drifted = clean.clone();
    drifted[0] *= 1.01;
    oracle.check_rel("array vs serial", &clean, &drifted, 1, FUSED_SERIAL_REL_TOL);
    assert_eq!(oracle.failed, 2);
    let mut broken = clean.clone();
    broken[3] = f32::NAN;
    oracle.check_finite("array", &broken, 1);
    assert_eq!((oracle.attempted, oracle.failed), (8, 3));
    assert!(oracle.notes.iter().any(|n| n.contains("lane-step 3")));
}

#[test]
fn a_lane_step_with_two_losses_fails_once() {
    // DCGAN reports (D loss, G loss) per lane: one bad value, one failure.
    let a = vec![1.0f32, 2.0, 3.0, 4.0];
    let mut b = a.clone();
    b[3] = 4.5;
    let mut oracle = Oracle::default();
    oracle.check_finite("array", &a, 2);
    oracle.check_bits("1T vs mt", &a, &b, 2);
    assert_eq!((oracle.attempted, oracle.failed), (2, 1));
}

#[test]
fn a_missing_lane_step_fails() {
    let mut oracle = Oracle::default();
    oracle.check_bits("1T vs mt", &[1.0, 2.0, 3.0], &[1.0, 2.0], 1);
    assert_eq!(oracle.failed, 1);
}

#[test]
fn digest_sees_every_bit_and_the_order() {
    let digest = |losses: &[f32]| {
        let mut d = LossDigest::default();
        d.update(losses);
        d.value()
    };
    let base = digest(&[0.5, 0.25]);
    assert_eq!(base, digest(&[0.5, 0.25]));
    assert_ne!(base, digest(&[0.25, 0.5]));
    assert_ne!(base, digest(&[0.5, f32::from_bits(0.25f32.to_bits() + 1)]));
    assert!(base < 1 << 48, "fits an f64 exactly");
}
