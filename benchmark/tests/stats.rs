//! Window medians, the quartile spread a metric carries, and the tail
//! percentile that needs ten samples beyond it.

use hfta_benchmark::stats::{iqr_share, median, tail_percentile};

#[test]
fn iqr_share_is_the_quartile_distance_over_the_median() {
    // 1..=8: lower half 1..4 (median 2.5), upper half 5..8 (6.5), median 4.5.
    let values: Vec<f64> = (1..=8).map(f64::from).collect();
    assert!((iqr_share(&values) - 4.0 / 4.5).abs() < 1e-12);
    // An odd count leaves the middle sample out of both halves.
    assert!((iqr_share(&[5.0, 1.0, 3.0, 2.0, 4.0]) - (4.5 - 1.5) / 3.0).abs() < 1e-12);
    // One stalled window in nine moves neither quartile.
    let mut windows = vec![100.0; 9];
    windows[4] = 37.0;
    assert_eq!(iqr_share(&windows), 0.0);
    assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), 0.0, "too few samples to tell");
}

#[test]
fn window_median_ignores_one_slow_window() {
    // Nine windows, one of them hit by a stall: the median does not move.
    let mut windows = vec![100.0; 9];
    windows[4] = 37.0;
    assert_eq!(median(&windows), 100.0);
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    // Below eleven samples there is no tail to speak of.
    let ten: Vec<f64> = (0..10).map(f64::from).collect();
    assert_eq!(tail_percentile(&ten), None);
    // 100 samples: the 90th percentile is the highest with ten at or above.
    let hundred: Vec<f64> = (0..100).map(f64::from).collect();
    let (p, v) = tail_percentile(&hundred).unwrap();
    assert_eq!((p, v), (90.0, 90.0));
    assert_eq!(hundred.iter().filter(|&&x| x >= v).count(), 10);
    // 15 samples: only the top third qualifies.
    let fifteen: Vec<f64> = (0..15).rev().map(f64::from).collect();
    let (p, v) = tail_percentile(&fifteen).unwrap();
    assert_eq!(v, 5.0);
    assert!((p - 100.0 / 3.0).abs() < 1e-9);
}
