//! Host-normalized samples: the probe beside a sample cancels the host's
//! state out of its time.

use hfta_benchmark::probe::{Probe, REFERENCE_SECS};
use hfta_benchmark::runner::{unit_secs, Sample};
use hfta_benchmark::stats::median;

fn sample(secs: f64, before: f64, after: f64) -> Sample {
    Sample {
        work: 10.0,
        secs,
        before: before * REFERENCE_SECS,
        after: after * REFERENCE_SECS,
    }
}

#[test]
fn a_disturbed_host_cancels_out() {
    // The same work on an undisturbed host and on one running 1.5x slower.
    let quiet = sample(2.0, 1.0, 1.0);
    let disturbed = sample(3.0, 1.5, 1.5);
    assert!((quiet.unit_secs() - 0.2).abs() < 1e-12);
    assert!((disturbed.unit_secs() - 0.2).abs() < 1e-12);
    assert!((disturbed.host_slowdown() - 1.5).abs() < 1e-12);
    // Whatever share of a run is disturbed, the median reads the same.
    for disturbed_share in [0, 3, 9, 12] {
        let samples: Vec<Sample> = (0..12)
            .map(|i| {
                if i < disturbed_share {
                    disturbed
                } else {
                    quiet
                }
            })
            .collect();
        assert!((median(&unit_secs(&samples)) - 0.2).abs() < 1e-12);
    }
}

#[test]
fn samples_the_host_changed_state_under_are_set_aside() {
    assert!(sample(2.0, 1.0, 1.09).steady());
    assert!(!sample(2.0, 1.0, 1.5).steady());
    assert!(!sample(2.0, 1.5, 1.0).steady());
    // Six steady samples and three the host changed state under: only the
    // steady ones count.
    let mut samples = vec![sample(2.0, 1.0, 1.0); 6];
    samples.extend([sample(2.6, 1.0, 1.5); 3]);
    assert_eq!(unit_secs(&samples).len(), 6);
    // With too few steady samples every sample counts, at the mean of its
    // two probes.
    let few = &samples[4..];
    let times = unit_secs(few);
    assert_eq!(times.len(), 5);
    assert!((times[4] - 0.26 / 1.25).abs() < 1e-12);
}

#[test]
fn the_probe_takes_about_a_millisecond() {
    let mut probe = Probe::new();
    let secs = (0..5).map(|_| probe.run()).fold(f64::INFINITY, f64::min);
    // Long enough to time, short enough to bracket every sample.
    assert!(secs > 1e-4 && secs < 0.05, "probe took {secs} s");
}
