//! `hfta_kernels::tanh` against the scalar port `reference::tanhf`, bit for
//! bit and NaN payloads included, and the port against the platform's
//! `f32::tanh` where that is glibc's fdlibm `tanhf` (x86-64 linux-gnu).
//! Tier 1 checks a strided 2^20 sample of the bit patterns; the ignored
//! test checks all 2^32 (`cargo test --release -p hfta-kernels --test tanh
//! -- --ignored`, a few minutes).

use hfta_kernels::reference::tanhf;

/// Whether `f32::tanh` here is the code the port follows.
const HOST_IS_FDLIBM: bool = cfg!(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu"
));

/// The first input in `bits` whose three answers disagree, if any.
fn first_mismatch(bits: impl Iterator<Item = u32>) -> Option<(u32, u32, u32, Option<u32>)> {
    let x: Vec<f32> = bits.map(f32::from_bits).collect();
    let mut vector = vec![0.0; x.len()];
    hfta_kernels::tanh(&mut vector, &x);
    x.iter().zip(&vector).find_map(|(&x, v)| {
        let port = tanhf(x).to_bits();
        let host = HOST_IS_FDLIBM.then(|| x.tanh().to_bits());
        let bad = v.to_bits() != port || host.is_some_and(|h| h != port);
        bad.then_some((x.to_bits(), v.to_bits(), port, host))
    })
}

#[test]
fn vector_port_and_host_agree_on_a_strided_sample() {
    // Odd offsets too, so the vector body and its scalar tail both run.
    for offset in [0u32, 0x7ff, 0x801] {
        let bits = (0u32..1 << 20).map(|i| (i << 12) | offset).chain([1, 2, 3]);
        assert_eq!(first_mismatch(bits), None, "(x, vector, port, host)");
    }
}

#[test]
#[ignore = "all 2^32 inputs: run in release"]
fn vector_port_and_host_agree_on_every_input() {
    const CHUNK: u64 = 1 << 22;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                s.spawn(move || {
                    (w..(1u64 << 32) / CHUNK).step_by(2).find_map(|c| {
                        first_mismatch((c * CHUNK..(c + 1) * CHUNK).map(|b| b as u32))
                    })
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().unwrap(), None, "(x, vector, port, host)");
        }
    });
}
