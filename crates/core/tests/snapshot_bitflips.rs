//! Every single-bit flip and every prefix of a parameter snapshot
//! (`save_params`) and of a lane snapshot with a trace context and two
//! optimizer slots (`save_lane`) decodes to `Ok` or a typed
//! `SnapshotError`: never a panic, and never an allocation sized by a
//! header field. A counting allocator records the largest single
//! allocation made while decoding. Every count the decoder trusts is
//! bounded by the bytes left at 4 bytes per item, and no item it reserves
//! is larger than a `Tensor`, so no allocation may exceed one `Tensor` per
//! 4 input bytes, or the memory pool's smallest size class (a decoded
//! tensor's storage is rounded up to a class): a flipped count, rank or
//! dimension that the bytes cannot hold must be refused before anything is
//! reserved for it. The pool's free lists are emptied before each decode,
//! so the buffers earlier decodes returned to them do not grow a list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hfta_core::snapshot::{load_lane, load_params, save_lane, save_params, SnapshotError};
use hfta_core::surgery::LaneState;
use hfta_mem::pool::MIN_CLASS_ELEMS;
use hfta_nn::Parameter;
use hfta_telemetry::flight::TraceCtx;
use hfta_tensor::{Rng, Tensor};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

fn bits(params: &[Parameter]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Decodes `bytes` with `load_lane` and with `load_params` into `dst`,
/// checking the allocation bound, and returns the `load_lane` result.
fn decode(bytes: &[u8], dst: &[Parameter], what: &str) -> Result<LaneState, SnapshotError> {
    let bound = (bytes.len() / 4 * std::mem::size_of::<Tensor>()).max(MIN_CLASS_ELEMS * 4);
    let before = bits(dst);
    hfta_mem::trim();
    LARGEST.store(0, Ordering::Relaxed);
    let lane = load_lane(bytes);
    let params = load_params(bytes, dst);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= bound,
        "{what}: allocated {largest} B from a {} B buffer",
        bytes.len()
    );
    match (&lane, params) {
        (Ok(state), Ok(())) => {
            // Every byte was a field that re-encodes at its width.
            assert_eq!(save_lane(state).len(), bytes.len(), "{what}");
            let want: Vec<Vec<u32>> = state
                .params
                .iter()
                .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect();
            assert_eq!(bits(dst), want, "{what}: load_params wrote the lanes");
        }
        (Ok(state), Err(e)) => {
            assert!(matches!(e, SnapshotError::Mismatch { .. }), "{what}: {e}");
            assert_eq!(save_lane(state).len(), bytes.len(), "{what}");
            assert_eq!(bits(dst), before, "{what}: a mismatch writes nothing");
        }
        (Err(a), Err(b)) => {
            assert_eq!(*a, b, "{what}: both entry points read one decoder");
            assert_eq!(bits(dst), before, "{what}: an error writes nothing");
        }
        (Err(e), Ok(())) => panic!("{what}: load_params accepted what load_lane refused ({e})"),
    }
    lane
}

#[test]
fn every_bit_flip_and_prefix_decodes_to_a_value_or_a_typed_error() {
    let mut rng = Rng::seed_from(40);
    let shapes: [&[usize]; 3] = [&[2, 3], &[3], &[1, 2, 2]];
    let model: Vec<Parameter> = shapes
        .iter()
        .map(|&s| Parameter::new(rng.randn(s), "p"))
        .collect();
    let lane = LaneState {
        params: shapes.iter().map(|&s| rng.randn(s)).collect(),
        opt_state: shapes
            .iter()
            .map(|&s| vec![rng.randn(s), rng.randn(s)])
            .collect(),
        step_count: 12,
        ctx: Some(TraceCtx {
            trial: 7,
            array: 3,
            lane: 1,
        }),
    };
    let dst: Vec<Parameter> = shapes
        .iter()
        .map(|&s| Parameter::new(Tensor::zeros(s), "dst"))
        .collect();
    for (name, valid) in [("params", save_params(&model)), ("lane", save_lane(&lane))] {
        // Warm up (first-use allocations), then the valid buffer itself.
        decode(&valid, &dst, name).expect("a valid snapshot decodes");
        decode(&valid, &dst, name).expect("a valid snapshot decodes");
        for len in 0..valid.len() {
            let what = format!("{name}: prefix of {len} bytes");
            assert!(decode(&valid[..len], &dst, &what).is_err(), "{what}");
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let what = format!("{name}: bit {bit} flipped");
            // A flip may decode to other values or to a typed error; the
            // checks inside `decode` are the contract.
            let _ = decode(&flipped, &dst, &what);
        }
    }
}
