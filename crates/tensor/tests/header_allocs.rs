//! A tensor's header costs no heap allocation: `Shape` keeps its dims
//! inline, so once the storage pool is warm, building, cloning, reshaping,
//! narrowing and broadcasting tensors allocate nothing at all — every
//! buffer is a pool reuse. A counting global allocator checks it.
//!
//! Its own binary, for the global allocator; it counts the calling
//! thread's allocations only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hfta_tensor::Tensor;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The header ops under test, on small tensors so no loop fans out.
fn header_ops() -> f32 {
    let x = Tensor::zeros([2, 3, 4]);
    let y = x.clone();
    let r = y.reshape(&[6, 4]);
    let u = r.unsqueeze(1);
    let n = u.narrow(0, 1, 3);
    let bias = Tensor::ones([4]);
    let sum = n.add(&bias);
    let col = Tensor::ones([3, 1, 1]);
    let grid = sum.add(&col);
    grid.as_slice()[0]
}

#[test]
fn warm_header_ops_allocate_nothing() {
    // Warm-up: fills the pool's free lists for every size used.
    for _ in 0..2 {
        header_ops();
    }
    let before = ALLOCS.with(Cell::get);
    let v = header_ops();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(v, 2.0);
    assert_eq!(allocs, 0, "warm header ops made {allocs} heap allocations");
}
