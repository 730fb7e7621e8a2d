//! What is left of the conv find-db autotuner: nothing tunes.
//!
//! Selection in this crate is by platform and shape, never by a persisted
//! measurement or an option, so there is no find-db to configure.
//! [`enabled`] is retained — like [`crate::gemm::auto_simd`] — only because
//! the out-of-workspace `benchmark/` host record still reads it; both go
//! when a benchmark PR drops those fields.

/// Whether a find-db is configured. Always `false`: there is none.
pub fn enabled() -> bool {
    false
}
