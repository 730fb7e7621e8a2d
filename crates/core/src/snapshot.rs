//! Crash-safe lane snapshots: serialize a [`LaneState`] — parameter lanes,
//! every optimizer-state lane, and the shared step counter — to a versioned
//! byte buffer and restore it bit-identically.
//!
//! This is the persistence layer behind `hfta-serve`'s checkpoint/restore:
//! a trial extracted from a fused array at a rung boundary is written to
//! disk as one snapshot, and a killed-and-restarted service splices the
//! decoded state into a fresh array and continues the trajectory
//! bit-for-bit (lane surgery is bit-exact, and `f32::to_le_bytes` /
//! `from_le_bytes` round-trip every bit pattern including NaNs).
//!
//! A model's parameter set is one more lane snapshot, with no optimizer
//! slots, step 0 and no trace context ([`save_params`] / [`load_params`]).
//!
//! The format is self-describing little-endian:
//! `magic "HFSN" | version u32 | step_count u64 | ctx flag u8
//! [trial u64, array u64, lane u64] | param count u32 |
//! per parameter: (rank u32, dims u32..., data f32...) | slot count u32 |
//! per parameter x slot: (rank u32, dims u32..., data f32...)`.

use std::fmt;

use hfta_mem::Storage;
use hfta_nn::Parameter;
use hfta_telemetry::flight::TraceCtx;
use hfta_tensor::Tensor;

use crate::surgery::LaneState;

const MAGIC: &[u8; 4] = b"HFSN";
const VERSION: u32 = 1;

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream does not start with the snapshot magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The stream ended before the declared contents.
    Truncated,
    /// The stream declared contents but bytes were left over.
    TrailingBytes,
    /// The snapshot's parameters do not match the destination's.
    Mismatch {
        /// Human-readable detail naming the destination parameter.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an HFTA lane snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapshotError::Mismatch { detail } => write!(f, "snapshot mismatch: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.dims().len() as u32).to_le_bytes());
    for &d in t.dims() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for x in t.as_slice() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serializes a lane state into a snapshot byte buffer.
pub fn save_lane(state: &LaneState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&state.step_count.to_le_bytes());
    match state.ctx {
        Some(ctx) => {
            out.push(1);
            out.extend_from_slice(&ctx.trial.to_le_bytes());
            out.extend_from_slice(&ctx.array.to_le_bytes());
            out.extend_from_slice(&ctx.lane.to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(state.params.len() as u32).to_le_bytes());
    for p in &state.params {
        put_tensor(&mut out, p);
    }
    let slots = state.opt_state.first().map_or(0, |s| s.len());
    out.extend_from_slice(&(slots as u32).to_le_bytes());
    for per_param in &state.opt_state {
        for t in per_param {
            put_tensor(&mut out, t);
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a count that declares `n * per` further items of at least 4
    /// bytes each, and rejects one the remaining bytes cannot hold before
    /// anything is reserved for it: the header of an on-disk file is not
    /// trusted to size an allocation.
    fn count(&mut self, per: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(per).and_then(|items| items.checked_mul(4));
        match need {
            Some(need) if need <= self.bytes.len() - self.pos => Ok(n),
            _ => Err(SnapshotError::Truncated),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn tensor(&mut self) -> Result<Tensor, SnapshotError> {
        let rank = self.count(1)?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.u32()? as usize);
        }
        let byte_len = dims
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or(SnapshotError::Truncated)?;
        // Decoded straight into a pooled buffer, drawn only once the bytes
        // are there.
        let bytes = self.take(byte_len)?;
        let mut data = Storage::unfilled(byte_len / 4);
        for (v, c) in data.as_mut_slice().iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        Ok(Tensor::from_storage(data, dims))
    }
}

/// Decodes a snapshot back into a [`LaneState`], bit-identically.
///
/// # Errors
///
/// Returns a [`SnapshotError`] on any malformed input; the whole buffer
/// must be consumed (no trailing bytes), so a torn or concatenated file is
/// rejected rather than half-read.
pub fn load_lane(bytes: &[u8]) -> Result<LaneState, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let step_count = r.u64()?;
    let ctx = match r.take(1)?[0] {
        0 => None,
        _ => Some(TraceCtx {
            trial: r.u64()?,
            array: r.u64()?,
            lane: r.u64()?,
        }),
    };
    let param_count = r.count(1)?;
    let mut params = Vec::with_capacity(param_count);
    for _ in 0..param_count {
        params.push(r.tensor()?);
    }
    let slots = r.count(param_count)?;
    let mut opt_state = Vec::with_capacity(param_count);
    for _ in 0..param_count {
        let mut per_param = Vec::with_capacity(slots);
        for _ in 0..slots {
            per_param.push(r.tensor()?);
        }
        opt_state.push(per_param);
    }
    if r.pos != bytes.len() {
        return Err(SnapshotError::TrailingBytes);
    }
    Ok(LaneState {
        params,
        opt_state,
        step_count,
        ctx,
    })
}

/// Serializes a model's parameter values as a lane snapshot.
pub fn save_params(params: &[Parameter]) -> Vec<u8> {
    save_lane(&LaneState {
        params: params.iter().map(Parameter::value_cloned).collect(),
        opt_state: vec![Vec::new(); params.len()],
        step_count: 0,
        ctx: None,
    })
}

/// Restores parameter values, in order, from a snapshot's parameter
/// tensors; its optimizer slots, step count and context are not read.
///
/// # Errors
///
/// Returns [`SnapshotError::Mismatch`] if the count or a shape differs,
/// and the [`load_lane`] errors otherwise. Every shape is checked before
/// anything is written, so on error no parameter is modified.
pub fn load_params(bytes: &[u8], params: &[Parameter]) -> Result<(), SnapshotError> {
    let values = load_lane(bytes)?.params;
    let mismatch = |detail| Err(SnapshotError::Mismatch { detail });
    let (n, m) = (values.len(), params.len());
    if n != m {
        return mismatch(format!("snapshot has {n} parameters, destination has {m}"));
    }
    for (t, p) in values.iter().zip(params) {
        let value = p.value();
        if t.dims() != value.dims() {
            let (name, got, want) = (p.name(), t.dims(), value.dims());
            return mismatch(format!(
                "parameter {name}: snapshot {got:?}, destination {want:?}"
            ));
        }
    }
    for (t, p) in values.into_iter().zip(params) {
        p.set_value(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_tensor::Rng;

    fn state(with_ctx: bool) -> LaneState {
        let mut rng = Rng::seed_from(3);
        LaneState {
            params: vec![rng.randn([2, 3]), rng.randn([3])],
            opt_state: vec![
                vec![rng.randn([2, 3]), rng.randn([2, 3])],
                vec![rng.randn([3]), rng.randn([3])],
            ],
            step_count: 17,
            ctx: with_ctx.then_some(TraceCtx {
                trial: 9,
                array: 4,
                lane: 2,
            }),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for with_ctx in [false, true] {
            let src = state(with_ctx);
            let back = load_lane(&save_lane(&src)).unwrap();
            assert_eq!(back.step_count, src.step_count);
            assert_eq!(back.ctx, src.ctx);
            assert_eq!(back.params, src.params);
            assert_eq!(back.opt_state, src.opt_state);
        }
    }

    #[test]
    fn nan_lanes_round_trip_exactly() {
        let mut src = state(false);
        // A quarantined lane's poisoned values must survive the trip with
        // their exact bit patterns.
        let mut data = src.params[0].to_vec();
        data[0] = f32::NAN;
        data[1] = f32::NEG_INFINITY;
        src.params[0] = Tensor::from_vec(data, vec![2, 3]);
        let back = load_lane(&save_lane(&src)).unwrap();
        let bits: Vec<u32> = back.params[0]
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let want: Vec<u32> = src.params[0]
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(load_lane(b"nope").unwrap_err(), SnapshotError::BadMagic);
        let mut bytes = save_lane(&state(true));
        bytes.truncate(bytes.len() - 3);
        assert_eq!(load_lane(&bytes).unwrap_err(), SnapshotError::Truncated);
        let mut bad = save_lane(&state(true));
        bad[4] = 99;
        assert!(matches!(load_lane(&bad), Err(SnapshotError::BadVersion(_))));
        let mut trailing = save_lane(&state(false));
        trailing.push(0);
        assert_eq!(
            load_lane(&trailing).unwrap_err(),
            SnapshotError::TrailingBytes
        );
    }

    #[test]
    fn corrupt_headers_and_every_prefix_are_errors_not_panics() {
        fn with_header(fields: &[u32]) -> Vec<u8> {
            let mut bytes = [&MAGIC[..], &VERSION.to_le_bytes(), &[0; 8], &[0]].concat();
            for f in fields {
                bytes.extend_from_slice(&f.to_le_bytes());
            }
            bytes
        }
        let d = 65536;
        let corrupt = [
            ("numel overflows usize", with_header(&[1, 4, d, d, d, d])),
            ("param_count = u32::MAX", with_header(&[u32::MAX])),
            ("rank = u32::MAX", with_header(&[1, u32::MAX])),
            // One rank-0 parameter (bits of 1.0), then the slot count.
            (
                "slots = u32::MAX",
                with_header(&[1, 0, 0x3f80_0000, u32::MAX]),
            ),
        ];
        for (what, bytes) in &corrupt {
            assert_eq!(
                load_lane(bytes).unwrap_err(),
                SnapshotError::Truncated,
                "{what}"
            );
        }
        for with_ctx in [false, true] {
            let valid = save_lane(&state(with_ctx));
            for len in 0..valid.len() {
                assert!(load_lane(&valid[..len]).is_err(), "prefix of {len} bytes");
            }
        }
    }

    #[test]
    fn momentum_free_state_round_trips() {
        // SGD without momentum has zero state slots.
        let mut rng = Rng::seed_from(5);
        let src = LaneState {
            params: vec![rng.randn([4])],
            opt_state: vec![vec![]],
            step_count: 0,
            ctx: None,
        };
        let back = load_lane(&save_lane(&src)).unwrap();
        assert_eq!(back.params, src.params);
        assert_eq!(back.opt_state, src.opt_state);
    }

    fn params(seed: u64) -> Vec<Parameter> {
        let mut rng = Rng::seed_from(seed);
        vec![
            Parameter::new(rng.randn([3, 4]), "w1"),
            Parameter::new(rng.randn([4]), "b1"),
            Parameter::new(rng.randn([2, 2, 2]), "w2"),
        ]
    }

    fn bits(params: &[Parameter]) -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn params_round_trip_bit_exact() {
        let src = params(1);
        // A quiet NaN with a payload, a signalling-pattern NaN, -0.0 and
        // an infinity must come back with their exact bit patterns.
        let mut data = src[1].value_cloned().to_vec();
        data[0] = f32::from_bits(0x7fc0_1234);
        data[1] = f32::from_bits(0xff80_0001);
        data[2] = -0.0;
        data[3] = f32::INFINITY;
        src[1].set_value(Tensor::from_vec(data, vec![4]));
        let dst = params(2); // different values, same shapes
        load_params(&save_params(&src), &dst).unwrap();
        assert_eq!(bits(&dst), bits(&src));
        assert_eq!(dst[1].value().as_slice()[2].to_bits(), 0x8000_0000);
    }

    #[test]
    fn empty_parameter_list_round_trips() {
        let bytes = save_params(&[]);
        load_params(&bytes, &[]).unwrap();
        assert!(load_lane(&bytes).unwrap().params.is_empty());
    }

    #[test]
    fn params_count_mismatch_leaves_model_untouched() {
        let bytes = save_params(&params(1));
        for dst in [params(2)[..1].to_vec(), [params(2), params(3)].concat()] {
            let before = bits(&dst);
            assert!(matches!(
                load_params(&bytes, &dst),
                Err(SnapshotError::Mismatch { .. })
            ));
            assert_eq!(bits(&dst), before, "load_params must be atomic");
        }
    }

    #[test]
    fn params_shape_mismatch_leaves_model_untouched() {
        let bytes = save_params(&params(1));
        let mut rng = Rng::seed_from(9);
        let wrong = vec![
            Parameter::new(rng.randn([3, 4]), "w1"),
            Parameter::new(rng.randn([5]), "b1"),
            Parameter::new(rng.randn([2, 2, 2]), "w2"),
        ];
        let before = bits(&wrong);
        match load_params(&bytes, &wrong) {
            Err(SnapshotError::Mismatch { detail }) => {
                assert!(detail.contains("b1"), "names the destination: {detail}")
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
        assert_eq!(bits(&wrong), before, "load_params must be atomic");
    }

    #[test]
    fn params_serialize_deterministically() {
        // Two separately built parameter sets with equal values give equal
        // bytes (no addresses, no hash-map order), equal to a lane
        // snapshot with no slots, step 0 and no context.
        let (a, b) = (params(4), params(4));
        assert_eq!(save_params(&a), save_params(&b));
        let lane = LaneState {
            params: a.iter().map(Parameter::value_cloned).collect(),
            opt_state: vec![vec![]; a.len()],
            step_count: 0,
            ctx: None,
        };
        assert_eq!(save_params(&a), save_lane(&lane));
    }
}
