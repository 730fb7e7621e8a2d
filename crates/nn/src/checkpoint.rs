//! Parameter checkpointing: serialize a model's parameters to bytes and
//! restore them, preserving order and shapes.
//!
//! The format is a simple self-describing little-endian layout:
//! `magic "HFTA" | version u32 | count u32 | per parameter:
//! (name_len u32, name utf-8, rank u32, dims u32..., data f32...)`.
//! Combined with `hfta-core`'s `copy_model_weights`, this lets one member
//! of a fused array be checkpointed exactly as a standalone job would be.

use std::fmt;

use hfta_tensor::Tensor;

use crate::parameter::Parameter;

const MAGIC: &[u8; 4] = b"HFTA";
const VERSION: u32 = 1;

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the checkpoint magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The stream ended before the declared contents.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// Bytes were left over after the last declared parameter.
    TrailingBytes,
    /// The checkpoint's parameters do not match the destination model.
    Mismatch {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an HFTA checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::BadName => write!(f, "checkpoint contains an invalid name"),
            CheckpointError::TrailingBytes => write!(f, "checkpoint has trailing bytes"),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match the model: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes parameters (values only) into a checkpoint byte buffer.
pub fn save(params: &[Parameter]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let name = p.name();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let v = p.value_cloned();
        out.extend_from_slice(&(v.rank() as u32).to_le_bytes());
        for &d in v.dims() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for x in v.as_slice() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a count of further items of at least `min_bytes` each, and
    /// rejects one the remaining bytes cannot hold before anything is
    /// reserved for it: a file's header is not trusted to size an
    /// allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.bytes.len() - self.pos => Ok(n),
            _ => Err(CheckpointError::Truncated),
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Decodes a checkpoint into `(name, tensor)` pairs.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on any malformed input; the whole buffer
/// must be consumed (no trailing bytes), so a torn or concatenated file is
/// rejected rather than half-read.
pub fn decode(bytes: &[u8]) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    // Every parameter holds at least its name length and its rank.
    let count = r.count(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = r.count(1)?;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| CheckpointError::BadName)?
            .to_string();
        let rank = r.count(4)?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.u32()? as usize);
        }
        let byte_len = dims
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CheckpointError::Truncated)?;
        let data: Vec<f32> = r
            .take(byte_len)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        out.push((name, Tensor::from_vec(data, dims)));
    }
    if r.pos != bytes.len() {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(out)
}

/// Restores parameter values from a checkpoint, in order. Names are
/// advisory (checkpoints from `save` restore into the same architecture);
/// shapes must match exactly.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] if counts or shapes disagree, and
/// decoding errors otherwise. On error, no parameter is modified.
pub fn load(bytes: &[u8], params: &[Parameter]) -> Result<(), CheckpointError> {
    let decoded = decode(bytes)?;
    if decoded.len() != params.len() {
        return Err(CheckpointError::Mismatch {
            detail: format!(
                "checkpoint has {} parameters, model has {}",
                decoded.len(),
                params.len()
            ),
        });
    }
    for ((name, tensor), p) in decoded.iter().zip(params) {
        if tensor.dims() != p.value().dims() {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "parameter {name}: checkpoint shape {:?} vs model {:?}",
                    tensor.dims(),
                    p.value().dims()
                ),
            });
        }
    }
    for ((_, tensor), p) in decoded.into_iter().zip(params) {
        p.set_value(tensor);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_tensor::Rng;

    fn params() -> Vec<Parameter> {
        let mut rng = Rng::seed_from(1);
        vec![
            Parameter::new(rng.randn([3, 4]), "w1"),
            Parameter::new(rng.randn([4]), "b1"),
            Parameter::new(rng.randn([2, 2, 2]), "w2"),
        ]
    }

    #[test]
    fn save_load_round_trip() {
        let src = params();
        let bytes = save(&src);
        let dst = params(); // different random values, same shapes
        load(&bytes, &dst).unwrap();
        for (a, b) in src.iter().zip(&dst) {
            assert_eq!(a.value_cloned(), b.value_cloned());
        }
    }

    #[test]
    fn decode_reports_names_and_shapes() {
        let src = params();
        let decoded = decode(&save(&src)).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].0, "w1");
        assert_eq!(decoded[2].1.dims(), &[2, 2, 2]);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(decode(b"nope"), Err(CheckpointError::BadMagic));
        let mut bytes = save(&params());
        bytes.truncate(bytes.len() - 3);
        assert_eq!(decode(&bytes), Err(CheckpointError::Truncated));
        // Corrupt the version field.
        let mut bad = save(&params());
        bad[4] = 99;
        assert!(matches!(decode(&bad), Err(CheckpointError::BadVersion(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let one = save(&params());
        let concatenated = [one.clone(), save(&params()[..1])].concat();
        assert_eq!(decode(&concatenated), Err(CheckpointError::TrailingBytes));
        let mut extra = one;
        extra.push(0);
        assert_eq!(decode(&extra), Err(CheckpointError::TrailingBytes));
        assert_eq!(load(&extra, &params()), Err(CheckpointError::TrailingBytes));
    }

    #[test]
    fn corrupt_headers_are_truncation_errors_not_aborts() {
        let header = |count: u32| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&VERSION.to_le_bytes());
            b.extend_from_slice(&count.to_le_bytes());
            b
        };
        let words = |b: &mut Vec<u8>, ws: &[u32]| {
            ws.iter()
                .for_each(|w| b.extend_from_slice(&w.to_le_bytes()));
        };
        // A count the file cannot hold must not size a reservation.
        let huge_count = header(u32::MAX);
        // One unnamed parameter whose element count wraps to zero.
        let mut wrapping_dims = header(1);
        words(&mut wrapping_dims, &[0, 4, 65536, 65536, 65536, 65536]);
        let mut huge_rank = header(1);
        words(&mut huge_rank, &[0, u32::MAX]);
        let mut huge_name = header(1);
        words(&mut huge_name, &[u32::MAX]);
        for (what, bytes) in [
            ("count = u32::MAX", &huge_count),
            ("dims [65536; 4], no data", &wrapping_dims),
            ("rank = u32::MAX", &huge_rank),
            ("name_len = u32::MAX", &huge_name),
        ] {
            assert_eq!(decode(bytes), Err(CheckpointError::Truncated), "{what}");
        }
        let valid = save(&params());
        for len in 0..valid.len() {
            assert!(decode(&valid[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn shape_mismatch_leaves_model_untouched() {
        let src = params();
        let bytes = save(&src);
        let mut rng = Rng::seed_from(9);
        let wrong = vec![
            Parameter::new(rng.randn([3, 4]), "w1"),
            Parameter::new(rng.randn([5]), "b1"), // wrong shape
            Parameter::new(rng.randn([2, 2, 2]), "w2"),
        ];
        let before: Vec<_> = wrong.iter().map(|p| p.value_cloned()).collect();
        assert!(matches!(
            load(&bytes, &wrong),
            Err(CheckpointError::Mismatch { .. })
        ));
        for (b, p) in before.iter().zip(&wrong) {
            assert_eq!(*b, p.value_cloned(), "load must be atomic");
        }
    }

    #[test]
    fn count_mismatch_rejected() {
        let bytes = save(&params());
        let fewer = vec![Parameter::new(Tensor::zeros([3, 4]), "w1")];
        assert!(matches!(
            load(&bytes, &fewer),
            Err(CheckpointError::Mismatch { .. })
        ));
    }

    #[test]
    fn empty_parameter_list_round_trips() {
        let bytes = save(&[]);
        load(&bytes, &[]).unwrap();
        assert!(decode(&bytes).unwrap().is_empty());
    }
}
