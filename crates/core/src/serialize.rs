//! Binary serialization of compressed models — the artifact that actually
//! ships to a device (the paper's "2.5 GB" number is a file size).
//!
//! The format is a simple little-endian tagged container:
//!
//! ```text
//! magic "EDKM" | u16 version | u32 n_entries
//! entry := u16 name_len | name | u8 tag | payload
//!   tag 0 (palettized): u8 bits | u32 k | u32 dim | shape | lut f32s | u64 packed_len | packed
//!   tag 1 (affine):     u8 bits | u32 rows | u32 cols | codes | scales | zeros
//!   tag 2 (native16):   shape | u16 bf16 bit patterns
//!   tag 3 (grouped):    u32 rows_per_group | shape | u32 n_groups | groups
//! shape := u8 rank | u32 dims…
//! trailer := u64 FNV-1a of every preceding byte (v2)
//! ```
//!
//! The v2 trailer makes corruption detection total: a truncated or
//! bit-flipped buffer fails the checksum *before* any entry is parsed, so
//! decoding returns a typed [`DecodeError`] on arbitrary corruption — never
//! a panic and never a silently misread model.

use crate::palettize::{AffineQuantized, GroupedPalettized, PalettizedTensor};
use crate::pipeline::{CompressedModel, CompressedTensor};
use edkm_tensor::dtype;

const MAGIC: &[u8; 4] = b"EDKM";
const VERSION: u16 = 2;

/// 64-bit FNV-1a over `data` (the container's integrity trailer).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Error decoding a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Truncated or malformed payload.
    Truncated,
    /// Unknown entry tag.
    BadTag(u8),
    /// The integrity trailer does not match the payload (bit corruption).
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an eDKM model file"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "unexpected end of data"),
            DecodeError::BadTag(t) => write!(f, "unknown entry tag {t}"),
            DecodeError::BadChecksum => write!(f, "integrity checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Little-endian wire helpers.
// ---------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn put_shape(out: &mut Vec<u8>, shape: &[usize]) {
    out.push(shape.len() as u8);
    for &d in shape {
        put_u32(out, d as u32);
    }
}

fn read_shape(r: &mut Reader<'_>) -> Result<Vec<usize>, DecodeError> {
    let rank = r.u8()? as usize;
    (0..rank).map(|_| Ok(r.u32()? as usize)).collect()
}

// ---------------------------------------------------------------------
// Model container.
// ---------------------------------------------------------------------

impl CompressedModel {
    /// Serialize to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, VERSION);
        put_u32(&mut out, self.entries().len() as u32);
        for (name, entry) in self.entries() {
            put_u16(&mut out, name.len() as u16);
            out.extend_from_slice(name.as_bytes());
            match entry {
                CompressedTensor::Palettized(p) => {
                    out.push(0);
                    p.write_to(&mut out);
                }
                CompressedTensor::Affine(a) => {
                    out.push(1);
                    a.write_to(&mut out);
                }
                CompressedTensor::Native { values, shape } => {
                    out.push(2);
                    put_shape(&mut out, shape);
                    for &v in values {
                        put_u16(&mut out, dtype::f32_to_bf16(v));
                    }
                }
                CompressedTensor::PalettizedGrouped(g) => {
                    out.push(3);
                    put_u32(&mut out, g.rows_per_group() as u32);
                    put_shape(&mut out, g.shape());
                    put_u32(&mut out, g.groups().len() as u32);
                    for grp in g.groups() {
                        grp.write_to(&mut out);
                    }
                }
            }
        }
        let trailer = fnv1a(&out);
        put_u64(&mut out, trailer);
        out
    }

    /// Decode from the on-disk byte format.
    ///
    /// # Errors
    ///
    /// Returns a `DecodeError` on malformed input: any truncation or bit
    /// flip fails the integrity trailer (checked before entries are parsed)
    /// or one of the structural checks — decoding never panics.
    pub fn from_bytes(data: &[u8]) -> Result<CompressedModel, DecodeError> {
        let mut r = Reader::new(data);
        if r.bytes(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        // Verify the integrity trailer before trusting any length field.
        if data.len() < 4 + 2 + 8 {
            return Err(DecodeError::Truncated);
        }
        let payload_end = data.len() - 8;
        let stored = u64::from_le_bytes(data[payload_end..].try_into().expect("8 bytes"));
        if fnv1a(&data[..payload_end]) != stored {
            return Err(DecodeError::BadChecksum);
        }
        let mut r = Reader::new(&data[..payload_end]);
        let _ = r.bytes(4 + 2); // past magic + version, already checked
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name_len = r.u16()? as usize;
            let name = String::from_utf8(r.bytes(name_len)?).map_err(|_| DecodeError::Truncated)?;
            let tag = r.u8()?;
            let entry = match tag {
                0 => CompressedTensor::Palettized(PalettizedTensor::read_from(&mut r)?),
                1 => CompressedTensor::Affine(AffineQuantized::read_from(&mut r)?),
                2 => {
                    let shape = read_shape(&mut r)?;
                    let numel: usize = shape.iter().product();
                    let values = (0..numel)
                        .map(|_| Ok(dtype::bf16_to_f32(r.u16()?)))
                        .collect::<Result<Vec<f32>, DecodeError>>()?;
                    CompressedTensor::Native { values, shape }
                }
                3 => {
                    let rows_per_group = r.u32()? as usize;
                    let shape = read_shape(&mut r)?;
                    let n_groups = r.u32()? as usize;
                    let groups = (0..n_groups)
                        .map(|_| PalettizedTensor::read_from(&mut r))
                        .collect::<Result<Vec<_>, _>>()?;
                    if shape.len() != 2
                        || groups.iter().map(|g| g.shape()[0]).sum::<usize>() != shape[0]
                    {
                        return Err(DecodeError::Truncated);
                    }
                    CompressedTensor::PalettizedGrouped(GroupedPalettized::from_parts(
                        groups,
                        rows_per_group,
                        shape,
                    ))
                }
                t => return Err(DecodeError::BadTag(t)),
            };
            entries.push((name, entry));
        }
        if !r.is_done() {
            return Err(DecodeError::Truncated); // trailing garbage
        }
        Ok(CompressedModel::from_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompressSpec, CompressionPipeline};
    use edkm_nn::{LlamaConfig, LlamaModel};
    use edkm_tensor::{runtime, DType, Device};

    fn model_and_compressed() -> (LlamaModel, CompressedModel) {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
        let pipeline = CompressionPipeline::new(CompressSpec::with_bits(3));
        let compressed = pipeline.export(&model);
        (model, compressed)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (_m, compressed) = model_and_compressed();
        let bytes = compressed.to_bytes();
        let back = CompressedModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.entries().len(), compressed.entries().len());
        for ((n1, e1), (n2, e2)) in compressed.entries().iter().zip(back.entries()) {
            assert_eq!(n1, n2);
            assert_eq!(e1.decode_values(), e2.decode_values(), "entry {n1}");
            assert_eq!(e1.size_bytes(), e2.size_bytes());
        }
    }

    #[test]
    fn file_size_tracks_size_bytes() {
        let (_m, compressed) = model_and_compressed();
        let bytes = compressed.to_bytes();
        let logical = compressed.size_bytes();
        // Physical file = logical payload + bounded header/metadata overhead
        // (palette LUTs are stored at f32 on disk for exactness; size_bytes
        // accounts them at 16 bits as an accelerator would pack them).
        assert!(bytes.len() >= logical);
        assert!(
            bytes.len() < logical * 2 + 4096,
            "file {} vs logical {}",
            bytes.len(),
            logical
        );
    }

    #[test]
    fn decoded_file_restores_a_model() {
        let (model, compressed) = model_and_compressed();
        let bytes = compressed.to_bytes();
        let back = CompressedModel::from_bytes(&bytes).unwrap();
        let target = LlamaModel::new(*model.config(), model.dtype(), model.device(), 5);
        back.apply_to(&target);
        // Spot-check: projections carry at most 8 distinct values.
        let w = target.layers()[0].projections()[0]
            .weight()
            .value()
            .to_vec();
        let uniq: std::collections::HashSet<u32> = w.iter().map(|v| v.to_bits()).collect();
        assert!(uniq.len() <= 8);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            CompressedModel::from_bytes(b"NOPE\x01\x00").err(),
            Some(DecodeError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut data = b"EDKM".to_vec();
        put_u16(&mut data, 99);
        put_u32(&mut data, 0);
        assert_eq!(
            CompressedModel::from_bytes(&data).err(),
            Some(DecodeError::BadVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let (_m, compressed) = model_and_compressed();
        let bytes = compressed.to_bytes();
        // Chop at several points; every prefix must fail cleanly.
        for cut in [3usize, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let r = CompressedModel::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
        // Trailing garbage shifts the trailer: checksum mismatch.
        let mut padded = bytes.clone();
        padded.push(0xFF);
        assert_eq!(
            CompressedModel::from_bytes(&padded).err(),
            Some(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn rejects_any_single_bit_flip() {
        let (_m, compressed) = model_and_compressed();
        let bytes = compressed.to_bytes();
        // Flip one bit at a spread of positions, covering the header, the
        // entry payloads and the trailer itself; every flip must surface as
        // a typed error (magic/version damage included), never a panic or a
        // silent misread.
        let stride = (bytes.len() / 97).max(1);
        for byte_idx in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[byte_idx] ^= 1 << (byte_idx % 8);
            assert!(
                CompressedModel::from_bytes(&bad).is_err(),
                "bit flip at byte {byte_idx} must be detected"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::BadMagic.to_string().contains("eDKM"));
        assert!(DecodeError::BadVersion(7).to_string().contains('7'));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
        assert!(DecodeError::Truncated.to_string().contains("end"));
        assert!(DecodeError::BadChecksum.to_string().contains("checksum"));
    }
}
