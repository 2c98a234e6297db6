//! Deployment codecs: palettized (LUT + n-bit indices) and affine-quantized
//! tensors.
//!
//! Weight clustering compresses "into a lookup table and a list of
//! low-precision indices to the lookup table, which can be consumed by
//! modern inference accelerators" (Section 2 of the paper). The palette LUT
//! is stored at 16 bits/entry; indices are bit-packed. Embeddings are
//! compressed separately with 8-bit affine quantization (Section 3: "we
//! also compressed the embedding layers with 8 bits").

use edkm_tensor::{dtype, DType, Device, Tensor};

/// Pack `bits`-wide values into bytes, LSB-first.
///
/// # Panics
///
/// Panics if `bits` is 0 or > 16, or any value needs more than `bits` bits.
pub fn pack_bits(values: &[u32], bits: u8) -> Vec<u8> {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16");
    let mut out = Vec::with_capacity((values.len() * bits as usize).div_ceil(8));
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        assert!(v < (1u32 << bits), "value {v} does not fit in {bits} bits");
        acc |= v << nbits;
        nbits += bits as u32;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
    out
}

/// Inverse of [`pack_bits`].
pub fn unpack_bits(bytes: &[u8], bits: u8, n: usize) -> Vec<u32> {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16");
    let mut out = Vec::with_capacity(n);
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    let mut iter = bytes.iter();
    let mask = (1u32 << bits) - 1;
    while out.len() < n {
        while nbits < bits as u32 {
            acc |= (*iter.next().expect("not enough packed bytes") as u32) << nbits;
            nbits += 8;
        }
        out.push(acc & mask);
        acc >>= bits;
        nbits -= bits as u32;
    }
    out
}

/// A weight tensor compressed to a LUT and bit-packed indices.
#[derive(Debug, Clone)]
pub struct PalettizedTensor {
    lut: Vec<f32>,
    packed: Vec<u8>,
    bits: u8,
    k: usize,
    cluster_dim: usize,
    shape: Vec<usize>,
}

impl PalettizedTensor {
    /// Palettize `w` by nearest-centroid assignment against `centroids`
    /// (`[k, cluster_dim]`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or `k > 2^bits`.
    pub fn from_nearest(w: &Tensor, centroids: &Tensor, bits: u8, cluster_dim: usize) -> Self {
        assert_eq!(centroids.rank(), 2, "centroids must be [k, d]");
        assert_eq!(centroids.shape()[1], cluster_dim, "centroid dim mismatch");
        let k = centroids.shape()[0];
        assert!(k <= (1usize << bits), "{k} centroids exceed {bits} bits");
        let data = w.to_vec();
        assert_eq!(data.len() % cluster_dim, 0, "numel not divisible by dim");
        let lut = centroids.to_vec();
        let n = data.len() / cluster_dim;
        let mut indices = Vec::with_capacity(n);
        for i in 0..n {
            let row = &data[i * cluster_dim..(i + 1) * cluster_dim];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for j in 0..k {
                let c = &lut[j * cluster_dim..(j + 1) * cluster_dim];
                let d: f32 = row.iter().zip(c).map(|(&a, &b)| (a - b) * (a - b)).sum();
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            indices.push(best as u32);
        }
        let packed = pack_bits(&indices, bits);
        PalettizedTensor {
            lut,
            packed,
            bits,
            k,
            cluster_dim,
            shape: w.shape().to_vec(),
        }
    }

    /// Lossless palettization: the LUT is the sorted set of *distinct*
    /// values in `w` and every index resolves to the exact original bit
    /// pattern — the "u16 case" of 16-bit source weights, whose ≤ 2¹⁶
    /// distinct values always fit a 16-bit index. Decoding reproduces `w`
    /// bit for bit, which is what pins compressed serving against the dense
    /// model in the parity suite.
    ///
    /// # Panics
    ///
    /// Panics if `w` has more than 2¹⁶ distinct values (not 16-bit source
    /// data).
    pub fn lossless(w: &Tensor) -> Self {
        let data = w.to_vec();
        let mut distinct: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let k = distinct.len();
        assert!(
            k <= 1 << 16,
            "{k} distinct values exceed the 2^16-entry lossless palette"
        );
        let lut: Vec<f32> = distinct.iter().map(|&b| f32::from_bits(b)).collect();
        let indices: Vec<u32> = data
            .iter()
            .map(|v| distinct.binary_search(&v.to_bits()).expect("in LUT") as u32)
            .collect();
        let packed = pack_bits(&indices, 16);
        PalettizedTensor {
            lut,
            packed,
            bits: 16,
            k,
            cluster_dim: 1,
            shape: w.shape().to_vec(),
        }
    }

    /// Build a palettized tensor from an explicit LUT and *unpacked*
    /// indices, packing the indices at `bits` — a palette with chosen
    /// indices, as the kernel tests construct.
    ///
    /// # Panics
    ///
    /// Panics if the LUT is not `[k, cluster_dim]`-shaped for `k ≤ 2^bits`,
    /// an index is out of range, or `indices.len() · cluster_dim` disagrees
    /// with `shape`.
    pub fn from_lut_indices(
        lut: Vec<f32>,
        indices: &[u32],
        bits: u8,
        cluster_dim: usize,
        shape: Vec<usize>,
    ) -> Self {
        assert!(cluster_dim > 0, "cluster_dim must be positive");
        assert_eq!(lut.len() % cluster_dim, 0, "LUT must be [k, cluster_dim]");
        let k = lut.len() / cluster_dim;
        assert!(k <= (1usize << bits), "{k} centroids exceed {bits} bits");
        assert_eq!(
            indices.len() * cluster_dim,
            shape.iter().product::<usize>(),
            "indices must cover the shape"
        );
        assert!(
            indices.iter().all(|&i| (i as usize) < k),
            "index out of LUT range"
        );
        let packed = pack_bits(indices, bits);
        PalettizedTensor {
            lut,
            packed,
            bits,
            k,
            cluster_dim,
            shape,
        }
    }

    /// Palette bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of LUT entries.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Original tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Clustering dimensionality (scalars per LUT entry).
    pub fn cluster_dim(&self) -> usize {
        self.cluster_dim
    }

    /// Effective index bits per weight: `bits / cluster_dim` (LUT cost
    /// excluded, as the paper quotes "3 bit/weight").
    pub fn bits_per_weight(&self) -> f64 {
        f64::from(self.bits) / self.cluster_dim as f64
    }

    /// The lookup table, row-major `[k, cluster_dim]`.
    pub fn lut(&self) -> &[f32] {
        &self.lut
    }

    /// Unpacked hard assignments.
    pub fn indices(&self) -> Vec<u32> {
        let n = self.shape.iter().product::<usize>() / self.cluster_dim;
        unpack_bits(&self.packed, self.bits, n)
    }

    /// The bit-packed index stream, as serialized.
    pub(crate) fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Serialized size: packed indices + 16-bit LUT entries.
    pub fn size_bytes(&self) -> usize {
        self.packed.len() + self.lut.len() * 2
    }

    /// Huffman code of the index stream (extension: Deep Compression's
    /// final stage), for its entropy-coded size.
    pub fn entropy_coded(&self) -> crate::entropy::EntropyCoded {
        crate::entropy::EntropyCoded::encode(&self.indices(), self.k)
    }

    /// Serialized size with Huffman-coded indices instead of fixed-width
    /// packing: payload + code lengths + 16-bit LUT entries. At most
    /// marginally above [`Self::size_bytes`] (uniform assignments), often
    /// well below it (skewed assignments).
    pub fn entropy_size_bytes(&self) -> usize {
        self.entropy_coded().size_bytes() + self.lut.len() * 2
    }

    /// Decode back to a dense CPU tensor.
    pub fn decode(&self) -> Tensor {
        let idx = self.indices();
        let mut out = Vec::with_capacity(idx.len() * self.cluster_dim);
        for &i in &idx {
            let c = &self.lut[i as usize * self.cluster_dim..(i as usize + 1) * self.cluster_dim];
            out.extend_from_slice(c);
        }
        Tensor::from_vec(out, &self.shape, DType::F32, Device::Cpu)
    }
}

/// A weight matrix palettized with one LUT per group of consecutive rows
/// (CoreML's "per-grouped-channel" palettization granularity; the LUT
/// analogue of GPTQ's `g128` group size).
///
/// Projections whose output channels differ in scale lose accuracy under a
/// single whole-matrix palette; per-group LUTs localize the codebook at a
/// cost of `(rows / rows_per_group − 1)` extra LUTs.
#[derive(Debug, Clone)]
pub struct GroupedPalettized {
    groups: Vec<PalettizedTensor>,
    rows_per_group: usize,
    shape: Vec<usize>,
}

impl GroupedPalettized {
    /// Reassemble from parts (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if the group shapes do not tile `shape`'s rows.
    pub fn from_parts(
        groups: Vec<PalettizedTensor>,
        rows_per_group: usize,
        shape: Vec<usize>,
    ) -> Self {
        assert_eq!(shape.len(), 2, "grouped palettization is for matrices");
        let total_rows: usize = groups.iter().map(|g| g.shape()[0]).sum();
        assert_eq!(total_rows, shape[0], "groups must tile the rows");
        GroupedPalettized {
            groups,
            rows_per_group,
            shape,
        }
    }

    /// The per-group palettized slabs, in row order.
    pub fn groups(&self) -> &[PalettizedTensor] {
        &self.groups
    }

    /// Rows per group (the last group may be smaller).
    pub fn rows_per_group(&self) -> usize {
        self.rows_per_group
    }

    /// Original matrix shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Palette bit width (uniform across groups).
    pub fn bits(&self) -> u8 {
        self.groups[0].bits()
    }

    /// Serialized size: sum of the per-group palettes and indices.
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.size_bytes()).sum()
    }

    /// Serialized size with Huffman-coded per-group index streams.
    pub fn entropy_size_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.entropy_size_bytes()).sum()
    }

    /// Decode back to the dense matrix.
    pub fn decode(&self) -> Tensor {
        let cols = self.shape[1];
        let mut out = Vec::with_capacity(self.shape[0] * cols);
        for g in &self.groups {
            out.extend(g.decode().to_vec());
        }
        Tensor::from_vec(out, &self.shape, DType::F32, Device::Cpu)
    }
}

/// Per-row 8-bit (or fewer) affine quantization: `v ≈ scale·q + zero`.
#[derive(Debug, Clone)]
pub struct AffineQuantized {
    q: Vec<u8>,
    scales: Vec<f32>,
    zeros: Vec<f32>,
    bits: u8,
    rows: usize,
    cols: usize,
}

impl AffineQuantized {
    /// Quantize a 2-D tensor row-wise to `bits ≤ 8`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not 2-D or `bits` is 0 or > 8.
    pub fn encode(t: &Tensor, bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "affine bits must be 1..=8");
        assert_eq!(t.rank(), 2, "affine quantization expects [rows, cols]");
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let data = t.to_vec();
        let levels = ((1u32 << bits) - 1) as f32;
        let mut q = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut zeros = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let scale = if hi > lo { (hi - lo) / levels } else { 1.0 };
            scales.push(scale);
            zeros.push(lo);
            for &v in row {
                let code = ((v - lo) / scale).round().clamp(0.0, levels) as u8;
                q.push(code);
            }
        }
        AffineQuantized {
            q,
            scales,
            zeros,
            bits,
            rows,
            cols,
        }
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Serialized size: codes (packed at `bits`) + per-row scale/zero at 16
    /// bits each.
    pub fn size_bytes(&self) -> usize {
        (self.q.len() * self.bits as usize).div_ceil(8) + self.rows * 4
    }

    /// Decode a single row (identical math to [`AffineQuantized::decode`],
    /// without materializing the whole table — the embedding-lookup path of
    /// compressed serving).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn decode_row(&self, r: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.decode_row_into(r, &mut out);
        out
    }

    /// Decode row `r` into a caller-provided buffer — the allocation-free
    /// variant [`decode_row`](AffineQuantized::decode_row) wraps, used by
    /// the serving embed path so steady-state decode never allocates per
    /// token.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `out` is not `cols` long.
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        assert_eq!(out.len(), self.cols, "out must hold one row");
        let (s, z) = (self.scales[r], self.zeros[r]);
        for (o, &c) in out
            .iter_mut()
            .zip(&self.q[r * self.cols..(r + 1) * self.cols])
        {
            *o = s * c as f32 + z;
        }
    }

    /// Decode back to a dense CPU tensor.
    pub fn decode(&self) -> Tensor {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let (s, z) = (self.scales[r], self.zeros[r]);
            for c in 0..self.cols {
                out.push(s * self.q[r * self.cols + c] as f32 + z);
            }
        }
        Tensor::from_vec(out, &[self.rows, self.cols], DType::F32, Device::Cpu)
    }

    /// Worst-case absolute rounding error of row `r` (half a step).
    pub fn row_error_bound(&self, r: usize) -> f32 {
        self.scales[r] * 0.5
    }
}

/// Bytes of a tensor stored raw at 16 bits/element (the "native" format for
/// parts that are not compressed, e.g. norm gains).
pub fn native16_size_bytes(numel: usize) -> usize {
    let _ = dtype::f32_to_bf16(0.0); // anchor the dtype module as the authority
    numel * 2
}

// ---------------------------------------------------------------------
// Wire codecs (used by `crate::serialize`).
// ---------------------------------------------------------------------

use crate::serialize::{put_f32, put_u32, put_u64, DecodeError, Reader};

impl PalettizedTensor {
    /// Append the wire encoding to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.push(self.bits);
        put_u32(out, self.k as u32);
        put_u32(out, self.cluster_dim as u32);
        out.push(self.shape.len() as u8);
        for &d in &self.shape {
            put_u32(out, d as u32);
        }
        for &v in &self.lut {
            put_f32(out, v);
        }
        put_u64(out, self.packed.len() as u64);
        out.extend_from_slice(&self.packed);
    }

    /// Decode the wire encoding.
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bits = r.u8()?;
        let k = r.u32()? as usize;
        let cluster_dim = r.u32()? as usize;
        let rank = r.u8()? as usize;
        let shape: Vec<usize> = (0..rank)
            .map(|_| Ok(r.u32()? as usize))
            .collect::<Result<_, DecodeError>>()?;
        let lut: Vec<f32> = (0..k * cluster_dim)
            .map(|_| r.f32())
            .collect::<Result<_, DecodeError>>()?;
        let packed_len = r.u64()? as usize;
        let packed = r.bytes(packed_len)?;
        Ok(PalettizedTensor {
            lut,
            packed,
            bits,
            k,
            cluster_dim,
            shape,
        })
    }
}

impl AffineQuantized {
    /// Append the wire encoding to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.push(self.bits);
        put_u32(out, self.rows as u32);
        put_u32(out, self.cols as u32);
        out.extend_from_slice(&self.q);
        for &s in &self.scales {
            put_f32(out, s);
        }
        for &z in &self.zeros {
            put_f32(out, z);
        }
    }

    /// Decode the wire encoding.
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bits = r.u8()?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let q = r.bytes(rows * cols)?;
        let scales: Vec<f32> = (0..rows).map(|_| r.f32()).collect::<Result<_, _>>()?;
        let zeros: Vec<f32> = (0..rows).map(|_| r.f32()).collect::<Result<_, _>>()?;
        Ok(AffineQuantized {
            q,
            scales,
            zeros,
            bits,
            rows,
            cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_3bit_known() {
        let vals = vec![0u32, 1, 2, 3, 4, 5, 6, 7];
        let packed = pack_bits(&vals, 3);
        assert_eq!(packed.len(), 3); // 24 bits
        assert_eq!(unpack_bits(&packed, 3, 8), vals);
    }

    #[test]
    fn pack_handles_partial_final_byte() {
        let vals = vec![1u32, 1, 1];
        let packed = pack_bits(&vals, 3); // 9 bits -> 2 bytes
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack_bits(&packed, 3, 3), vals);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_values() {
        pack_bits(&[8], 3);
    }

    #[test]
    fn palettize_roundtrip_values_come_from_lut() {
        runtime::reset();
        let w = Tensor::randn(&[16, 8], DType::F32, Device::Cpu, 0);
        let c = Tensor::from_vec(vec![-0.5, 0.0, 0.5, 1.0], &[4, 1], DType::F32, Device::Cpu);
        let p = PalettizedTensor::from_nearest(&w, &c, 2, 1);
        assert_eq!(p.bits(), 2);
        assert_eq!(p.k(), 4);
        assert_eq!(p.shape(), &[16, 8]);
        let d = p.decode();
        assert_eq!(d.shape(), &[16, 8]);
        for v in d.to_vec() {
            assert!(
                [-0.5, 0.0, 0.5, 1.0].contains(&v),
                "decoded value {v} not in LUT"
            );
        }
    }

    #[test]
    fn palettize_picks_nearest() {
        runtime::reset();
        let w = Tensor::from_vec(vec![0.1, 0.9, -0.6], &[3], DType::F32, Device::Cpu);
        let c = Tensor::from_vec(vec![-0.5, 0.0, 1.0], &[3, 1], DType::F32, Device::Cpu);
        let p = PalettizedTensor::from_nearest(&w, &c, 2, 1);
        assert_eq!(p.decode().to_vec(), vec![0.0, 1.0, -0.5]);
        assert_eq!(p.indices(), vec![1, 2, 0]);
    }

    #[test]
    fn size_formula_3bit() {
        runtime::reset();
        let w = Tensor::randn(&[64, 64], DType::F32, Device::Cpu, 1);
        let c = Tensor::zeros(&[8, 1], DType::F32, Device::Cpu);
        let p = PalettizedTensor::from_nearest(&w, &c, 3, 1);
        // 4096 indices × 3 bits = 1536 bytes; LUT 8 × 2 bytes.
        assert_eq!(p.size_bytes(), 1536 + 16);
        // ~5.3x smaller than bf16.
        let ratio = (4096.0 * 2.0) / p.size_bytes() as f64;
        assert!(ratio > 5.0, "3-bit ratio {ratio}");
    }

    #[test]
    fn grouped_palettize_beats_single_lut_on_scale_outlier_rows() {
        use crate::dkm::{DkmConfig, DkmLayer};
        runtime::reset();
        // Rows at two very different scales: a single 8-entry LUT has to
        // cover both ranges, per-group LUTs localize.
        let mut data = Vec::new();
        for r in 0..16 {
            let scale = if r < 8 { 1.0 } else { 0.01 };
            for c in 0..32 {
                data.push(scale * ((r * 32 + c) as f32 * 0.173).sin());
            }
        }
        let w = Tensor::from_vec(data.clone(), &[16, 32], DType::F32, Device::Cpu);
        let dkm = DkmLayer::new(DkmConfig::with_bits(3));
        // Error on the small-scale rows (the back half), where a shared
        // palette starves the codebook.
        let small_mse = |t: &Tensor| -> f32 {
            data[8 * 32..]
                .iter()
                .zip(&t.to_vec()[8 * 32..])
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        let single_small = small_mse(&dkm.palettize(&w).decode());
        let grouped = dkm.palettize_grouped(&w, 8);
        assert_eq!(grouped.groups().len(), 2);
        let dec = grouped.decode();
        let grouped_small = small_mse(&dec);
        assert!(
            grouped_small < single_small / 4.0,
            "per-group LUTs must rescue the small rows: {grouped_small} vs {single_small}"
        );
        // And overall the grouped form is no worse.
        let total = |t: &Tensor| -> f32 {
            data.iter()
                .zip(t.to_vec())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        assert!(total(&dec) <= total(&dkm.palettize(&w).decode()));
        // Cost: one extra LUT (8 entries × 2 B).
        assert_eq!(grouped.size_bytes(), dkm.palettize(&w).size_bytes() + 8 * 2);
    }

    #[test]
    fn grouped_palettize_handles_ragged_last_group() {
        use crate::dkm::{DkmConfig, DkmLayer};
        runtime::reset();
        let w = Tensor::randn(&[10, 4], DType::F32, Device::Cpu, 11);
        let g = DkmLayer::new(DkmConfig::with_bits(2)).palettize_grouped(&w, 4);
        assert_eq!(g.groups().len(), 3); // 4 + 4 + 2 rows
        assert_eq!(g.groups()[2].shape(), &[2, 4]);
        assert_eq!(g.decode().shape(), &[10, 4]);
        assert_eq!(g.rows_per_group(), 4);
        assert_eq!(g.bits(), 2);
    }

    #[test]
    fn grouped_with_zero_rows_equals_whole_matrix() {
        use crate::dkm::{DkmConfig, DkmLayer};
        runtime::reset();
        let w = Tensor::randn(&[8, 8], DType::F32, Device::Cpu, 12);
        let dkm = DkmLayer::new(DkmConfig::with_bits(3));
        let single = dkm.palettize(&w);
        let grouped = dkm.palettize_grouped(&w, 0);
        assert_eq!(grouped.groups().len(), 1);
        assert_eq!(grouped.decode().to_vec(), single.decode().to_vec());
        assert_eq!(grouped.size_bytes(), single.size_bytes());
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn grouped_from_parts_validates_tiling() {
        runtime::reset();
        let w = Tensor::randn(&[4, 4], DType::F32, Device::Cpu, 13);
        let c = Tensor::zeros(&[4, 1], DType::F32, Device::Cpu);
        let p = PalettizedTensor::from_nearest(&w, &c, 2, 1);
        GroupedPalettized::from_parts(vec![p], 4, vec![8, 4]); // 4 rows != 8
    }

    #[test]
    fn lossless_palette_decodes_bit_exactly() {
        runtime::reset();
        // bf16 source data: ≤ 2^16 distinct values by construction.
        let w = Tensor::randn(&[24, 16], DType::Bf16, Device::Cpu, 31);
        let p = PalettizedTensor::lossless(&w);
        assert_eq!(p.bits(), 16);
        assert!(p.k() <= 24 * 16);
        assert_eq!(
            p.decode().to_vec(),
            w.to_vec(),
            "lossless palette must reproduce every bit"
        );
        // Round-trips through the wire format exactly (f32 LUT entries).
        let mut buf = Vec::new();
        p.write_to(&mut buf);
        let back = PalettizedTensor::read_from(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.decode().to_vec(), w.to_vec());
        assert_eq!(back.k(), p.k());
    }

    #[test]
    fn affine_decode_row_matches_full_decode() {
        runtime::reset();
        let t = Tensor::randn(&[6, 10], DType::F32, Device::Cpu, 8);
        let q = AffineQuantized::encode(&t, 8);
        let full = q.decode().to_vec();
        for r in 0..6 {
            assert_eq!(q.decode_row(r), &full[r * 10..(r + 1) * 10]);
        }
        assert_eq!(q.rows(), 6);
        assert_eq!(q.cols(), 10);
    }

    #[test]
    fn affine_roundtrip_error_bound() {
        runtime::reset();
        let t = Tensor::randn(&[8, 32], DType::F32, Device::Cpu, 2);
        let q = AffineQuantized::encode(&t, 8);
        let d = q.decode();
        let orig = t.to_vec();
        let dec = d.to_vec();
        for r in 0..8 {
            let bound = q.row_error_bound(r) + 1e-6;
            for c in 0..32 {
                let err = (orig[r * 32 + c] - dec[r * 32 + c]).abs();
                assert!(err <= bound, "row {r}: err {err} > bound {bound}");
            }
        }
        assert_eq!(q.bits(), 8);
    }

    #[test]
    fn affine_8bit_size() {
        runtime::reset();
        let t = Tensor::randn(&[10, 100], DType::F32, Device::Cpu, 3);
        let q = AffineQuantized::encode(&t, 8);
        assert_eq!(q.size_bytes(), 1000 + 40);
    }

    #[test]
    fn affine_constant_row_is_exact() {
        runtime::reset();
        let t = Tensor::full(3.25, &[2, 16], DType::F32, Device::Cpu);
        let q = AffineQuantized::encode(&t, 8);
        assert_eq!(q.decode().to_vec(), vec![3.25; 32]);
    }

    #[test]
    fn native16_size() {
        assert_eq!(native16_size_bytes(100), 200);
    }

    proptest! {
        /// pack/unpack round-trips for every width 1..=16.
        #[test]
        fn prop_pack_roundtrip(bits in 1u8..=16, n in 0usize..200, seed in any::<u64>()) {
            let mask = (1u32 << bits) - 1;
            let vals: Vec<u32> = (0..n)
                .map(|i| {
                    let mixed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                    ((mixed >> 33) as u32) & mask
                })
                .collect();
            let packed = pack_bits(&vals, bits);
            prop_assert_eq!(unpack_bits(&packed, bits, n), vals);
            prop_assert_eq!(packed.len(), (n * bits as usize).div_ceil(8));
        }

        /// Palettized decode only produces LUT values and never increases size.
        #[test]
        fn prop_palettize_closed_under_lut(n in 1usize..100, seed in any::<u64>()) {
            runtime::reset();
            let w = Tensor::randn(&[n], DType::F32, Device::Cpu, seed);
            let c = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4, 1], DType::F32, Device::Cpu);
            let p = PalettizedTensor::from_nearest(&w, &c, 2, 1);
            let lut = [-1.0f32, 0.0, 1.0, 2.0];
            for v in p.decode().to_vec() {
                prop_assert!(lut.contains(&v));
            }
            prop_assert!(p.size_bytes() <= n.div_ceil(4) + 8 + 1);
        }

        /// Affine quantization error stays within half a step everywhere.
        #[test]
        fn prop_affine_error_bound(rows in 1usize..6, cols in 2usize..40, seed in any::<u64>(), bits in 2u8..=8) {
            runtime::reset();
            let t = Tensor::randn(&[rows, cols], DType::F32, Device::Cpu, seed);
            let q = AffineQuantized::encode(&t, bits);
            let dec = q.decode().to_vec();
            let orig = t.to_vec();
            for r in 0..rows {
                let bound = q.row_error_bound(r) + 1e-5;
                for c in 0..cols {
                    prop_assert!((orig[r * cols + c] - dec[r * cols + c]).abs() <= bound);
                }
            }
        }
    }
}
