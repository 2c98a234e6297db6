//! The `Tensor` type: a dtype-tagged strided view over a device storage.

use crate::layout::Layout;
use crate::provenance::{InvariantOp, TensorMeta};
use crate::storage::{Storage, StorageId};
use crate::{runtime, DType, Device, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Unique id of a tensor object (not its storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub u64);

/// An n-dimensional tensor on a simulated device.
///
/// `Tensor` is a cheap handle: cloning shares the storage. View operations
/// ([`Tensor::reshape`], [`Tensor::transpose`], [`Tensor::slice`]) share
/// storage and record [`crate::Provenance`] so the eDKM marshaling layer can
/// later walk the forward graph, exactly as described in Section 2.1 of the
/// paper.
///
/// # Example
///
/// ```
/// use edkm_tensor::{Tensor, DType, Device};
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2], DType::F32, Device::Cpu);
/// let tt = t.transpose(0, 1);
/// assert_eq!(tt.to_vec(), vec![1.0, 3.0, 2.0, 4.0]);
/// assert_eq!(t.storage_id(), tt.storage_id()); // views share storage
/// ```
#[derive(Clone)]
pub struct Tensor {
    storage: Arc<Storage>,
    layout: Layout,
    dtype: DType,
    meta: Arc<TensorMeta>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Build a tensor from row-major `data`.
    ///
    /// Values are rounded to `dtype` (bit-exact for 16-bit dtypes).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(mut data: Vec<f32>, shape: &[usize], dtype: DType, device: Device) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} != shape {:?}",
            data.len(),
            shape
        );
        if dtype.is_16bit() {
            for v in &mut data {
                *v = dtype.round(*v);
            }
        }
        Self::from_vec_unrounded(data, shape, dtype, device)
    }

    /// Internal: build without rounding (caller guarantees values are already
    /// representable in `dtype`).
    pub(crate) fn from_vec_unrounded(
        data: Vec<f32>,
        shape: &[usize],
        dtype: DType,
        device: Device,
    ) -> Self {
        let storage = Storage::new(data, device, dtype, runtime::pool(device));
        let layout = Layout::contiguous(shape);
        let meta = TensorMeta::root(storage.id(), layout.clone());
        Tensor {
            layout,
            storage,
            dtype,
            meta,
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize], dtype: DType, device: Device) -> Self {
        Self::from_vec_unrounded(vec![0.0; shape.iter().product()], shape, dtype, device)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize], dtype: DType, device: Device) -> Self {
        Self::full(1.0, shape, dtype, device)
    }

    /// Tensor filled with `value` (rounded to `dtype`).
    pub fn full(value: f32, shape: &[usize], dtype: DType, device: Device) -> Self {
        let v = dtype.round(value);
        Self::from_vec_unrounded(vec![v; shape.iter().product()], shape, dtype, device)
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32, dtype: DType, device: Device) -> Self {
        Self::from_vec(vec![value], &[], dtype, device)
    }

    /// `[0, 1, ..., n-1]` as f32 values.
    pub fn arange(n: usize, dtype: DType, device: Device) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n], dtype, device)
    }

    /// Uniform samples in `[0, 1)`, seeded.
    pub fn rand(shape: &[usize], dtype: DType, device: Device, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen::<f32>())
            .collect();
        Self::from_vec(data, shape, dtype, device)
    }

    /// Uniform samples in `[lo, hi)`, seeded.
    pub fn uniform(
        shape: &[usize],
        lo: f32,
        hi: f32,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.iter().product::<usize>())
            .map(|_| lo + (hi - lo) * rng.gen::<f32>())
            .collect();
        Self::from_vec(data, shape, dtype, device)
    }

    /// Standard-normal samples (Box–Muller), seeded.
    pub fn randn(shape: &[usize], dtype: DType, device: Device, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.iter().product::<usize>();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen::<f32>().max(1e-12);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f32::consts::PI * u2).sin_cos();
            data.push(r * c);
            if data.len() < n {
                data.push(r * s);
            }
        }
        Self::from_vec(data, shape, dtype, device)
    }

    /// Decode 16-bit patterns into a tensor of `dtype`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Not16Bit`] if `dtype` is [`DType::F32`], or
    /// [`TensorError::ShapeMismatch`] if `bits.len()` does not match `shape`.
    pub fn from_bits16(
        bits: &[u16],
        shape: &[usize],
        dtype: DType,
        device: Device,
    ) -> Result<Self, TensorError> {
        if !dtype.is_16bit() {
            return Err(TensorError::Not16Bit { actual: dtype });
        }
        let numel: usize = shape.iter().product();
        if bits.len() != numel {
            return Err(TensorError::ShapeMismatch {
                from: bits.len(),
                to: numel,
            });
        }
        let data = bits
            .iter()
            .map(|&b| dtype.decode16(b).expect("dtype checked 16-bit"))
            .collect();
        Ok(Self::from_vec_unrounded(data, shape, dtype, device))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Logical shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.layout.shape()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.layout.rank()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.layout.numel()
    }

    /// Element dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Device the storage lives on.
    #[inline]
    pub fn device(&self) -> Device {
        self.storage.device()
    }

    /// The underlying storage.
    #[inline]
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Identity of the underlying storage (views share it).
    #[inline]
    pub fn storage_id(&self) -> StorageId {
        self.storage.id()
    }

    /// Unique id of this tensor object.
    #[inline]
    pub fn uid(&self) -> TensorId {
        TensorId(self.meta.uid)
    }

    /// Provenance metadata (for the marshaling graph walk).
    #[inline]
    pub fn meta(&self) -> &Arc<TensorMeta> {
        &self.meta
    }

    /// The strided layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// `true` if the view is row-major contiguous.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.layout.is_contiguous()
    }

    /// Bytes this tensor's *view* occupies logically (`numel × dtype size`).
    #[inline]
    pub fn view_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    /// Run `f` over the elements in row-major logical order.
    ///
    /// Contiguous tensors pass a zero-copy slice; strided views gather first.
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        if self.is_contiguous() {
            let off = self.layout.offset();
            let n = self.numel();
            self.storage.with_data(|d| f(&d[off..off + n]))
        } else {
            let v = self.gather();
            f(&v)
        }
    }

    /// Copy the elements out in row-major logical order.
    pub fn to_vec(&self) -> Vec<f32> {
        if self.is_contiguous() {
            let off = self.layout.offset();
            let n = self.numel();
            self.storage.with_data(|d| d[off..off + n].to_vec())
        } else {
            self.gather()
        }
    }

    fn gather(&self) -> Vec<f32> {
        self.storage.with_data(|d| match self.layout.as_matrix() {
            // Rank 1 or 2 (transposed, sliced or broadcast): row by row.
            Some(m) if m.cols > 0 => {
                let mut out = Vec::with_capacity(m.rows * m.cols);
                for i in 0..m.rows {
                    let row = m.at(i, 0);
                    if m.col_stride == 1 {
                        out.extend_from_slice(&d[row..row + m.cols]);
                    } else {
                        out.extend((0..m.cols).map(|j| d[row + j * m.col_stride]));
                    }
                }
                out
            }
            _ => self.layout.iter_offsets().map(|o| d[o]).collect(),
        })
    }

    /// Element at a logical index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        let flat = self.layout.index(idx);
        self.storage.with_data(|d| d[flat])
    }

    /// Value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if `numel() != 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.storage
            .with_data(|d| d[self.layout.iter_offsets().next().unwrap()])
    }

    /// Mutate elements in place through `f` (applied in storage order over
    /// this view), re-rounding to the tensor dtype afterwards.
    ///
    /// The mutation is visible through all views sharing the storage.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not contiguous (in-place math on strided views
    /// is not needed by this crate's consumers and would hide aliasing bugs).
    pub fn apply_inplace(&self, mut f: impl FnMut(usize, f32) -> f32) {
        assert!(
            self.is_contiguous(),
            "apply_inplace requires contiguous tensor"
        );
        let off = self.layout.offset();
        let n = self.numel();
        let dt = self.dtype;
        self.storage.with_data_mut(|d| {
            for (i, v) in d[off..off + n].iter_mut().enumerate() {
                *v = dt.round(f(i, *v));
            }
        });
    }

    /// Overwrite this tensor's elements with `src`'s (same shape required).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `self` is not contiguous.
    pub fn copy_from(&self, src: &Tensor) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        let data = src.to_vec();
        let dt = self.dtype;
        assert!(
            self.is_contiguous(),
            "copy_from requires contiguous destination"
        );
        let off = self.layout.offset();
        self.storage.with_data_mut(|d| {
            for (dst, s) in d[off..off + data.len()].iter_mut().zip(&data) {
                *dst = dt.round(*s);
            }
        });
    }

    /// 16-bit patterns of the elements in row-major order.
    ///
    /// This is the population the paper's uniquification bounds by 2^16.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Not16Bit`] for f32 tensors.
    pub fn bits16(&self) -> Result<Vec<u16>, TensorError> {
        if !self.dtype.is_16bit() {
            return Err(TensorError::Not16Bit { actual: self.dtype });
        }
        let dt = self.dtype;
        Ok(self
            .to_vec()
            .into_iter()
            .map(|v| dt.encode16(v).expect("checked 16-bit"))
            .collect())
    }

    // ------------------------------------------------------------------
    // Views (storage-invariant ops; record provenance)
    // ------------------------------------------------------------------

    fn derived_view(&self, layout: Layout, op: InvariantOp) -> Tensor {
        Tensor {
            storage: Arc::clone(&self.storage),
            dtype: self.dtype,
            meta: TensorMeta::derived(
                self.storage.id(),
                layout.clone(),
                op,
                Arc::clone(&self.meta),
            ),
            layout,
        }
    }

    /// View with a new shape (copies first if not contiguous).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape element count mismatch: {:?} -> {:?}",
            self.shape(),
            shape
        );
        if self.is_contiguous() {
            self.derived_view(
                self.layout.reshape(shape),
                InvariantOp::Reshape {
                    shape: shape.to_vec(),
                },
            )
        } else {
            self.contiguous().reshape(shape)
        }
    }

    /// Alias of [`Tensor::reshape`] (PyTorch naming).
    pub fn view(&self, shape: &[usize]) -> Tensor {
        self.reshape(shape)
    }

    /// View with axes `d0` and `d1` swapped.
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub fn transpose(&self, d0: usize, d1: usize) -> Tensor {
        self.derived_view(
            self.layout.transpose(d0, d1),
            InvariantOp::Transpose { d0, d1 },
        )
    }

    /// Matrix transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "t() requires a 2-D tensor");
        self.transpose(0, 1)
    }

    /// View of `len` indices starting at `start` along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension.
    pub fn slice(&self, dim: usize, start: usize, len: usize) -> Tensor {
        self.derived_view(
            self.layout.slice(dim, start, len),
            InvariantOp::Slice { dim, start, len },
        )
    }

    /// Pure alias of this tensor (same storage and layout), recorded as an
    /// [`InvariantOp::Alias`] hop in the forward graph.
    pub fn alias(&self) -> Tensor {
        self.derived_view(self.layout.clone(), InvariantOp::Alias)
    }

    /// Materialize into row-major storage.
    ///
    /// Already-contiguous tensors are returned as cheap clones (no new
    /// storage, like PyTorch). Otherwise a new storage is allocated on the
    /// same device and the result records an [`InvariantOp::Contiguous`] hop —
    /// new storage, same contents, which is precisely the case the paper's
    /// graph walk exists for.
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            return self.clone();
        }
        let data = self.gather();
        runtime::record_compute(self.numel() as f64, self.device());
        let storage = Storage::new(
            data,
            self.device(),
            self.dtype,
            runtime::pool(self.device()),
        );
        let layout = Layout::contiguous(self.shape());
        let meta = TensorMeta::derived(
            storage.id(),
            layout.clone(),
            InvariantOp::Contiguous,
            Arc::clone(&self.meta),
        );
        Tensor {
            layout,
            storage,
            dtype: self.dtype,
            meta,
        }
    }

    /// Broadcast view of this tensor to `target` shape (stride-0 expansion).
    ///
    /// The result is *not* recorded as provenance (a broadcast view is not
    /// storage-invariant in the reconstruction sense used by marshaling).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not broadcast-compatible.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        Tensor {
            storage: Arc::clone(&self.storage),
            layout: self.layout.broadcast_to(target),
            dtype: self.dtype,
            meta: TensorMeta::root(self.storage.id(), self.layout.broadcast_to(target)),
        }
    }

    /// Re-view this tensor's storage under an arbitrary `layout` (no
    /// provenance recorded).
    ///
    /// Used by the marshaling layer to rebuild an offloaded view over a
    /// reconstructed storage buffer.
    ///
    /// # Panics
    ///
    /// Panics if the layout can address elements outside the storage.
    pub fn view_with_layout(&self, layout: Layout) -> Tensor {
        let max_reach = layout.offset()
            + layout
                .shape()
                .iter()
                .zip(layout.strides())
                .map(|(&s, &st)| s.saturating_sub(1) * st)
                .sum::<usize>();
        let len = self.storage.len();
        assert!(
            layout.numel() == 0 || max_reach < len,
            "layout reaches element {max_reach} of a {len}-element storage"
        );
        Tensor {
            storage: Arc::clone(&self.storage),
            meta: TensorMeta::root(self.storage.id(), layout.clone()),
            dtype: self.dtype,
            layout,
        }
    }

    // ------------------------------------------------------------------
    // Device & dtype movement
    // ------------------------------------------------------------------

    /// Copy this tensor to `device`.
    ///
    /// Same-device moves return a cheap clone (PyTorch semantics). Cross-
    /// device moves allocate **new storage** on the target (breaking view
    /// sharing — Table 1's pathology), record PCIe traffic in the ledger and
    /// advance the simulated clock.
    pub fn to_device(&self, device: Device) -> Tensor {
        if device == self.device() {
            return self.clone();
        }
        let data = self.to_vec();
        runtime::record_transfer(self.view_bytes(), self.device(), device);
        Tensor::from_vec_unrounded(data, self.shape(), self.dtype, device)
    }

    /// Cast to `dtype`, rounding values through the target encoding.
    ///
    /// Same-dtype casts return a cheap clone.
    pub fn cast(&self, dtype: DType) -> Tensor {
        if dtype == self.dtype {
            return self.clone();
        }
        let mut data = self.to_vec();
        if dtype.is_16bit() {
            for v in &mut data {
                *v = dtype.round(*v);
            }
        }
        runtime::record_compute(self.numel() as f64, self.device());
        Tensor::from_vec_unrounded(data, self.shape(), dtype, self.device())
    }

    /// Element-wise map into a new tensor of the same dtype (rounded).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let dt = self.dtype;
        let data: Vec<f32> = if dt.is_16bit() {
            self.with_data(|d| d.iter().map(|&v| dt.round(f(v))).collect())
        } else {
            self.with_data(|d| d.iter().map(|&v| f(v)).collect())
        };
        runtime::record_compute(self.numel() as f64, self.device());
        Tensor::from_vec_unrounded(data, self.shape(), dt, self.device())
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor(shape={:?}, dtype={}, device={}, {})",
            self.shape(),
            self.dtype,
            self.device(),
            self.storage_id(),
        )
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.to_vec();
        let preview: Vec<String> = v.iter().take(8).map(|x| format!("{x:.4}")).collect();
        let ell = if v.len() > 8 { ", …" } else { "" };
        write!(
            f,
            "Tensor{:?}[{}{}] ({}, {})",
            self.shape(),
            preview.join(", "),
            ell,
            self.dtype,
            self.device()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime;
    use proptest::prelude::*;

    #[test]
    fn from_vec_and_accessors() {
        runtime::reset();
        let t = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[2, 3],
            DType::F32,
            Device::Cpu,
        );
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.view_bytes(), 24);
        assert!(t.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(vec![1.0], &[2, 2], DType::F32, Device::Cpu);
    }

    #[test]
    fn constructors() {
        runtime::reset();
        assert_eq!(
            Tensor::zeros(&[3], DType::F32, Device::Cpu).to_vec(),
            vec![0.0; 3]
        );
        assert_eq!(
            Tensor::ones(&[2], DType::F32, Device::Cpu).to_vec(),
            vec![1.0; 2]
        );
        assert_eq!(
            Tensor::full(2.5, &[2], DType::F32, Device::Cpu).to_vec(),
            vec![2.5; 2]
        );
        assert_eq!(
            Tensor::arange(4, DType::F32, Device::Cpu).to_vec(),
            vec![0.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(Tensor::scalar(7.0, DType::F32, Device::Cpu).item(), 7.0);
    }

    #[test]
    fn rand_is_seeded_and_bounded() {
        runtime::reset();
        let a = Tensor::rand(&[100], DType::F32, Device::Cpu, 1);
        let b = Tensor::rand(&[100], DType::F32, Device::Cpu, 1);
        let c = Tensor::rand(&[100], DType::F32, Device::Cpu, 2);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_ne!(a.to_vec(), c.to_vec());
        assert!(a.to_vec().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn randn_moments_are_plausible() {
        runtime::reset();
        let t = Tensor::randn(&[10_000], DType::F32, Device::Cpu, 7);
        let v = t.to_vec();
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        let var: f32 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn bf16_tensor_rounds_on_construction() {
        runtime::reset();
        let t = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3], DType::Bf16, Device::Cpu);
        for v in t.to_vec() {
            assert_eq!(DType::Bf16.round(v), v);
        }
    }

    #[test]
    fn bits16_roundtrip() {
        runtime::reset();
        let t = Tensor::randn(&[64], DType::Bf16, Device::Cpu, 3);
        let bits = t.bits16().unwrap();
        let back = Tensor::from_bits16(&bits, &[64], DType::Bf16, Device::Cpu).unwrap();
        assert_eq!(t.to_vec(), back.to_vec());
    }

    #[test]
    fn bits16_rejects_f32() {
        runtime::reset();
        let t = Tensor::zeros(&[2], DType::F32, Device::Cpu);
        assert!(matches!(t.bits16(), Err(TensorError::Not16Bit { .. })));
        assert!(Tensor::from_bits16(&[0, 0], &[2], DType::F32, Device::Cpu).is_err());
        assert!(matches!(
            Tensor::from_bits16(&[0], &[2], DType::Bf16, Device::Cpu),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn views_share_storage_and_record_provenance() {
        runtime::reset();
        let t = Tensor::arange(6, DType::F32, Device::Cpu).reshape(&[2, 3]);
        let v = t.transpose(0, 1);
        assert_eq!(v.storage_id(), t.storage_id());
        assert_eq!(v.to_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let anc = v.meta().ancestors(4);
        assert_eq!(anc[0].1.uid, t.meta().uid);
    }

    #[test]
    fn reshape_of_noncontiguous_goes_through_contiguous() {
        runtime::reset();
        let t = Tensor::arange(6, DType::F32, Device::Cpu).reshape(&[2, 3]);
        let r = t.transpose(0, 1).reshape(&[6]);
        assert_eq!(r.to_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_ne!(r.storage_id(), t.storage_id(), "materialization allocates");
        // Provenance chain: reshape <- contiguous <- transpose <- reshape(root)
        let hops: Vec<_> = r
            .meta()
            .ancestors(8)
            .iter()
            .map(|(ops, _)| ops.first().unwrap().name().to_string())
            .collect();
        assert!(hops.contains(&"contiguous".to_string()));
    }

    #[test]
    fn slice_views() {
        runtime::reset();
        let t = Tensor::arange(12, DType::F32, Device::Cpu).reshape(&[4, 3]);
        let s = t.slice(0, 1, 2);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.to_vec(), vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(s.storage_id(), t.storage_id());
        let col = t.slice(1, 2, 1);
        assert_eq!(col.to_vec(), vec![2.0, 5.0, 8.0, 11.0]);
        assert!(!col.is_contiguous());
    }

    #[test]
    fn to_device_allocates_and_logs() {
        runtime::reset();
        let g = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
        assert_eq!(runtime::gpu_live_bytes(), 4 << 20);
        let c = g.to_device(Device::Cpu);
        assert_eq!(runtime::cpu_live_bytes(), 4 << 20);
        assert_ne!(c.storage_id(), g.storage_id());
        let s = runtime::transfer_snapshot();
        assert_eq!(s.d2h_bytes, 4 << 20);
        assert_eq!(s.d2h_txns, 1);
        // Same-device move is free.
        let g2 = g.to_device(Device::gpu());
        assert_eq!(g2.storage_id(), g.storage_id());
        assert_eq!(runtime::transfer_snapshot().d2h_txns, 1);
    }

    #[test]
    fn table1_lines_0_to_3_without_marshaling() {
        // Reproduces Table 1 of the paper exactly.
        runtime::reset();
        let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 42); // line 0
        assert_eq!(runtime::gpu_live_bytes(), 4 << 20);
        assert_eq!(runtime::cpu_live_bytes(), 0);
        let x1 = x0.reshape(&[1024 * 1024, 1]); // line 1: view, no GPU growth
        assert_eq!(runtime::gpu_live_bytes(), 4 << 20);
        let _y0 = x0.to_device(Device::Cpu); // line 2
        assert_eq!(runtime::cpu_live_bytes(), 4 << 20);
        let _y1 = x1.to_device(Device::Cpu); // line 3: duplicate!
        assert_eq!(runtime::cpu_live_bytes(), 8 << 20);
    }

    #[test]
    fn cast_changes_footprint() {
        runtime::reset();
        let t = Tensor::rand(&[1000], DType::F32, Device::gpu(), 1);
        let h = t.cast(DType::Bf16);
        assert_eq!(h.dtype(), DType::Bf16);
        assert_eq!(h.view_bytes(), 2000);
        assert_eq!(runtime::gpu_live_bytes(), 4000 + 2000);
        // Same-dtype cast is a clone.
        assert_eq!(t.cast(DType::F32).storage_id(), t.storage_id());
    }

    #[test]
    fn apply_inplace_respects_dtype_and_views() {
        runtime::reset();
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4], DType::Bf16, Device::Cpu);
        let view = t.reshape(&[2, 2]);
        t.apply_inplace(|_, v| v + 0.5);
        // Mutation must be visible through the view, with bf16 rounding.
        for v in view.to_vec() {
            assert_eq!(DType::Bf16.round(v), v);
        }
        assert_eq!(view.get(&[0, 0]), DType::Bf16.round(1.5));
    }

    #[test]
    fn copy_from_rounds() {
        runtime::reset();
        let dst = Tensor::zeros(&[3], DType::Bf16, Device::Cpu);
        let src = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3], DType::F32, Device::Cpu);
        dst.copy_from(&src);
        for v in dst.to_vec() {
            assert_eq!(DType::Bf16.round(v), v);
        }
    }

    #[test]
    fn contiguous_noop_for_contiguous() {
        runtime::reset();
        let t = Tensor::arange(4, DType::F32, Device::Cpu);
        let c = t.contiguous();
        assert_eq!(c.storage_id(), t.storage_id());
    }

    #[test]
    fn broadcast_view_reads() {
        runtime::reset();
        let row = Tensor::from_vec(vec![1.0, 2.0], &[2], DType::F32, Device::Cpu);
        let b = row.broadcast_to(&[3, 2]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(b.storage_id(), row.storage_id());
    }

    #[test]
    fn display_and_debug() {
        runtime::reset();
        let t = Tensor::arange(3, DType::F32, Device::Cpu);
        assert!(format!("{t:?}").contains("shape=[3]"));
        assert!(format!("{t}").contains("0.0000"));
    }

    #[test]
    fn alias_records_hop() {
        runtime::reset();
        let t = Tensor::arange(3, DType::F32, Device::Cpu);
        let a = t.alias();
        assert_eq!(a.storage_id(), t.storage_id());
        let anc = a.meta().ancestors(1);
        assert_eq!(anc.len(), 1);
        assert_eq!(anc[0].0, vec![InvariantOp::Alias]);
    }

    proptest! {
        /// reshape → transpose → to_vec matches manual reindexing.
        #[test]
        fn prop_transpose_matches_manual(r in 1usize..5, c in 1usize..5) {
            runtime::reset();
            let t = Tensor::arange(r * c, DType::F32, Device::Cpu).reshape(&[r, c]);
            let tt = t.transpose(0, 1);
            for i in 0..r {
                for j in 0..c {
                    prop_assert_eq!(t.get(&[i, j]), tt.get(&[j, i]));
                }
            }
        }

        /// Pool accounting: creating then dropping any tensor returns the pool
        /// to its prior live bytes.
        #[test]
        fn prop_pool_balance(n in 1usize..1000) {
            runtime::reset();
            let before = runtime::cpu_live_bytes();
            {
                let _t = Tensor::zeros(&[n], DType::F32, Device::Cpu);
                prop_assert_eq!(runtime::cpu_live_bytes(), before + 4 * n);
            }
            prop_assert_eq!(runtime::cpu_live_bytes(), before);
        }

        /// bits16 of a bf16 tensor has at most min(numel, 65536) distinct values.
        #[test]
        fn prop_bf16_unique_bound(n in 1usize..2000, seed in any::<u64>()) {
            runtime::reset();
            let t = Tensor::randn(&[n], DType::Bf16, Device::Cpu, seed);
            let bits = t.bits16().unwrap();
            let unique: std::collections::HashSet<u16> = bits.iter().copied().collect();
            prop_assert!(unique.len() <= n.min(65536));
        }
    }
}
