//! A small dense `f32` tensor with the operations the layer zoo needs.
//!
//! Shapes are arbitrary-rank; 4-D tensors follow the **NCHW** convention
//! (batch, channels, height, width). The type is intentionally simple — a
//! shape vector plus a flat buffer — because everything performance-critical
//! in this workspace happens in the integer PIM kernels, not here.

use std::fmt;

/// Dense `f32` tensor, row-major over its shape.
///
/// # Example
///
/// ```
/// use pim_nn::tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// let doubled = t.map(|v| v * 2.0);
/// assert_eq!(doubled.at(&[0, 1]), 4.0);
/// # Ok::<(), pim_nn::tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![1.0; shape.iter().product()],
        }
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the buffer length does not
    /// equal the product of the shape.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable value at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.flat_index(idx);
        &mut self.data[i]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            flat = flat * s + i;
        }
        flat
    }

    /// Returns a reshaped view-copy with the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshaped(&self, shape: Vec<usize>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: self.len(),
            });
        }
        Ok(Self {
            shape,
            data: self.data.clone(),
        })
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise binary op into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// In-place scaled add: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn add_scaled(&mut self, other: &Self, alpha: f32) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Fills with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Slices out batch item `n` of an N-first tensor, keeping rank
    /// (result has batch size 1).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `n` is out of bounds.
    pub fn batch_item(&self, n: usize) -> Self {
        self.gather_batch(&[n])
    }

    /// Gathers batch items `indices` of an N-first tensor, in that order
    /// (repeats allowed), into one tensor of batch size `indices.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or any index is out of bounds.
    pub(crate) fn gather_batch(&self, indices: &[usize]) -> Self {
        assert!(self.rank() >= 1, "cannot slice a rank-0 tensor");
        let batch = self.shape[0];
        let stride: usize = self.shape[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * stride);
        for &n in indices {
            assert!(n < batch, "batch index {n} out of bounds ({batch})");
            data.extend_from_slice(&self.data[n * stride..(n + 1) * stride]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Self { shape, data }
    }

    /// Concatenates tensors along the batch (first) dimension. Takes any
    /// sequence of tensor references: a slice, a `Vec`, or an iterator
    /// that borrows rows from elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if any trailing shapes
    /// differ, or [`TensorError::Empty`] when `items` is empty.
    pub fn stack_batch<'a>(items: impl IntoIterator<Item = &'a Self>) -> Result<Self, TensorError> {
        let mut items = items.into_iter().peekable();
        let first = *items.peek().ok_or(TensorError::Empty)?;
        let tail = &first.shape[1..];
        let mut batch = 0;
        let mut data = Vec::with_capacity(items.size_hint().0 * first.len());
        for t in items {
            if &t.shape[1..] != tail {
                return Err(TensorError::IncompatibleShapes {
                    left: first.shape.clone(),
                    right: t.shape.clone(),
                });
            }
            batch += t.shape[0];
            data.extend_from_slice(&t.data);
        }
        let mut shape = first.shape.clone();
        shape[0] = batch;
        Ok(Self { shape, data })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elems)", self.shape, self.len())
    }
}

/// Errors from tensor shape algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A buffer length or reshape target disagreed with the element count.
    ShapeMismatch {
        /// Required element count.
        expected: usize,
        /// Supplied element count.
        actual: usize,
    },
    /// Two operands had different shapes.
    IncompatibleShapes {
        /// Left operand shape.
        left: Vec<usize>,
        /// Right operand shape.
        right: Vec<usize>,
    },
    /// An operation needed at least one tensor.
    Empty,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "element count {actual} does not match shape ({expected})"
                )
            }
            Self::IncompatibleShapes { left, right } => {
                write!(f, "incompatible shapes {left:?} and {right:?}")
            }
            Self::Empty => write!(f, "operation requires at least one tensor"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![2, 2, 2], (0..8).map(|v| v as f32).collect()).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 0, 1]), 5.0);
        assert_eq!(t.at(&[1, 1, 1]), 7.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 5]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_bounds_checked() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn at_rank_checked() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let r = t.reshaped(vec![3, 2]).unwrap();
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert!(t.reshaped(vec![4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![10., 20., 30.]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11., 22., 33.]);
        assert_eq!(a.zip(&b, |x, y| y - x).unwrap().as_slice(), &[9., 18., 27.]);
        let c = Tensor::zeros(&[4]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Tensor::ones(&[2]);
        let b = Tensor::from_vec(vec![2], vec![2.0, 4.0]).unwrap();
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1., -5., 2., 2.]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn batch_item_slices_first_dim() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let second = t.batch_item(1);
        assert_eq!(second.shape(), &[1, 3]);
        assert_eq!(second.as_slice(), &[3., 4., 5.]);
    }

    #[test]
    fn gather_batch_picks_rows_in_order_with_repeats() {
        let t = Tensor::from_vec(vec![3, 2], (0..6).map(|v| v as f32).collect()).unwrap();
        let g = t.gather_batch(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.as_slice(), &[4., 5., 0., 1., 4., 5.]);
        assert_eq!(t.gather_batch(&[]).shape(), &[0, 2]);
    }

    #[test]
    fn stack_batch_concatenates() {
        let a = Tensor::from_vec(vec![1, 2], vec![1., 2.]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3., 4., 5., 6.]).unwrap();
        let s = Tensor::stack_batch(&[a.clone(), b]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.as_slice(), &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(Tensor::stack_batch(&[]).unwrap_err(), TensorError::Empty);
        let bad = Tensor::zeros(&[1, 3]);
        assert!(Tensor::stack_batch(&[a, bad]).is_err());
    }

    #[test]
    fn display_shows_shape() {
        assert!(Tensor::zeros(&[2, 2]).to_string().contains("[2, 2]"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tensor(max: usize) -> impl Strategy<Value = Tensor> {
        (1..=max, 1..=max).prop_flat_map(|(a, b)| {
            proptest::collection::vec(-100.0f32..100.0, a * b)
                .prop_map(move |data| Tensor::from_vec(vec![a, b], data).expect("sized"))
        })
    }

    proptest! {
        #[test]
        fn reshape_preserves_every_element((t, flip) in (arb_tensor(8), any::<bool>())) {
            let (a, b) = (t.shape()[0], t.shape()[1]);
            let shape = if flip { vec![b, a] } else { vec![a * b] };
            let r = t.reshaped(shape).expect("same element count");
            prop_assert_eq!(r.as_slice(), t.as_slice());
        }

        #[test]
        fn add_is_commutative(t in arb_tensor(6)) {
            let u = t.map(|v| v * 0.5 - 1.0);
            prop_assert_eq!(t.add(&u).expect("same shape"),
                            u.add(&t).expect("same shape"));
        }

        #[test]
        fn stack_then_slice_round_trips(t in arb_tensor(6)) {
            let items: Vec<Tensor> = (0..t.shape()[0]).map(|i| t.batch_item(i)).collect();
            let restacked = Tensor::stack_batch(&items).expect("uniform shapes");
            prop_assert_eq!(restacked, t);
        }

        #[test]
        fn max_abs_bounds_every_element(t in arb_tensor(8)) {
            let bound = t.max_abs();
            prop_assert!(t.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
        }

        #[test]
        fn add_scaled_matches_zip(t in arb_tensor(6), alpha in -3.0f32..3.0) {
            let u = t.map(|v| v * 0.25 + 2.0);
            let mut a = t.clone();
            a.add_scaled(&u, alpha).expect("same shape");
            let b = t.zip(&u, |x, y| x + alpha * y).expect("same shape");
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert!((va - vb).abs() < 1e-4);
            }
        }
    }
}
