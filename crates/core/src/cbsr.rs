//! Compressed Balanced Sparse Row (CBSR) feature format.
//!
//! After the MaxK nonlinearity every node embedding has exactly `k`
//! nonzeros out of `dim_origin` — *balanced* row sparsity. CBSR stores the
//! surviving values (`sp_data`, `N × k` floats) and their column positions
//! (`sp_index`, `N × k` integers) in two contiguous arrays, giving the
//! kernels fully coalesced row fetches (§3.2 of the paper).
//!
//! When `dim_origin <= 256` the indices fit in `u8`, which is what the
//! paper's 5-bytes-per-element traffic term assumes; wider feature maps
//! fall back to `u16`. The width is named in this module only: a kernel
//! resolves it once per call (`with_index!`) and runs the row primitives
//! below over `(values, columns)` slices at the concrete width.

use crate::{KernelError, Result};
use maxk_tensor::{parallel, Matrix};
use std::fmt::Debug;

/// Index storage for CBSR: one byte per element when the original hidden
/// dimension allows it, two otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpIndex {
    /// `dim_origin <= 256`.
    U8(Vec<u8>),
    /// `dim_origin <= 65536`.
    U16(Vec<u16>),
}

/// Evaluates `$body` with `$index` bound to the `Vec<u8>` or `Vec<u16>`
/// inside `$sp` (a `&SpIndex` or `&mut SpIndex`): the one place the width
/// is resolved. Invoked once per kernel call, outside every loop, so the
/// code inside is monomorphic in the width.
macro_rules! with_index {
    ($sp:expr, |$index:ident| $body:expr) => {
        match $sp {
            $crate::cbsr::SpIndex::U8($index) => $body,
            $crate::cbsr::SpIndex::U16($index) => $body,
        }
    };
}
pub(crate) use with_index;

/// `(values, columns)` of row `r` of `c`, whose index array `index` came
/// out of [`with_index!`].
#[inline]
pub(crate) fn row<'a, I>(c: &'a Cbsr, index: &'a [I], r: usize) -> (&'a [f32], &'a [I]) {
    let span = r * c.k..(r + 1) * c.k;
    (&c.sp_data[span.clone()], &index[span])
}

/// `buf[cols[t]] += e · vals[t]` over one row: the forward product's
/// inner loop and every dense expansion.
#[inline]
pub(crate) fn scatter_axpy<I: Copy + Into<usize>>(
    buf: &mut [f32],
    e: f32,
    (vals, cols): (&[f32], &[I]),
) {
    for (&v, &c) in vals.iter().zip(cols) {
        buf[c.into()] += e * v;
    }
}

/// `out[t] += e · src[cols[t]]` over one row: the backward product's
/// inner loop and every gather through a known pattern.
#[inline]
pub(crate) fn gather_axpy<I: Copy + Into<usize>>(out: &mut [f32], e: f32, src: &[f32], cols: &[I]) {
    for (o, &c) in out.iter_mut().zip(cols) {
        *o += e * src[c.into()];
    }
}

/// Bytes per stored index of a `dim_origin`-wide matrix.
fn index_width(dim_origin: usize) -> usize {
    if dim_origin <= 256 {
        1
    } else {
        2
    }
}

/// `rows` copies of the index row `0, 1, .., k - 1`.
fn identity_rows<I: Copy + TryFrom<usize, Error: Debug>>(rows: usize, k: usize) -> Vec<I> {
    let row: Vec<I> = (0..k)
        .map(|t| I::try_from(t).expect("k fits the index width"))
        .collect();
    row.repeat(rows)
}

/// The `k`-wide chunks `rows[r] * k .. (rows[r] + 1) * k` of `v`,
/// concatenated in `rows` order.
fn gather_chunks<T: Copy>(v: &[T], k: usize, rows: &[usize]) -> Vec<T> {
    let mut out = Vec::with_capacity(rows.len() * k);
    for &r in rows {
        out.extend_from_slice(&v[r * k..(r + 1) * k]);
    }
    out
}

/// Overwrites chunk `rows[s]` of `dst` with chunk `s` of `src` — the
/// inverse of [`gather_chunks`].
fn scatter_chunks<T: Copy>(dst: &mut [T], k: usize, rows: &[usize], src: &[T]) {
    for (&r, chunk) in rows.iter().zip(src.chunks_exact(k)) {
        dst[r * k..(r + 1) * k].copy_from_slice(chunk);
    }
}

impl SpIndex {
    /// Number of stored indices.
    pub fn len(&self) -> usize {
        with_index!(self, |v| v.len())
    }

    /// True when no indices are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes used per stored index (the `1` in the paper's `5 × dim_k ×
    /// nnz` traffic formula, or `2` for wide feature maps).
    pub fn bytes_per_element(&self) -> usize {
        match self {
            SpIndex::U8(_) => 1,
            SpIndex::U16(_) => 2,
        }
    }
}

/// A `N × dim_origin` feature matrix with exactly `k` stored entries per
/// row.
///
/// Invariants (enforced by [`Cbsr::validate`]):
///
/// * `sp_data.len() == sp_index.len() == num_rows * k`;
/// * indices within each row are strictly increasing and `< dim_origin`.
///
/// # Example
///
/// ```
/// use maxk_core::Cbsr;
///
/// let mut c = Cbsr::zeros(2, 8, 2);
/// c.set_entry(0, 0, 3, 1.5); // row 0, slot 0 -> column 3, value 1.5
/// c.set_entry(0, 1, 6, -2.0);
/// let dense = c.to_dense();
/// assert_eq!(dense.get(0, 3), 1.5);
/// assert_eq!(dense.get(0, 6), -2.0);
/// assert_eq!(dense.get(1, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cbsr {
    num_rows: usize,
    dim_origin: usize,
    k: usize,
    sp_data: Vec<f32>,
    sp_index: SpIndex,
}

impl Cbsr {
    /// An all-zero CBSR matrix (all indices 0; call [`Cbsr::set_entry`] or
    /// let the MaxK kernel fill it).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, `k > dim_origin`, or `dim_origin > 65536`.
    pub fn zeros(num_rows: usize, dim_origin: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(k <= dim_origin, "k must not exceed dim_origin");
        assert!(dim_origin <= 65_536, "dim_origin above u16 index range");
        Cbsr {
            num_rows,
            dim_origin,
            k,
            sp_data: vec![0.0; num_rows * k],
            // Default indices 0,1,..,k-1 keep rows structurally valid.
            sp_index: if index_width(dim_origin) == 1 {
                SpIndex::U8(identity_rows(num_rows, k))
            } else {
                SpIndex::U16(identity_rows(num_rows, k))
            },
        }
    }

    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Original (dense) hidden dimension.
    pub fn dim_origin(&self) -> usize {
        self.dim_origin
    }

    /// Stored nonzeros per row (the MaxK `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `sp_data` array, row-major `N × k`.
    pub fn sp_data(&self) -> &[f32] {
        &self.sp_data
    }

    /// Mutable `sp_data` (the backward SSpMM kernel writes it in place).
    pub fn sp_data_mut(&mut self) -> &mut [f32] {
        &mut self.sp_data
    }

    /// The `sp_index` array.
    pub fn sp_index(&self) -> &SpIndex {
        &self.sp_index
    }

    /// Values of row `r` (`k` floats).
    pub fn row_data(&self, r: usize) -> &[f32] {
        &self.sp_data[r * self.k..(r + 1) * self.k]
    }

    /// Column index of slot `t` in row `r`.
    #[inline]
    pub fn index_at(&self, r: usize, t: usize) -> usize {
        debug_assert!(t < self.k);
        with_index!(&self.sp_index, |v| v[r * self.k + t] as usize)
    }

    /// Sets slot `t` of row `r` to `(column, value)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds or when `column >= dim_origin`.
    pub fn set_entry(&mut self, r: usize, t: usize, column: usize, value: f32) {
        assert!(
            r < self.num_rows && t < self.k,
            "entry ({r},{t}) out of bounds"
        );
        assert!(column < self.dim_origin, "column {column} out of range");
        self.sp_data[r * self.k + t] = value;
        with_index!(&mut self.sp_index, |v| v[r * self.k + t] =
            column.try_into().expect("dim_origin fits the index width"));
    }

    /// Internal: simultaneous mutable access to `sp_data` and `sp_index`
    /// (used by the selection kernels, which fill both in one pass).
    pub(crate) fn data_and_index_mut(&mut self) -> (&mut [f32], &mut SpIndex) {
        (&mut self.sp_data, &mut self.sp_index)
    }

    /// Bytes one row occupies in memory: `k * (4 + index_width)` — the
    /// per-`nnz` fetch cost in the §4.3 traffic analysis.
    pub fn row_bytes(&self) -> usize {
        Self::row_bytes_of(self.dim_origin, self.k)
    }

    /// [`Cbsr::row_bytes`] of a `k`-of-`dim_origin` matrix, from its shape
    /// alone (for sizing an operand before it is computed).
    pub fn row_bytes_of(dim_origin: usize, k: usize) -> usize {
        k * (4 + index_width(dim_origin))
    }

    /// Copies the rows at `rows` into a fresh compact matrix: row `r` of
    /// the result is row `rows[r]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics when a row is out of bounds.
    #[must_use]
    pub fn gather_rows(&self, rows: &[usize]) -> Cbsr {
        Cbsr {
            num_rows: rows.len(),
            dim_origin: self.dim_origin,
            k: self.k,
            sp_data: gather_chunks(&self.sp_data, self.k, rows),
            sp_index: match &self.sp_index {
                SpIndex::U8(v) => SpIndex::U8(gather_chunks(v, self.k, rows)),
                SpIndex::U16(v) => SpIndex::U16(gather_chunks(v, self.k, rows)),
            },
        }
    }

    /// Overwrites row `rows[r]` with row `r` of `src`, values and
    /// pattern — the inverse of [`Cbsr::gather_rows`].
    ///
    /// # Panics
    ///
    /// Panics when `src` has a different `k` or `dim_origin`, when
    /// `rows.len() != src.num_rows()`, or when a row is out of bounds.
    pub fn write_rows(&mut self, rows: &[usize], src: &Cbsr) {
        assert_eq!(
            (self.k, self.dim_origin),
            (src.k, src.dim_origin),
            "CBSR shapes differ"
        );
        assert_eq!(rows.len(), src.num_rows, "one target row per source row");
        scatter_chunks(&mut self.sp_data, self.k, rows, &src.sp_data);
        match (&mut self.sp_index, &src.sp_index) {
            (SpIndex::U8(d), SpIndex::U8(s)) => scatter_chunks(d, self.k, rows, s),
            (SpIndex::U16(d), SpIndex::U16(s)) => scatter_chunks(d, self.k, rows, s),
            _ => unreachable!("equal dim_origin means equal index width"),
        }
    }

    /// Checks the format invariants.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidIndex`] naming the first bad row.
    pub fn validate(&self) -> Result<()> {
        for r in 0..self.num_rows {
            let mut prev: Option<usize> = None;
            for t in 0..self.k {
                let idx = self.index_at(r, t);
                if idx >= self.dim_origin {
                    return Err(KernelError::InvalidIndex { row: r });
                }
                if let Some(p) = prev {
                    if idx <= p {
                        return Err(KernelError::InvalidIndex { row: r });
                    }
                }
                prev = Some(idx);
            }
        }
        Ok(())
    }

    /// Expands to a dense `N × dim_origin` matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.num_rows, self.dim_origin);
        self.scatter_axpy(1.0, &mut out);
        out
    }

    /// `out[r, col(r, t)] += e · self[r, t]`: accumulates the scaled dense
    /// expansion into `out`, slot order within a row.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not `num_rows × dim_origin`.
    pub fn scatter_axpy(&self, e: f32, out: &mut Matrix) {
        let dim = self.dim_origin;
        assert_eq!(out.shape(), (self.num_rows, dim), "shape mismatch");
        with_index!(&self.sp_index, |index| {
            parallel::par_rows_mut(out.data_mut(), dim, 64, |first_row, chunk| {
                for (local, buf) in chunk.chunks_mut(dim).enumerate() {
                    scatter_axpy(buf, e, row(self, index, first_row + local));
                }
            });
        });
    }

    /// `self[r, t] += e · src[r, col(r, t)]`: accumulates the entries of a
    /// dense matrix that fall on this matrix's pattern.
    ///
    /// # Panics
    ///
    /// Panics when `src` is not `num_rows × dim_origin`.
    pub fn gather_axpy(&mut self, e: f32, src: &Matrix) {
        assert_eq!(src.rows(), self.num_rows, "row count mismatch");
        assert_eq!(src.cols(), self.dim_origin, "dim mismatch");
        let k = self.k;
        with_index!(&self.sp_index, |index| {
            parallel::par_rows_mut(&mut self.sp_data, k, 256, |first_row, chunk| {
                let cols = index[first_row * k..].chunks(k);
                for (local, (out, cols)) in chunk.chunks_mut(k).zip(cols).enumerate() {
                    gather_axpy(out, e, src.row(first_row + local), cols);
                }
            });
        });
    }

    /// A zero-valued CBSR sharing this matrix's sparsity pattern — the
    /// container the backward SSpMM fills (`sp_index` is inherited from
    /// the forward pass, §4.2).
    #[must_use]
    pub fn zeros_like_pattern(&self) -> Cbsr {
        Cbsr {
            num_rows: self.num_rows,
            dim_origin: self.dim_origin,
            k: self.k,
            sp_data: vec![0.0; self.sp_data.len()],
            sp_index: self.sp_index.clone(),
        }
    }

    /// Density `k / dim_origin` (the paper's `k = 32, dim = 256` setting
    /// is 12.5% density / 87.5% sparsity).
    pub fn density(&self) -> f64 {
        self.k as f64 / self.dim_origin as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_valid_and_sized() {
        let c = Cbsr::zeros(4, 16, 3);
        assert_eq!(c.num_rows(), 4);
        assert_eq!(c.k(), 3);
        assert_eq!(c.dim_origin(), 16);
        assert_eq!(c.sp_data().len(), 12);
        assert_eq!(c.sp_index().len(), 12);
        c.validate().unwrap();
    }

    #[test]
    fn index_width_switches_at_256() {
        let narrow = Cbsr::zeros(1, 256, 4);
        assert_eq!(narrow.sp_index().bytes_per_element(), 1);
        assert_eq!(narrow.row_bytes(), 4 * 5);
        let wide = Cbsr::zeros(1, 257, 4);
        assert_eq!(wide.sp_index().bytes_per_element(), 2);
        assert_eq!(wide.row_bytes(), 4 * 6);
    }

    #[test]
    fn set_entry_and_to_dense() {
        let mut c = Cbsr::zeros(2, 8, 2);
        c.set_entry(0, 0, 1, 0.5);
        c.set_entry(0, 1, 7, -1.0);
        c.set_entry(1, 0, 0, 2.0);
        c.set_entry(1, 1, 3, 3.0);
        let d = c.to_dense();
        assert_eq!(d.get(0, 1), 0.5);
        assert_eq!(d.get(0, 7), -1.0);
        assert_eq!(d.get(1, 0), 2.0);
        assert_eq!(d.get(1, 3), 3.0);
        assert_eq!(d.get(0, 0), 0.0);
        c.validate().unwrap();
    }

    #[test]
    fn validate_catches_unsorted_indices() {
        let mut c = Cbsr::zeros(1, 8, 2);
        c.set_entry(0, 0, 5, 1.0);
        c.set_entry(0, 1, 2, 1.0);
        assert_eq!(
            c.validate().unwrap_err(),
            KernelError::InvalidIndex { row: 0 }
        );
    }

    #[test]
    fn validate_catches_duplicate_indices() {
        let mut c = Cbsr::zeros(1, 8, 2);
        c.set_entry(0, 0, 3, 1.0);
        c.set_entry(0, 1, 3, 1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zeros_like_pattern_shares_indices() {
        let mut c = Cbsr::zeros(2, 10, 2);
        c.set_entry(0, 0, 4, 9.0);
        c.set_entry(0, 1, 9, 8.0);
        let z = c.zeros_like_pattern();
        assert_eq!(z.index_at(0, 0), 4);
        assert_eq!(z.index_at(0, 1), 9);
        assert!(z.sp_data().iter().all(|&v| v == 0.0));
        z.validate().unwrap();
    }

    #[test]
    fn gather_and_write_rows_round_trip_at_both_index_widths() {
        for dim in [10usize, 300] {
            let mut c = Cbsr::zeros(3, dim, 2);
            c.set_entry(0, 0, 1, 1.0);
            c.set_entry(0, 1, dim - 1, 2.0);
            c.set_entry(2, 0, 4, 3.0);
            c.set_entry(2, 1, 7, 4.0);
            let picked = c.gather_rows(&[2, 0, 2]);
            assert_eq!(picked.num_rows(), 3);
            assert_eq!(picked.row_bytes(), Cbsr::row_bytes_of(dim, 2));
            assert_eq!((picked.index_at(0, 1), picked.row_data(0)[1]), (7, 4.0));
            assert_eq!(
                (picked.index_at(1, 1), picked.row_data(1)[1]),
                (dim - 1, 2.0)
            );
            picked.validate().unwrap();
            let mut target = Cbsr::zeros(3, dim, 2);
            target.write_rows(&[2, 0, 2], &picked);
            target.write_rows(&[1], &c.gather_rows(&[1]));
            assert_eq!(target, c);
        }
    }

    #[test]
    #[should_panic(expected = "k must not exceed")]
    fn zeros_rejects_k_above_dim() {
        let _ = Cbsr::zeros(1, 4, 5);
    }

    #[test]
    #[should_panic(expected = "column")]
    fn set_entry_rejects_bad_column() {
        let mut c = Cbsr::zeros(1, 4, 1);
        c.set_entry(0, 0, 4, 1.0);
    }

    #[test]
    fn density_matches_paper_setting() {
        let c = Cbsr::zeros(1, 256, 32);
        assert!((c.density() - 0.125).abs() < 1e-12);
    }
}
