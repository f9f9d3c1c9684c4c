//! Systematic Reed–Solomon encoding and reconstruction.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::gf256;
use crate::matrix::Matrix;

/// Widest stripe the fused row kernel gathers on the stack; wider
/// geometries fall back to the per-source kernels.
const MAX_FUSED: usize = 16;

/// Errors returned by the Reed–Solomon codec.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The requested geometry is invalid (zero data shards, zero total, or
    /// more than 256 total shards).
    InvalidShardCounts {
        /// Requested number of data shards.
        data: usize,
        /// Requested number of parity shards.
        parity: usize,
    },
    /// The number of shards passed does not match the codec geometry.
    WrongShardCount {
        /// Number of shards the codec expects.
        expected: usize,
        /// Number of shards provided.
        actual: usize,
    },
    /// Shards have differing lengths (all shards in a stripe must be equal).
    UnevenShards,
    /// A shard slice was empty.
    EmptyShards,
    /// More shards are missing than the parity count can recover.
    TooManyMissing {
        /// Number of missing shards.
        missing: usize,
        /// Number of parity shards (the recovery capability).
        parity: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidShardCounts { data, parity } => write!(
                f,
                "invalid shard geometry: {data} data + {parity} parity shards"
            ),
            CodecError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            CodecError::UnevenShards => write!(f, "shards have differing lengths"),
            CodecError::EmptyShards => write!(f, "shards must be non-empty"),
            CodecError::TooManyMissing { missing, parity } => write!(
                f,
                "{missing} shards missing but only {parity} parity shards available"
            ),
        }
    }
}

impl Error for CodecError {}

/// A systematic Reed–Solomon code with `m` data shards and `k` parity
/// shards.
///
/// The encoding matrix is the classic Vandermonde construction: take the
/// `(m + k) × m` Vandermonde matrix, normalize its top `m × m` block to the
/// identity (multiplying the whole matrix by the block's inverse), and use
/// the bottom `k` rows to produce parity. Any `m` of the `m + k` shards then
/// suffice to reconstruct the rest — the recovery property the Reo paper
/// relies on for its 1-parity and 2-parity stripes.
///
/// # Examples
///
/// ```
/// use reo_erasure::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 2)?;
/// assert_eq!(rs.data_shards(), 4);
/// assert_eq!(rs.parity_shards(), 2);
/// assert_eq!(rs.total_shards(), 6);
/// # Ok::<(), reo_erasure::CodecError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
    /// Full `(data + parity) × data` encoding matrix with identity on top.
    encode_matrix: Matrix,
    /// Multiply kernels for the parity rows, row-major `parity × data`,
    /// built once at construction so encode/delta paths never rebuild
    /// per-coefficient tables on the hot path.
    parity_kernels: Vec<gf256::MulTable>,
    /// Per-erasure-pattern decode plans (see [`DecodePlan`]).
    decode_cache: DecodeCache,
}

/// The decode work for one erasure pattern, ready to replay: the fused
/// multiply kernels of the inverted survivor matrix, one row of `data`
/// tables per missing data shard (rows in ascending missing-index
/// order). Building a plan pays the matrix inversion plus table
/// construction once; replaying it is pure [`gf256::mul_row_slice`]
/// passes — the same kernel the encode path uses.
#[derive(Clone, Debug)]
struct DecodePlan {
    /// Ascending indices of the data shards this plan recovers.
    data_missing: Vec<usize>,
    /// Row-major `data_missing.len() × data` multiply kernels mapping
    /// the first `data` surviving shards onto each missing data shard.
    kernels: Vec<gf256::MulTable>,
}

/// Cache of decode plans keyed by the present-shard bitmask (patterns
/// are only cacheable while `total_shards() <= 64`; wider codes build
/// plans per call). Interior mutability keeps
/// [`ReedSolomon::reconstruct`] on `&self`; clones start cold because
/// plans are derived state — cheap to rebuild, never part of codec
/// identity.
#[derive(Default)]
struct DecodeCache {
    plans: Mutex<HashMap<u64, Arc<DecodePlan>>>,
}

impl Clone for DecodeCache {
    fn clone(&self) -> Self {
        DecodeCache::default()
    }
}

impl fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let patterns = self.plans.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("DecodeCache")
            .field("patterns", &patterns)
            .finish()
    }
}

impl ReedSolomon {
    /// Creates a codec for `data` data shards plus `parity` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidShardCounts`] if `data == 0`, or
    /// `data + parity > 256` (GF(2^8) supports at most 256 shards).
    /// `parity == 0` is allowed and yields a no-op code (matching Reo's
    /// 0-parity stripes for cold clean data).
    pub fn new(data: usize, parity: usize) -> Result<Self, CodecError> {
        if data == 0 || data + parity > 256 {
            return Err(CodecError::InvalidShardCounts { data, parity });
        }
        let total = data + parity;
        let vand = Matrix::vandermonde(total, data);
        let top = vand.select_rows(&(0..data).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("top block of a Vandermonde matrix is always invertible");
        let encode_matrix = vand.mul(&top_inv);
        debug_assert_eq!(
            encode_matrix.select_rows(&(0..data).collect::<Vec<_>>()),
            Matrix::identity(data),
            "systematic encode matrix must start with identity"
        );
        let parity_kernels = (0..parity)
            .flat_map(|p| (0..data).map(move |d| (p, d)))
            .map(|(p, d)| gf256::MulTable::new(encode_matrix.get(data + p, d)))
            .collect();
        Ok(ReedSolomon {
            data,
            parity,
            encode_matrix,
            parity_kernels,
            decode_cache: DecodeCache::default(),
        })
    }

    /// Number of data shards `m`.
    pub fn data_shards(&self) -> usize {
        self.data
    }

    /// Number of parity shards `k`.
    pub fn parity_shards(&self) -> usize {
        self.parity
    }

    /// Total shards `n = m + k`.
    pub fn total_shards(&self) -> usize {
        self.data + self.parity
    }

    /// The encoding coefficient applied to data shard `d` when computing
    /// parity shard `p`.
    ///
    /// Exposed for the delta parity-update path, which needs individual
    /// coefficients rather than whole-stripe encodes.
    ///
    /// # Panics
    ///
    /// Panics if `p >= parity_shards()` or `d >= data_shards()`.
    pub fn parity_coefficient(&self, p: usize, d: usize) -> u8 {
        assert!(p < self.parity, "parity index out of range");
        assert!(d < self.data, "data index out of range");
        self.encode_matrix.get(self.data + p, d)
    }

    /// The precomputed multiply kernel for parity row `p`, data shard `d`.
    ///
    /// The kernel multiplies by [`Self::parity_coefficient`]`(p, d)`; the
    /// delta parity-update path uses it to fold the coefficient multiply
    /// into a single fused pass over the changed chunk.
    ///
    /// # Panics
    ///
    /// Panics if `p >= parity_shards()` or `d >= data_shards()`.
    pub fn parity_kernel(&self, p: usize, d: usize) -> &gf256::MulTable {
        assert!(p < self.parity, "parity index out of range");
        assert!(d < self.data, "data index out of range");
        &self.parity_kernels[p * self.data + d]
    }

    fn check_shards<T: AsRef<[u8]>>(&self, shards: &[T]) -> Result<usize, CodecError> {
        let len = shards
            .first()
            .map(|s| s.as_ref().len())
            .ok_or(CodecError::EmptyShards)?;
        if len == 0 {
            return Err(CodecError::EmptyShards);
        }
        if shards.iter().any(|s| s.as_ref().len() != len) {
            return Err(CodecError::UnevenShards);
        }
        Ok(len)
    }

    /// Encodes `parity_shards()` parity shards from exactly
    /// `data_shards()` equal-length data shards.
    ///
    /// # Errors
    ///
    /// * [`CodecError::WrongShardCount`] — wrong number of data shards.
    /// * [`CodecError::UnevenShards`] — shards of differing lengths.
    /// * [`CodecError::EmptyShards`] — zero-length shards.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, CodecError> {
        let mut parity = vec![Vec::new(); self.parity];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Encodes parity into caller-provided buffers, the zero-allocation
    /// variant of [`Self::encode`].
    ///
    /// `parity` must hold exactly `parity_shards()` vectors; each is
    /// cleared and resized to the shard length, so buffers reused across
    /// calls reach a steady state where no heap allocation happens at all.
    /// Output contents are identical to [`Self::encode`].
    ///
    /// # Errors
    ///
    /// * [`CodecError::WrongShardCount`] — wrong number of data shards or
    ///   parity buffers.
    /// * [`CodecError::UnevenShards`] — shards of differing lengths.
    /// * [`CodecError::EmptyShards`] — zero-length shards.
    pub fn encode_into<T: AsRef<[u8]>>(
        &self,
        data: &[T],
        parity: &mut [Vec<u8>],
    ) -> Result<(), CodecError> {
        if data.len() != self.data {
            return Err(CodecError::WrongShardCount {
                expected: self.data,
                actual: data.len(),
            });
        }
        if parity.len() != self.parity {
            return Err(CodecError::WrongShardCount {
                expected: self.parity,
                actual: parity.len(),
            });
        }
        let len = self.check_shards(data)?;
        for (p, out) in parity.iter_mut().enumerate() {
            // The row kernel overwrites every byte, so the buffer only
            // needs the right length — no re-zeroing of reused capacity.
            out.resize(len, 0);
            self.encode_row_into(p, data, out);
        }
        Ok(())
    }

    /// Computes parity row `p` into `out`, overwriting it (length checked
    /// by the caller; `out` need not be zeroed).
    fn encode_row_into<T: AsRef<[u8]>>(&self, p: usize, data: &[T], out: &mut [u8]) {
        // One register-resident pass over the destination for the whole
        // row; the stack array keeps the source-ref gather allocation-free
        // for every realistic stripe width.
        let row = &self.parity_kernels[p * self.data..(p + 1) * self.data];
        if self.data <= MAX_FUSED {
            let mut srcs: [&[u8]; MAX_FUSED] = [&[]; MAX_FUSED];
            for (slot, shard) in srcs.iter_mut().zip(data) {
                *slot = shard.as_ref();
            }
            return gf256::mul_row_slice(row, &srcs[..self.data], out);
        }
        row[0].mul_slice(out, data[0].as_ref());
        for (table, shard) in row[1..].iter().zip(&data[1..]) {
            table.mul_slice_xor(out, shard.as_ref());
        }
    }

    /// Verifies that the given full shard set (data followed by parity) is
    /// consistent.
    ///
    /// # Errors
    ///
    /// Propagates shape errors like [`CodecError::WrongShardCount`]; returns
    /// `Ok(false)` if shapes are fine but parity does not match.
    pub fn verify<T: AsRef<[u8]>>(&self, shards: &[T]) -> Result<bool, CodecError> {
        if shards.len() != self.total_shards() {
            return Err(CodecError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        self.check_shards(shards)?;
        let recomputed = self.encode(&shards[..self.data])?;
        Ok(recomputed
            .iter()
            .zip(&shards[self.data..])
            .all(|(a, b)| a.as_slice() == b.as_ref()))
    }

    /// Reconstructs every missing shard (`None` entries) in place.
    ///
    /// `shards` must hold `total_shards()` entries — data shards first,
    /// parity after — with `None` marking lost shards. On success all
    /// entries are `Some` and hold consistent contents.
    ///
    /// # Errors
    ///
    /// * [`CodecError::WrongShardCount`] — wrong number of entries.
    /// * [`CodecError::TooManyMissing`] — more than `parity_shards()`
    ///   entries are `None`.
    /// * [`CodecError::UnevenShards`] / [`CodecError::EmptyShards`] — the
    ///   surviving shards disagree on length or are empty.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        if shards.len() != self.total_shards() {
            return Err(CodecError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let missing: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        if missing.len() > self.parity {
            return Err(CodecError::TooManyMissing {
                missing: missing.len(),
                parity: self.parity,
            });
        }
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_some().then_some(i))
            .collect();
        let survivors: Vec<&Vec<u8>> = present
            .iter()
            .take(self.data)
            .map(|&i| shards[i].as_ref().expect("present index"))
            .collect();
        let len = self.check_shards(&survivors)?;

        // Recover original data shards for any that are missing, through
        // the per-pattern decode plan: the inverted survivor matrix is
        // cached as fused multiply kernels, so repeated degraded reads of
        // one erasure pattern replay pure `mul_row_slice` passes instead
        // of re-inverting and rebuilding per-coefficient tables. Row
        // buffers are allocated up front (one block, outside the decode
        // loop) and moved into place afterwards — never cloned.
        let plan = self.decode_plan(&present);
        let mut recovered: Vec<Vec<u8>> =
            plan.data_missing.iter().map(|_| vec![0u8; len]).collect();
        if self.data <= MAX_FUSED {
            let mut srcs: [&[u8]; MAX_FUSED] = [&[]; MAX_FUSED];
            for (slot, shard) in srcs.iter_mut().zip(&survivors) {
                *slot = shard.as_slice();
            }
            for (row, out) in recovered.iter_mut().enumerate() {
                gf256::mul_row_slice(
                    &plan.kernels[row * self.data..(row + 1) * self.data],
                    &srcs[..self.data],
                    out,
                );
            }
        } else {
            for (row, out) in recovered.iter_mut().enumerate() {
                let kernels = &plan.kernels[row * self.data..(row + 1) * self.data];
                kernels[0].mul_slice(out, survivors[0]);
                for (table, shard) in kernels[1..].iter().zip(&survivors[1..]) {
                    table.mul_slice_xor(out, shard);
                }
            }
        }
        for (&i, buf) in plan.data_missing.iter().zip(recovered) {
            shards[i] = Some(buf);
        }

        // With all data shards present, re-encode only the missing parity
        // rows, straight into freshly owned buffers that are moved in.
        let parity_missing: Vec<usize> = missing
            .iter()
            .copied()
            .filter(|&i| i >= self.data)
            .collect();
        if !parity_missing.is_empty() {
            let mut rebuilt: Vec<Vec<u8>> = parity_missing.iter().map(|_| vec![0u8; len]).collect();
            {
                let data_refs: Vec<&[u8]> = (0..self.data)
                    .map(|i| shards[i].as_deref().expect("data recovered above"))
                    .collect();
                for (&i, out) in parity_missing.iter().zip(rebuilt.iter_mut()) {
                    self.encode_row_into(i - self.data, &data_refs, out);
                }
            }
            for (&i, buf) in parity_missing.iter().zip(rebuilt) {
                shards[i] = Some(buf);
            }
        }
        Ok(())
    }

    /// The decode plan for one erasure pattern, from the cache when the
    /// pattern was seen before. `present` is the ascending list of
    /// surviving shard indices (at least `data` of them — the caller's
    /// too-many-missing check already ruled the rest out). The cache key
    /// is the bitmask of the first `data` survivors: every present data
    /// index sorts ahead of the parity ones, so that prefix determines
    /// both the inverted matrix and the set of missing data shards.
    fn decode_plan(&self, present: &[usize]) -> Arc<DecodePlan> {
        let key = (self.total_shards() <= 64).then(|| {
            present
                .iter()
                .take(self.data)
                .fold(0u64, |mask, &i| mask | (1 << i))
        });
        if let Some(k) = key {
            if let Some(plan) = self
                .decode_cache
                .plans
                .lock()
                .expect("decode cache lock")
                .get(&k)
            {
                return Arc::clone(plan);
            }
        }
        let plan = Arc::new(self.build_decode_plan(present));
        if let Some(k) = key {
            self.decode_cache
                .plans
                .lock()
                .expect("decode cache lock")
                .insert(k, Arc::clone(&plan));
        }
        plan
    }

    /// Inverts the survivor rows of the encode matrix and bakes the
    /// result into fused multiply kernels (the slow path the cache
    /// amortizes — one inversion plus `missing × data` table builds).
    fn build_decode_plan(&self, present: &[usize]) -> DecodePlan {
        // Rows of the encode matrix for the first `data` surviving shards
        // form an invertible matrix; inverting it maps survivors back to
        // the original data shards.
        let survivor_rows = self
            .encode_matrix
            .select_rows(&present[..self.data.min(present.len())]);
        let decode = survivor_rows
            .inverse()
            .expect("any data-many rows of an RS encode matrix are independent");
        let data_missing: Vec<usize> = (0..self.data)
            .filter(|i| present.binary_search(i).is_err())
            .collect();
        let kernels = data_missing
            .iter()
            .flat_map(|&dm| (0..self.data).map(move |j| (dm, j)))
            .map(|(dm, j)| gf256::MulTable::new(decode.get(dm, j)))
            .collect();
        DecodePlan {
            data_missing,
            kernels,
        }
    }

    /// Number of distinct erasure patterns currently cached (test and
    /// diagnostics hook; the cache is otherwise invisible).
    pub fn cached_decode_patterns(&self) -> usize {
        self.decode_cache.plans.lock().map(|m| m.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_verify_roundtrip() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 64);
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity.len(), 2);
        let mut all: Vec<Vec<u8>> = data.clone();
        all.extend(parity);
        assert!(rs.verify(&all).unwrap());
        // Corrupt one byte and verification fails.
        all[5][3] ^= 0xff;
        assert!(!rs.verify(&all).unwrap());
    }

    #[test]
    fn zero_parity_is_noop_code() {
        let rs = ReedSolomon::new(3, 0).unwrap();
        let data = sample_data(3, 16);
        assert!(rs.encode(&data).unwrap().is_empty());
        let mut shards: Vec<Option<Vec<u8>>> = data.into_iter().map(Some).collect();
        rs.reconstruct(&mut shards).unwrap();
        // A missing shard is unrecoverable with zero parity.
        shards[0] = None;
        let err = rs.reconstruct(&mut shards).unwrap_err();
        assert!(matches!(err, CodecError::TooManyMissing { .. }));
    }

    #[test]
    fn reconstruct_every_single_loss_pattern() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 32);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for lost in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[lost] = None;
            rs.reconstruct(&mut shards).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(
                    s.as_ref().unwrap(),
                    &full[i],
                    "shard {i} after losing {lost}"
                );
            }
        }
    }

    #[test]
    fn reconstruct_every_double_loss_pattern() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 32);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().unwrap(), &full[i], "lost ({a},{b}), shard {i}");
                }
            }
        }
    }

    #[test]
    fn too_many_missing_is_an_error() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.reconstruct(&mut shards).unwrap_err(),
            CodecError::TooManyMissing {
                missing: 3,
                parity: 2
            }
        );
    }

    #[test]
    fn geometry_errors() {
        assert!(matches!(
            ReedSolomon::new(0, 2),
            Err(CodecError::InvalidShardCounts { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(255, 2),
            Err(CodecError::InvalidShardCounts { .. })
        ));
        assert!(ReedSolomon::new(254, 2).is_ok());
    }

    #[test]
    fn shape_errors() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert!(matches!(
            rs.encode(&sample_data(3, 8)),
            Err(CodecError::WrongShardCount {
                expected: 2,
                actual: 3
            })
        ));
        let uneven = vec![vec![0u8; 8], vec![0u8; 9]];
        assert_eq!(rs.encode(&uneven).unwrap_err(), CodecError::UnevenShards);
        let empty: Vec<Vec<u8>> = vec![vec![], vec![]];
        assert_eq!(rs.encode(&empty).unwrap_err(), CodecError::EmptyShards);
    }

    #[test]
    fn parity_coefficient_matches_encode() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        // Encode unit-impulse data shards and check that parity equals the
        // coefficient.
        for d in 0..3 {
            let mut data = vec![vec![0u8; 1]; 3];
            data[d][0] = 1;
            let parity = rs.encode(&data).unwrap();
            for (p, row) in parity.iter().enumerate().take(2) {
                assert_eq!(row[0], rs.parity_coefficient(p, d));
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffers() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 33); // odd length exercises the word tail
        let expect = rs.encode(&data).unwrap();

        // Dirty, differently-sized reusable buffers converge to the same
        // output as `encode` without reallocating once capacity suffices.
        let mut parity = vec![vec![0xffu8; 64], vec![0x11u8; 7]];
        rs.encode_into(&data, &mut parity).unwrap();
        assert_eq!(parity, expect);

        let caps: Vec<usize> = parity.iter().map(Vec::capacity).collect();
        rs.encode_into(&data, &mut parity).unwrap();
        assert_eq!(parity, expect);
        let caps_after: Vec<usize> = parity.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "steady state must not reallocate");
    }

    #[test]
    fn encode_into_checks_parity_buffer_count() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let mut parity = vec![Vec::new(); 3];
        assert!(matches!(
            rs.encode_into(&data, &mut parity),
            Err(CodecError::WrongShardCount {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn decode_plans_are_cached_per_erasure_pattern() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 48);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        assert_eq!(rs.cached_decode_patterns(), 0);

        let lose = |lost: &[usize]| {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for &i in lost {
                shards[i] = None;
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.as_ref().unwrap(), &full[i], "lost {lost:?}, shard {i}");
            }
        };
        lose(&[1]);
        lose(&[1]); // same pattern: replayed from the cache
        assert_eq!(rs.cached_decode_patterns(), 1);
        lose(&[4]);
        lose(&[5]); // same survivor prefix {0,1,2,3} ⇒ same plan
        assert_eq!(rs.cached_decode_patterns(), 2);
        lose(&[0, 2]); // a new pattern pays one more inversion
        assert_eq!(rs.cached_decode_patterns(), 3);

        // A clone starts cold (plans are derived state, not identity).
        let other = rs.clone();
        assert_eq!(other.cached_decode_patterns(), 0);
        lose(&[0, 2]);
        assert_eq!(rs.cached_decode_patterns(), 3);
    }

    /// The per-byte reference decode: invert the survivor rows and apply
    /// the coefficients with scalar [`gf256::mul`], one byte at a time —
    /// no tables, no fused kernels, no caching.
    fn per_byte_reference(rs: &ReedSolomon, holes: &[Option<Vec<u8>>]) -> Vec<Option<Vec<u8>>> {
        let present: Vec<usize> = holes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_some().then_some(i))
            .collect();
        let survivors: Vec<&Vec<u8>> = present
            .iter()
            .take(rs.data)
            .map(|&i| holes[i].as_ref().unwrap())
            .collect();
        let len = survivors.first().map_or(0, |s| s.len());
        let decode = rs
            .encode_matrix
            .select_rows(&present[..rs.data.min(present.len())])
            .inverse()
            .unwrap();
        let mut out: Vec<Option<Vec<u8>>> = holes.to_vec();
        for dm in (0..rs.data).filter(|i| !present.contains(i)) {
            let mut buf = vec![0u8; len];
            for (b, slot) in buf.iter_mut().enumerate() {
                for (j, shard) in survivors.iter().enumerate() {
                    *slot ^= gf256::mul(decode.get(dm, j), shard[b]);
                }
            }
            out[dm] = Some(buf);
        }
        for p in 0..rs.parity {
            if out[rs.data + p].is_some() {
                continue;
            }
            let mut buf = vec![0u8; len];
            for (b, slot) in buf.iter_mut().enumerate() {
                for (d, shard) in out.iter().enumerate().take(rs.data) {
                    let byte = shard.as_ref().unwrap()[b];
                    *slot ^= gf256::mul(rs.encode_matrix.get(rs.data + p, d), byte);
                }
            }
            out[rs.data + p] = Some(buf);
        }
        out
    }

    #[test]
    fn errors_display_cleanly() {
        let e = CodecError::TooManyMissing {
            missing: 3,
            parity: 2,
        };
        assert_eq!(
            e.to_string(),
            "3 shards missing but only 2 parity shards available"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn encode_into_matches_encode_for_random_geometry(
            m in 1usize..6,
            k in 0usize..4,
            len in 1usize..64,
            seed: u64,
        ) {
            let rs = ReedSolomon::new(m, k).unwrap();
            let data: Vec<Vec<u8>> = (0..m)
                .map(|i| {
                    (0..len)
                        .map(|j| (seed
                            .wrapping_mul(2862933555777941757)
                            .wrapping_add((i * 733 + j) as u64) >> 29) as u8)
                        .collect()
                })
                .collect();
            let expect = rs.encode(&data).unwrap();
            let mut parity = vec![vec![0xc3u8; (seed % 80) as usize]; k];
            rs.encode_into(&data, &mut parity).unwrap();
            prop_assert_eq!(parity, expect);
        }

        #[test]
        fn random_reconstruct_roundtrip(
            m in 1usize..6,
            k in 0usize..4,
            len in 1usize..64,
            seed: u64,
        ) {
            let rs = ReedSolomon::new(m, k).unwrap();
            let data: Vec<Vec<u8>> = (0..m)
                .map(|i| {
                    (0..len)
                        .map(|j| (seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((i * 1009 + j) as u64) >> 33) as u8)
                        .collect()
                })
                .collect();
            let parity = rs.encode(&data).unwrap();
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

            // Choose up to k losses deterministically from the seed.
            let total = m + k;
            let losses = (seed as usize) % (k + 1);
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            let mut lost = Vec::new();
            let mut idx = (seed as usize) % total;
            while lost.len() < losses {
                if !lost.contains(&idx) {
                    lost.push(idx);
                    shards[idx] = None;
                }
                // Step by 1: always visits every index, so the loop
                // terminates for any `total`.
                idx = (idx + 1) % total;
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, s) in shards.iter().enumerate() {
                prop_assert_eq!(s.as_ref().unwrap(), &full[i]);
            }
        }

        /// Kernel equivalence: the cached-plan `mul_row_slice` decode
        /// produces byte-identical output to the scalar per-byte
        /// reference for every random geometry and erasure pattern —
        /// on both a cold cache and a warm replay of the same pattern.
        #[test]
        fn cached_decode_matches_per_byte_reference(
            m in 1usize..8,
            k in 1usize..4,
            len in 1usize..96,
            seed: u64,
        ) {
            let rs = ReedSolomon::new(m, k).unwrap();
            let data: Vec<Vec<u8>> = (0..m)
                .map(|i| {
                    (0..len)
                        .map(|j| (seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add((i * 8191 + j) as u64) >> 31) as u8)
                        .collect()
                })
                .collect();
            let parity = rs.encode(&data).unwrap();
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

            // Knock out 1..=k shards, deterministically from the seed.
            let total = m + k;
            let losses = 1 + (seed as usize) % k;
            let mut holes: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            let mut idx = (seed as usize >> 8) % total;
            let mut lost = 0usize;
            while lost < losses {
                if holes[idx].is_some() {
                    holes[idx] = None;
                    lost += 1;
                }
                idx = (idx + 1) % total;
            }

            let reference = per_byte_reference(&rs, &holes);
            for _round in 0..2 {
                // Round 0 builds the plan, round 1 replays it cached.
                let mut shards = holes.clone();
                rs.reconstruct(&mut shards).unwrap();
                for (i, (got, want)) in shards.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got.as_ref().unwrap(),
                        want.as_ref().unwrap(),
                        "shard {} diverged from the per-byte reference",
                        i
                    );
                }
            }
            prop_assert!(rs.cached_decode_patterns() <= 1);
        }
    }
}
