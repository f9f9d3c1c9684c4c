//! Chunk addressing and contents.

use std::fmt;

use bytes::Bytes;
use reo_sim::ByteSize;

/// An opaque, array-unique identifier for a stored chunk.
///
/// Handles are allocated by the layer that owns placement (the stripe
/// manager) and are stable across device failures: after a failure the
/// handle still names the chunk, but reads return
/// [`FlashError::Corrupted`](crate::FlashError::Corrupted).
///
/// # Examples
///
/// ```
/// use reo_flashsim::ChunkHandle;
///
/// let h = ChunkHandle::new(42);
/// assert_eq!(h.as_u64(), 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkHandle(u64);

impl ChunkHandle {
    /// Creates a handle from a raw value.
    pub const fn new(raw: u64) -> Self {
        ChunkHandle(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ChunkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk#{}", self.0)
    }
}

/// A run of chunks on one device, described by arithmetic instead of one
/// record per chunk.
///
/// The first `count` chunks all have length `len`: chunk `i` sits in the
/// `i`-th block of `stride` consecutive handles starting at `block`, at
/// offset `offset` within it — or, for a rotating run, at offset
/// `offset - i` (mod `stride`): the way round-robin parity placement moves
/// a device back one position per stripe. An optional `last` chunk with a
/// handle and length of its own follows them (a device's chunk of an
/// object's last, possibly short, stripe). A stripe manager that
/// allocates one block of handles per stripe describes a device's share
/// of a whole object with one such run.
///
/// # Examples
///
/// ```
/// use reo_flashsim::{ChunkHandle, ChunkRun};
/// use reo_sim::ByteSize;
///
/// // Blocks of 5 handles from 100; chunk 0 at offset 2, then 1, 0, 4,
/// // then a shorter last chunk at 121.
/// let run = ChunkRun {
///     block: 100,
///     stride: 5,
///     offset: 2,
///     rotate: true,
///     count: 4,
///     len: ByteSize::from_kib(64),
///     last: Some((ChunkHandle::new(121), ByteSize::from_kib(9))),
/// };
/// let handles: Vec<u64> = (0..run.chunks()).map(|i| run.handle(i).as_u64()).collect();
/// assert_eq!(handles, [102, 106, 110, 119, 121]);
/// assert_eq!(run.index_of(ChunkHandle::new(110)), Some(2));
/// assert_eq!(run.index_of(ChunkHandle::new(111)), None);
/// assert_eq!(run.count_below(ChunkHandle::new(120)), 4);
/// assert_eq!(run.len_of(4), ByteSize::from_kib(9));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkRun {
    /// First handle of chunk 0's block.
    pub block: u64,
    /// Handles per block (at least 1).
    pub stride: u64,
    /// Chunk 0's offset within its block (below `stride`).
    pub offset: u64,
    /// Whether the offset steps back by one (mod `stride`) per block.
    pub rotate: bool,
    /// Number of chunks in the progression.
    pub count: u64,
    /// Length of every chunk of the progression (non-zero).
    pub len: ByteSize,
    /// A chunk after the progression: its handle (above every progression
    /// handle) and non-zero length.
    pub last: Option<(ChunkHandle, ByteSize)>,
}

impl ChunkRun {
    /// A run of one chunk at `handle`.
    pub const fn single(handle: ChunkHandle, len: ByteSize) -> Self {
        ChunkRun {
            block: handle.0,
            stride: 1,
            offset: 0,
            rotate: false,
            count: 1,
            len,
            last: None,
        }
    }

    fn offset_at(&self, i: u64) -> u64 {
        if self.rotate {
            (self.offset + self.stride - i % self.stride) % self.stride
        } else {
            self.offset
        }
    }

    /// Number of chunks, the `last` one included.
    pub fn chunks(&self) -> u64 {
        self.count + u64::from(self.last.is_some())
    }

    /// The handle of chunk `i`.
    pub fn handle(&self, i: u64) -> ChunkHandle {
        match self.last {
            Some((h, _)) if i == self.count => h,
            _ => ChunkHandle(self.block + i * self.stride + self.offset_at(i)),
        }
    }

    /// The length of chunk `i`.
    pub fn len_of(&self, i: u64) -> ByteSize {
        match self.last {
            Some((_, len)) if i == self.count => len,
            _ => self.len,
        }
    }

    /// Total bytes of the run's chunks.
    pub fn bytes(&self) -> ByteSize {
        self.len * self.count + self.last.map_or(ByteSize::ZERO, |(_, len)| len)
    }

    /// The index of `handle` in the run, if it is one of its chunks.
    pub fn index_of(&self, handle: ChunkHandle) -> Option<u64> {
        if self.last.is_some_and(|(h, _)| h == handle) {
            return Some(self.count);
        }
        let d = handle.0.checked_sub(self.block)?;
        let i = d / self.stride;
        (i < self.count && d % self.stride == self.offset_at(i)).then_some(i)
    }

    /// How many chunks of the run have handles below `handle`.
    pub fn count_below(&self, handle: ChunkHandle) -> u64 {
        let last = u64::from(self.last.is_some_and(|(h, _)| h < handle));
        let Some(d) = handle.0.checked_sub(self.block) else {
            return last;
        };
        let i = d / self.stride;
        let progression = if i >= self.count {
            self.count
        } else {
            i + u64::from(self.offset_at(i) < d % self.stride)
        };
        progression + last
    }

    /// The run's leading chunks with handles below `handle`.
    pub fn below(&self, handle: ChunkHandle) -> ChunkRun {
        let n = self.count_below(handle);
        ChunkRun {
            count: n.min(self.count),
            last: self.last.filter(|_| n > self.count),
            ..*self
        }
    }

    /// One past the highest handle the run's blocks span.
    pub fn block_end(&self) -> u64 {
        let end = self.block + self.count * self.stride;
        self.last.map_or(end, |(h, _)| end.max(h.0 + 1))
    }
}

/// Chunk contents: a real payload, or size-only ("synthetic") content.
///
/// The correctness tests and the examples store real bytes so that erasure
/// reconstruction can be verified exactly. The paper-scale experiment
/// sweeps move hundreds of gigabytes of simulated data; they use
/// `Synthetic` chunks, which occupy no memory but are still charged full
/// service time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// Real bytes.
    Real(Bytes),
    /// No stored bytes; only the length is tracked.
    Synthetic,
}

impl ChunkPayload {
    /// Returns the real bytes, if present.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            ChunkPayload::Real(b) => Some(b),
            ChunkPayload::Synthetic => None,
        }
    }

    /// `true` if this is a synthetic (size-only) payload.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, ChunkPayload::Synthetic)
    }
}

/// A chunk as stored on a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredChunk {
    len: ByteSize,
    payload: ChunkPayload,
}

impl StoredChunk {
    /// Creates a chunk with a real payload.
    pub fn real(bytes: Bytes) -> Self {
        StoredChunk {
            len: ByteSize::from_bytes(bytes.len() as u64),
            payload: ChunkPayload::Real(bytes),
        }
    }

    /// Creates a size-only chunk.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero — zero-length chunks are never valid.
    pub fn synthetic(len: ByteSize) -> Self {
        assert!(!len.is_zero(), "chunks must be non-empty");
        StoredChunk {
            len,
            payload: ChunkPayload::Synthetic,
        }
    }

    /// The chunk length.
    pub fn len(&self) -> ByteSize {
        self.len
    }

    /// `true` if the chunk is zero bytes long (never true for chunks built
    /// through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.len.is_zero()
    }

    /// The payload.
    pub fn payload(&self) -> &ChunkPayload {
        &self.payload
    }

    /// Consumes the chunk, returning the payload.
    pub fn into_payload(self) -> ChunkPayload {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_chunk_tracks_len() {
        let c = StoredChunk::real(Bytes::from_static(b"hello"));
        assert_eq!(c.len(), ByteSize::from_bytes(5));
        assert_eq!(c.payload().as_bytes().unwrap().as_ref(), b"hello");
        assert!(!c.payload().is_synthetic());
    }

    #[test]
    fn synthetic_chunk_has_no_bytes() {
        let c = StoredChunk::synthetic(ByteSize::from_kib(64));
        assert_eq!(c.len(), ByteSize::from_kib(64));
        assert!(c.payload().as_bytes().is_none());
        assert!(c.payload().is_synthetic());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_synthetic_panics() {
        let _ = StoredChunk::synthetic(ByteSize::ZERO);
    }

    #[test]
    fn runs_enumerate_their_handles_in_order() {
        for (rotate, last) in [
            (false, None),
            (true, Some(36)),
            (true, None),
            (false, Some(40)),
        ] {
            let run = ChunkRun {
                block: 7,
                stride: 3,
                offset: 1,
                rotate,
                count: 9,
                len: ByteSize::from_kib(4),
                last: last.map(|h| (ChunkHandle::new(h), ByteSize::from_kib(1))),
            };
            let handles: Vec<ChunkHandle> = (0..run.chunks()).map(|i| run.handle(i)).collect();
            assert!(handles.windows(2).all(|w| w[0] < w[1]));
            for h in run.block..run.block_end() + 2 {
                let h = ChunkHandle::new(h);
                let member = handles.iter().position(|&x| x == h).map(|i| i as u64);
                assert_eq!(run.index_of(h), member, "{h}");
                let below = handles.iter().filter(|&&x| x < h).count() as u64;
                assert_eq!(run.count_below(h), below, "{h}");
                let prefix = run.below(h);
                assert_eq!(prefix.chunks(), below);
                assert!((0..below).all(|i| prefix.handle(i) == run.handle(i)));
            }
        }
    }

    #[test]
    fn handle_display() {
        assert_eq!(ChunkHandle::new(7).to_string(), "chunk#7");
    }
}
