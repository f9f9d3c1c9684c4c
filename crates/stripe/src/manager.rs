//! The stateful stripe manager over a flash array.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use reo_erasure::{CodecError, ReedSolomon};
use reo_flashsim::{
    ChunkHandle, ChunkRun, DeviceId, FaultPlan, FlashArray, FlashError, StoredChunk,
};
use reo_sim::{ByteSize, Layer, SimDuration, SimTime, Tracer};

use crate::layout::{ChunkRole, PlacementPolicy, StripeLayout};
use crate::scheme::RedundancyScheme;

/// Identifier of a stripe within a [`StripeManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StripeId(u64);

impl StripeId {
    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StripeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe#{}", self.0)
    }
}

/// Errors from stripe-manager operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StripeError {
    /// A device-level error (full, failed, unknown chunk).
    Flash(FlashError),
    /// An erasure-coding error (should not occur for well-formed stripes).
    Codec(CodecError),
    /// More chunks of a stripe are lost than its redundancy tolerates.
    ObjectLost {
        /// The stripe that cannot be recovered.
        stripe: StripeId,
        /// Chunks lost in that stripe.
        lost: usize,
        /// Failures the stripe's scheme tolerates.
        tolerated: usize,
    },
    /// The layout references a stripe this manager does not know.
    UnknownStripe(StripeId),
    /// Objects must have a non-zero size.
    EmptyObject,
    /// A payload was supplied whose length disagrees with the object size.
    PayloadSizeMismatch {
        /// Declared object size.
        declared: u64,
        /// Supplied payload length.
        payload: u64,
    },
    /// No healthy device remains in the array.
    NoHealthyDevices,
    /// A serialized layout blob failed to parse (journal corruption that
    /// slipped past the record checksum, or a version mismatch).
    CorruptMetadata,
}

impl fmt::Display for StripeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeError::Flash(e) => write!(f, "flash error: {e}"),
            StripeError::Codec(e) => write!(f, "erasure codec error: {e}"),
            StripeError::ObjectLost {
                stripe,
                lost,
                tolerated,
            } => write!(
                f,
                "{stripe} lost {lost} chunks but tolerates only {tolerated}"
            ),
            StripeError::UnknownStripe(s) => write!(f, "unknown stripe {s}"),
            StripeError::EmptyObject => write!(f, "objects must be non-empty"),
            StripeError::PayloadSizeMismatch { declared, payload } => write!(
                f,
                "payload is {payload} bytes but object declares {declared}"
            ),
            StripeError::NoHealthyDevices => write!(f, "no healthy device remains"),
            StripeError::CorruptMetadata => write!(f, "serialized layout metadata is corrupt"),
        }
    }
}

impl Error for StripeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StripeError::Flash(e) => Some(e),
            StripeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for StripeError {
    fn from(e: FlashError) -> Self {
        StripeError::Flash(e)
    }
}

impl From<CodecError> for StripeError {
    fn from(e: CodecError) -> Self {
        StripeError::Codec(e)
    }
}

/// How [`StripeManager::overwrite_chunk`] maintained redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParityUpdate {
    /// No parity to maintain: the chunk (and any replicas) were simply
    /// rewritten.
    Rewrite,
    /// Delta parity-updating: read the old chunk + parity, patch parity
    /// with the XOR delta (Section II-B).
    Delta,
    /// Direct parity-updating: read the sibling data chunks and re-encode
    /// parity from scratch.
    Direct,
}

/// Health of an object's stripes after failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectStatus {
    /// Every chunk intact; reads are served directly.
    Intact,
    /// Some chunks lost but every stripe is reconstructable.
    Degraded,
    /// At least one stripe lost more chunks than its redundancy tolerates.
    Lost,
}

/// Result of reading an object.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The object contents, when stored with a real payload.
    pub bytes: Option<Vec<u8>>,
    /// `true` if reconstruction (degraded read) was needed.
    pub degraded: bool,
    /// Simulated completion instant.
    pub completed_at: SimTime,
}

/// Byte accounting split into user data vs redundancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceUsage {
    /// Bytes holding user data (data chunks / primary replicas).
    pub user_bytes: ByteSize,
    /// Bytes holding parity or extra replicas.
    pub redundancy_bytes: ByteSize,
}

impl SpaceUsage {
    /// Total occupied bytes.
    pub fn total(self) -> ByteSize {
        self.user_bytes + self.redundancy_bytes
    }

    /// `user / (user + redundancy)`, the paper's space-efficiency metric
    /// (Section VI-B). Returns 1.0 when nothing is stored.
    pub fn space_efficiency(self) -> f64 {
        let total = self.total().as_bytes();
        if total == 0 {
            return 1.0;
        }
        self.user_bytes.as_bytes() as f64 / total as f64
    }
}

/// Where an object lives: its whole placement in a fixed number of
/// integers.
///
/// A store allocates one consecutive block of stripe ids and one of chunk
/// handles, so the size, scheme, chunk size, first stripe, first handle,
/// the devices healthy at store time and the placement policy determine
/// every chunk's role, device, handle and length. Layouts are handed back
/// from [`StripeManager::store_object`] and passed to the
/// read/status/rebuild/remove operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectLayout {
    owner: u64,
    size: ByteSize,
    scheme: RedundancyScheme,
    chunk_size: ByteSize,
    first_stripe: u64,
    first_handle: u64,
    /// Devices healthy at store time, one bit per device: the stripe
    /// width is their count, and slot `q` of a stripe is the `q`-th.
    devices: u64,
    placement: PlacementPolicy,
    /// Stored with real payloads (not size-only).
    real: bool,
}

impl ObjectLayout {
    /// The opaque owner tag supplied at store time.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Logical object size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// The redundancy scheme the object was stored with (clamped to the
    /// devices healthy at store time).
    pub fn scheme(&self) -> RedundancyScheme {
        self.scheme
    }

    /// The stripes holding the object, in order.
    pub fn stripes(&self) -> impl Iterator<Item = StripeId> {
        let first = self.first_stripe;
        (first..first + self.geometry().stripes).map(StripeId)
    }

    fn geometry(&self) -> Geometry {
        let width = u64::from(self.devices.count_ones());
        let (redundancy, lead) = match self.scheme {
            RedundancyScheme::Parity(k) => (u64::from(k), u64::from(k)),
            RedundancyScheme::Replication => (width - 1, 0),
        };
        let data = width - redundancy;
        let c = self.chunk_size.as_bytes();
        let chunks = self.size.as_bytes().div_ceil(c);
        let stripes = chunks.div_ceil(data);
        Geometry {
            width,
            redundancy,
            lead,
            data,
            chunks,
            stripes,
            last_group: chunks - (stripes - 1) * data,
            chunk: ByteSize::from_bytes(c),
            tail: ByteSize::from_bytes(self.size.as_bytes() - (chunks - 1) * c),
        }
    }

    /// One past the last handle the object's block reserves.
    fn handle_end(&self) -> u64 {
        let g = self.geometry();
        self.first_handle + (g.stripes - 1) * g.width + g.last_group + g.redundancy
    }

    /// The device in stripe slot `q`.
    fn device_at(&self, q: u64) -> DeviceId {
        let mut bits = self.devices;
        for _ in 0..q {
            bits &= bits - 1;
        }
        DeviceId(bits.trailing_zeros() as usize)
    }

    /// `(slot, device)` for every device the object's stripes span.
    fn slots(&self) -> impl Iterator<Item = (u64, DeviceId)> + Clone {
        let mut bits = self.devices;
        (0..u64::from(self.devices.count_ones())).map(move |q| {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            (q, DeviceId(d))
        })
    }

    /// Rotation of stripe `s` (object-relative) under the placement policy.
    fn rotation(&self, g: &Geometry, s: u64) -> u64 {
        match self.placement {
            PlacementPolicy::RoundRobin => (self.first_stripe + s) % g.width,
            PlacementPolicy::Fixed => 0,
        }
    }

    /// Position (in placement order: leading redundancy, data, trailing
    /// redundancy) of slot `q` in stripe `s`.
    fn position(&self, g: &Geometry, q: u64, s: u64) -> u64 {
        (q + g.width - self.rotation(g, s)) % g.width
    }

    /// Chunk `o` (in handle order) of stripe `s`.
    fn chunk_at(&self, g: &Geometry, s: u64, o: u64) -> Chunk {
        let last = s + 1 == g.stripes;
        let group = if last { g.last_group } else { g.data };
        let role = if self.scheme.is_replication() {
            ChunkRole::Replica(o as usize)
        } else if o < group {
            ChunkRole::Data(o as usize)
        } else {
            ChunkRole::Parity((o - group) as usize)
        };
        let placed = StripeLayout::with_placement(
            self.first_stripe + s,
            self.scheme,
            g.width as usize,
            self.placement,
        );
        let slot = match role {
            ChunkRole::Data(j) => placed.data_device(j),
            ChunkRole::Parity(p) => placed.parity_device(p),
            ChunkRole::Replica(0) => placed.data_device(0),
            ChunkRole::Replica(r) => placed.parity_device(r - 1),
        };
        let short = match role {
            ChunkRole::Data(j) => j as u64 + 1 == group,
            ChunkRole::Parity(_) => group == 1,
            ChunkRole::Replica(_) => true,
        };
        let len = if last && short { g.tail } else { g.chunk };
        let handle = ChunkHandle::new(self.first_handle + s * g.width + o);
        Chunk {
            role,
            device: self.device_at(slot.0 as u64),
            handle,
            len,
            slot: slot.0 as u64,
            stripe: s,
        }
    }

    /// Number of chunks in stripe `s`.
    fn stripe_width(&self, g: &Geometry, s: u64) -> u64 {
        if s + 1 == g.stripes {
            g.last_group + g.redundancy
        } else {
            g.width
        }
    }

    /// Every chunk of stripe `s`, in handle order.
    fn stripe_chunks(&self, g: &Geometry, s: u64) -> Vec<Chunk> {
        (0..self.stripe_width(g, s))
            .map(|o| self.chunk_at(g, s, o))
            .collect()
    }

    /// Handle-block offset of slot `q`'s chunk in the last stripe, if it
    /// holds one.
    fn tail_offset(&self, g: &Geometry, q: u64) -> Option<u64> {
        let pos = self.position(g, q, g.stripes - 1);
        if pos < g.lead {
            Some(g.last_group + pos)
        } else if pos - g.lead < g.last_group {
            Some(pos - g.lead)
        } else if self.scheme.is_replication() {
            Some(pos)
        } else {
            // Trailing positions: a full stripe's data runs up to the
            // width, a short one leaves them empty.
            None
        }
    }

    /// Slot `q`'s chunks as one device run: one full-length chunk per
    /// stripe but the last, stepping back one handle-block position per
    /// stripe under round-robin placement, then its chunk of the last
    /// stripe (if the stripe reaches it). `None` if the slot holds none.
    fn slot_run(&self, g: &Geometry, q: u64) -> Option<ChunkRun> {
        let last = self.tail_offset(g, q).map(|o| {
            let c = self.chunk_at(g, g.stripes - 1, o);
            (c.handle, c.len)
        });
        if g.stripes == 1 && last.is_none() {
            return None;
        }
        Some(ChunkRun {
            block: self.first_handle,
            stride: g.width,
            offset: (self.position(g, q, 0) + g.width - g.lead) % g.width,
            rotate: self.placement == PlacementPolicy::RoundRobin,
            count: g.stripes - 1,
            len: g.chunk,
            last,
        })
    }

    /// `(device, run)` for every slot that holds chunks of the object.
    fn runs<'a>(
        &'a self,
        g: &'a Geometry,
    ) -> impl Iterator<Item = (u64, DeviceId, ChunkRun)> + Clone + 'a {
        self.slots()
            .filter_map(move |(q, d)| self.slot_run(g, q).map(|run| (q, d, run)))
    }

    /// How many of slot `q`'s chunks in stripes `0..stripes` an intact
    /// read fetches (data chunks, or the primary replica).
    fn main_reads(&self, g: &Geometry, q: u64, stripes: u64) -> u64 {
        let read = |pos: u64| g.lead <= pos && pos < g.lead + g.data;
        let mut pos = self.position(g, q, 0);
        if self.placement == PlacementPolicy::Fixed {
            return if read(pos) { stripes } else { 0 };
        }
        // Every `width` consecutive stripes visit each position once; the
        // rest step back one position per stripe.
        let mut reads = stripes / g.width * g.data;
        for _ in 0..stripes % g.width {
            reads += u64::from(read(pos));
            pos = pos.checked_sub(1).unwrap_or(g.width - 1);
        }
        reads
    }

    /// Whether an intact read fetches slot `q`'s last-stripe chunk.
    fn tail_read(&self, g: &Geometry, q: u64) -> bool {
        let pos = self.position(g, q, g.stripes - 1);
        g.lead <= pos && pos < g.lead + g.last_group
    }

    /// Bytes of user data and of redundancy the object occupies.
    fn footprint(&self) -> SpaceUsage {
        let g = self.geometry();
        let redundancy = match self.scheme {
            RedundancyScheme::Replication => self.size * g.redundancy,
            RedundancyScheme::Parity(_) => {
                let last = if g.last_group == 1 { g.tail } else { g.chunk };
                (g.chunk * (g.stripes - 1) + last) * g.redundancy
            }
        };
        SpaceUsage {
            user_bytes: self.size,
            redundancy_bytes: redundancy,
        }
    }
}

/// Stripe geometry derived from an [`ObjectLayout`].
#[derive(Clone, Copy, Debug)]
struct Geometry {
    /// Chunks in a full stripe (devices healthy at store time).
    width: u64,
    /// Parity chunks (or extra replicas) per stripe.
    redundancy: u64,
    /// Placement positions ahead of the data: the parity count, or zero
    /// for replication.
    lead: u64,
    /// Data chunks in a full stripe (the encode-time `m`).
    data: u64,
    /// Data chunks in the object.
    chunks: u64,
    stripes: u64,
    /// Data chunks in the last stripe.
    last_group: u64,
    chunk: ByteSize,
    /// Length of the object's last data chunk.
    tail: ByteSize,
}

/// One chunk of an object, located.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    role: ChunkRole,
    device: DeviceId,
    handle: ChunkHandle,
    len: ByteSize,
    /// The stripe slot holding the chunk.
    slot: u64,
    /// The stripe (object-relative), also the chunk's index in its slot's
    /// device run.
    stripe: u64,
}

/// Cache of constructed codecs keyed by `(data, parity)` geometry.
///
/// Building a codec inverts a Vandermonde block and precomputes all
/// per-coefficient multiply kernels — far too expensive to repeat per
/// stripe operation, and an array only ever uses a handful of geometries.
#[derive(Clone, Debug, Default)]
struct CodecCache(HashMap<(usize, usize), ReedSolomon>);

impl CodecCache {
    fn get(&mut self, m: usize, k: usize) -> Result<&ReedSolomon, CodecError> {
        use std::collections::hash_map::Entry;
        match self.0.entry((m, k)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(ReedSolomon::new(m, k)?)),
        }
    }
}

/// Reusable encode buffers. Stripe operations clear and refill these,
/// leaving capacity behind for the next request — the write path performs
/// no heap allocation once buffer capacities reach steady state.
#[derive(Clone, Debug, Default)]
struct StripeScratch {
    /// Padded data shards fed to the encoder (also old/new chunk images on
    /// the delta path).
    shards: Vec<Vec<u8>>,
    /// Encoded parity rows.
    parity: Vec<Vec<u8>>,
}

/// Sizes `pool` to exactly `count` buffers of `len` zero bytes, reusing
/// whatever capacity previous requests left behind.
fn reset_buffers(pool: &mut Vec<Vec<u8>>, count: usize, len: usize) {
    pool.resize_with(count, Vec::new);
    for b in pool.iter_mut() {
        b.clear();
        b.resize(len, 0);
    }
}

/// Stores objects as variable-redundancy stripes on a [`FlashArray`].
///
/// See the crate docs for the model. One manager owns one array.
///
/// Metadata is one [`ObjectLayout`] per object; each device holds an
/// object's chunks as at most two [`ChunkRun`]s (its chunks of every full
/// stripe but the last, and its chunk of the last stripe). Request paths
/// on objects whose runs are whole and intact — no lost chunk, no real
/// payload, no armed transient fault — charge each device's share of a
/// store, read or removal in one step; every other case walks the chunks
/// one by one in the order the per-chunk model defines.
#[derive(Clone, Debug)]
pub struct StripeManager {
    array: FlashArray,
    chunk_size: ByteSize,
    placement: PlacementPolicy,
    next_handle: u64,
    next_stripe: u64,
    /// Live objects by first stripe id.
    objects: BTreeMap<u64, ObjectLayout>,
    stripe_count: usize,
    usage: SpaceUsage,
    transient_retries: u64,
    codecs: CodecCache,
    scratch: StripeScratch,
}

/// Retries per chunk read before a transient timeout is escalated.
const TRANSIENT_RETRY_LIMIT: u32 = 3;
/// Backoff before the first retry; doubles on each subsequent one.
const TRANSIENT_BACKOFF: SimDuration = SimDuration::from_micros(500);

impl StripeManager {
    /// Devices a manager can address: layouts keep one bit per device.
    pub const MAX_DEVICES: usize = 64;

    /// Creates a manager over `array` using `chunk_size` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or the array has more than 64
    /// devices.
    pub fn new(array: FlashArray, chunk_size: ByteSize) -> Self {
        Self::with_placement(array, chunk_size, PlacementPolicy::RoundRobin)
    }

    /// Creates a manager with an explicit parity placement policy (the
    /// RAID-4-style [`PlacementPolicy::Fixed`] exists for the wear-balance
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or the array has more than 64
    /// devices.
    pub fn with_placement(
        array: FlashArray,
        chunk_size: ByteSize,
        placement: PlacementPolicy,
    ) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be non-zero");
        assert!(
            array.device_count() <= Self::MAX_DEVICES,
            "a stripe manager addresses at most {} devices",
            Self::MAX_DEVICES
        );
        StripeManager {
            array,
            chunk_size,
            placement,
            next_handle: 0,
            next_stripe: 0,
            objects: BTreeMap::new(),
            stripe_count: 0,
            usage: SpaceUsage::default(),
            transient_retries: 0,
            codecs: CodecCache::default(),
            scratch: StripeScratch::default(),
        }
    }

    /// Chunk reads retried after a transient timeout, cumulatively.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// One round of seeded latent corruption across the array (see
    /// [`FaultPlan::inject_latent_corruption`]). Returns the number of
    /// chunks corrupted.
    pub fn inject_latent_corruption(&mut self, plan: &mut FaultPlan, rate: f64) -> usize {
        plan.inject_latent_corruption(&mut self.array, rate)
    }

    /// Arms per-read transient timeouts on every device (see
    /// [`FaultPlan::arm_transient_faults`]).
    pub fn arm_transient_faults(&mut self, plan: &mut FaultPlan, rate: f64) {
        plan.arm_transient_faults(&mut self.array, rate);
    }

    /// Scales one device's service times (see [`FaultPlan::slow_device`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `factor` is not finite and
    /// positive.
    pub fn slow_device(&mut self, plan: &mut FaultPlan, id: DeviceId, factor: f64) {
        plan.slow_device(&mut self.array, id, factor);
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// Immutable access to the underlying array.
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Installs a shared tracer handle; stripe- and flash-layer spans are
    /// recorded through it from then on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.array.set_tracer(tracer);
    }

    /// The tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.array.tracer()
    }

    /// Current byte accounting.
    pub fn usage(&self) -> SpaceUsage {
        self.usage
    }

    /// Total free bytes across healthy devices.
    pub fn free_capacity(&self) -> ByteSize {
        (0..self.array.device_count())
            .map(|i| self.array.device(DeviceId(i)))
            .filter(|d| d.is_healthy())
            .map(|d| d.available())
            .sum()
    }

    /// Physical bytes an object of `size` will occupy under `scheme`,
    /// including padding of partial chunks in parity stripes and all
    /// replicas — what the cache manager budgets evictions against.
    ///
    /// The estimate uses the current healthy-device count, matching what
    /// [`StripeManager::store_object`] would do right now.
    pub fn physical_bytes_needed(&self, size: ByteSize, scheme: RedundancyScheme) -> ByteSize {
        let healthy = self.array.healthy_count();
        if healthy == 0 || size.is_zero() {
            return ByteSize::ZERO;
        }
        let scheme = clamp_scheme(scheme, healthy);
        match scheme {
            RedundancyScheme::Replication => size * healthy as u64,
            RedundancyScheme::Parity(k) => {
                if k == 0 {
                    return size;
                }
                let m = healthy - k as usize;
                let chunks = size.div_ceil(self.chunk_size);
                let stripes = chunks.div_ceil(m as u64);
                // Each stripe's parity chunks are as large as its largest
                // data chunk; approximate with full chunk size.
                size + self.chunk_size * (stripes * k as u64)
            }
        }
    }

    /// Fails a device in place ("shootdown").
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fail_device(&mut self, id: DeviceId) {
        self.array.fail_device(id);
    }

    /// Replaces a device with a blank spare. Stripe metadata is retained;
    /// run the rebuild path to repopulate the spare.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_device(&mut self, id: DeviceId) {
        self.array.replace_device(id);
    }

    /// The registered layout `layout` names, or the error every operation
    /// on a stale layout reports.
    fn live(&self, layout: &ObjectLayout) -> Result<ObjectLayout, StripeError> {
        self.objects
            .get(&layout.first_stripe)
            .filter(|live| *live == layout)
            .copied()
            .ok_or(StripeError::UnknownStripe(StripeId(layout.first_stripe)))
    }

    /// `true` when every chunk of the object is stored whole, intact and
    /// size-only on a healthy device without armed transient faults — the
    /// case whose status is known without a per-stripe scan.
    fn clean(&self, layout: &ObjectLayout, g: &Geometry) -> bool {
        !layout.real
            && layout.runs(g).all(|(_, d, run)| {
                let device = self.array.device(d);
                !device.transient_faults_armed() && device.run_is_clean(&run)
            })
    }

    /// Stores an object and returns its layout.
    ///
    /// `owner` is an opaque tag echoed back in [`ObjectLayout::owner`];
    /// `payload`, when given, must be exactly `size` bytes and enables real
    /// byte-for-byte reads and reconstruction. Without it the stripes are
    /// synthetic (sizes and timing only).
    ///
    /// If devices have failed, placement uses only the surviving devices
    /// and the parity count is clamped to `healthy - 1`, so the cache keeps
    /// accepting objects "as long as there is at least one working device"
    /// (Section VI-C).
    ///
    /// Chunks are programmed stripe by stripe, data before parity. When a
    /// device runs out of room part-way, every chunk programmed before the
    /// one that failed keeps its device time and wear, and is then freed.
    ///
    /// # Errors
    ///
    /// * [`StripeError::EmptyObject`] — `size` is zero.
    /// * [`StripeError::PayloadSizeMismatch`] — payload length ≠ `size`.
    /// * [`StripeError::NoHealthyDevices`] — the whole array is down.
    /// * [`StripeError::Flash`] — a device rejected a write (e.g. full);
    ///   partially written chunks are rolled back.
    pub fn store_object(
        &mut self,
        owner: u64,
        size: ByteSize,
        scheme: RedundancyScheme,
        payload: Option<&[u8]>,
    ) -> Result<ObjectLayout, StripeError> {
        if size.is_zero() {
            return Err(StripeError::EmptyObject);
        }
        if let Some(p) = payload {
            if p.len() as u64 != size.as_bytes() {
                return Err(StripeError::PayloadSizeMismatch {
                    declared: size.as_bytes(),
                    payload: p.len() as u64,
                });
            }
        }
        let devices = (0..self.array.device_count())
            .filter(|&i| self.array.device(DeviceId(i)).is_healthy())
            .fold(0u64, |mask, i| mask | 1 << i);
        if devices == 0 {
            return Err(StripeError::NoHealthyDevices);
        }
        let layout = ObjectLayout {
            owner,
            size,
            scheme: clamp_scheme(scheme, devices.count_ones() as usize),
            chunk_size: self.chunk_size,
            first_stripe: self.next_stripe,
            first_handle: self.next_handle,
            devices,
            placement: self.placement,
            real: payload.is_some(),
        };
        let g = layout.geometry();
        let now = self.array.clock().now();

        // Handles follow write order, so the first chunk (over all
        // devices) that does not fit is the one with the lowest handle.
        let mut failure: Option<(ChunkHandle, FlashError)> = None;
        for (_, d, run) in layout.runs(&g) {
            if let (fit, Some(err)) = self.array.device(d).writable(&run) {
                let h = run.handle(fit);
                if failure.as_ref().is_none_or(|(at, _)| h < *at) {
                    failure = Some((h, err));
                }
            }
        }
        let end = failure
            .as_ref()
            .map_or(layout.handle_end(), |(h, _)| h.as_u64());

        let mut latest = now;
        for (_, d, run) in layout.runs(&g) {
            let run = run.below(ChunkHandle::new(end));
            if run.chunks() > 0 {
                let done = self.array.device_mut(d).program_run(&run, now)?;
                latest = latest.max(done);
            }
        }
        let result = match failure {
            Some((_, err)) => Err(StripeError::Flash(err)),
            None => match payload {
                Some(p) => self.attach_payloads(&layout, &g, p),
                None => Ok(()),
            },
        };
        if let Err(e) = result {
            // Roll back the chunks; their device time and wear stay spent.
            for (_, d, run) in layout.runs(&g) {
                let run = run.below(ChunkHandle::new(end));
                if run.chunks() > 0 {
                    self.array.device_mut(d).remove_run(&run);
                }
            }
            // The failing chunk's handle and stripe were allocated too.
            self.next_handle = end + 1;
            self.next_stripe = layout.first_stripe + (end - layout.first_handle) / g.width + 1;
            return Err(e);
        }
        self.next_handle = end;
        self.next_stripe = layout.first_stripe + g.stripes;
        let footprint = layout.footprint();
        self.usage.user_bytes += footprint.user_bytes;
        self.usage.redundancy_bytes += footprint.redundancy_bytes;
        self.objects.insert(layout.first_stripe, layout);
        self.stripe_count += g.stripes as usize;

        let completed_at = self.array.complete_batch([latest]);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "store", now, completed_at);
        Ok(layout)
    }

    /// Gives every chunk of a freshly programmed object its bytes: data
    /// chunks and replicas from `payload`, parity chunks encoded from the
    /// stripe's data shards (padded to the stripe's parity length; a
    /// short stripe's missing data rows stay zero — phantom shards).
    fn attach_payloads(
        &mut self,
        layout: &ObjectLayout,
        g: &Geometry,
        payload: &[u8],
    ) -> Result<(), StripeError> {
        let m = g.data as usize;
        let k = g.redundancy as usize;
        for s in 0..g.stripes {
            let chunks = layout.stripe_chunks(g, s);
            let parity_len = chunks
                .iter()
                .map(|c| c.len)
                .fold(ByteSize::ZERO, ByteSize::max);
            let data_bytes = |c: &Chunk| {
                let j = match c.role {
                    ChunkRole::Data(j) => j as u64,
                    _ => 0,
                };
                let off = ((s * g.data + j) * g.chunk.as_bytes()) as usize;
                &payload[off..off + c.len.as_bytes() as usize]
            };
            let encode = !layout.scheme.is_replication() && k > 0;
            if encode {
                let plen = parity_len.as_bytes() as usize;
                reset_buffers(&mut self.scratch.shards, m, plen);
                self.scratch.parity.resize_with(k, Vec::new);
                for (j, c) in chunks.iter().enumerate() {
                    if matches!(c.role, ChunkRole::Data(_)) {
                        self.scratch.shards[j][..c.len.as_bytes() as usize]
                            .copy_from_slice(data_bytes(c));
                    }
                }
                let rs = self.codecs.get(m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
            for c in &chunks {
                let bytes = match c.role {
                    ChunkRole::Parity(p) => Bytes::copy_from_slice(&self.scratch.parity[p]),
                    _ => Bytes::copy_from_slice(data_bytes(c)),
                };
                self.array
                    .device_mut(c.device)
                    .attach_payload(c.handle, bytes);
            }
        }
        Ok(())
    }

    /// The object's health, computed from chunk intactness. Free — no
    /// service time is charged (a metadata scan).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a removed
    /// stripe.
    pub fn object_status(&self, layout: &ObjectLayout) -> Result<ObjectStatus, StripeError> {
        let layout = self.live(layout)?;
        let g = layout.geometry();
        if self.clean(&layout, &g) {
            return Ok(ObjectStatus::Intact);
        }
        let mut degraded = false;
        for s in 0..g.stripes {
            match stripe_health_on(&self.array, &layout, &layout.stripe_chunks(&g, s)) {
                StripeHealth::Intact => {}
                StripeHealth::Degraded(_) => degraded = true,
                StripeHealth::Lost(_) => return Ok(ObjectStatus::Lost),
            }
        }
        Ok(if degraded {
            ObjectStatus::Degraded
        } else {
            ObjectStatus::Intact
        })
    }

    /// Reads an object, reconstructing lost chunks on the fly when needed
    /// (the paper's on-demand degraded read, Section IV-D).
    ///
    /// # Errors
    ///
    /// * [`StripeError::ObjectLost`] — some stripe lost more chunks than
    ///   its redundancy tolerates.
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::Flash`] — unexpected device error.
    pub fn read_object(&mut self, layout: &ObjectLayout) -> Result<ReadOutcome, StripeError> {
        let layout = self.live(layout)?;
        let g = layout.geometry();
        let now = self.array.clock().now();
        // An object whose every chunk is stored clean: each device reads
        // its data chunks back to back, in stripe order.
        let runs = layout.runs(&g).map(|(q, d, run)| {
            let reads = layout.main_reads(&g, q, run.count);
            (d, run, reads, layout.tail_read(&g, q))
        });
        let clean = if layout.real {
            None
        } else {
            self.array.read_clean_runs(runs, now)
        };
        if let Some(latest) = clean {
            let completed_at = self.array.complete_batch([latest]);
            self.array
                .tracer()
                .record_span(Layer::Stripe, "read", now, completed_at);
            return Ok(ReadOutcome {
                bytes: None,
                degraded: false,
                completed_at,
            });
        }

        let retries_before = self.transient_retries;
        let mut completions: Vec<SimTime> = Vec::new();
        let mut degraded = false;
        let mut assembled: Option<Vec<Vec<u8>>> = None;
        for s in 0..g.stripes {
            let chunks = layout.stripe_chunks(&g, s);
            let stripe_bytes = match stripe_health_on(&self.array, &layout, &chunks) {
                StripeHealth::Lost(lost) => {
                    return Err(StripeError::ObjectLost {
                        stripe: StripeId(layout.first_stripe + s),
                        lost,
                        tolerated: layout.scheme.failures_tolerated(chunks.len()),
                    });
                }
                // Plain read of data chunks / primary replica.
                StripeHealth::Intact => self.read_stripe_data(&chunks, now, &mut completions)?,
                StripeHealth::Degraded(_) => {
                    degraded = true;
                    self.degraded_read_stripe(&layout, &g, &chunks, now, &mut completions)?
                }
            };
            if let Some(b) = stripe_bytes {
                assembled.get_or_insert_with(Vec::new).push(b);
            }
        }

        let completed_at = self.array.complete_batch(completions);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "read", now, completed_at);
        if degraded {
            // On-the-fly reconstruction served this read: flag the event
            // on the request's trace tree.
            self.array.tracer().annotate("read-repair", completed_at);
        }
        if self.transient_retries > retries_before {
            self.array.tracer().annotate("retry", completed_at);
        }
        let bytes = assembled.map(|per_stripe| {
            let mut out: Vec<u8> = per_stripe.into_iter().flatten().collect();
            out.truncate(layout.size.as_bytes() as usize);
            out
        });
        Ok(ReadOutcome {
            bytes,
            degraded,
            completed_at,
        })
    }

    /// The stripe and in-stripe data index of the object's data chunk
    /// `chunk_index`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_index` is out of range.
    fn locate_data_chunk(layout: &ObjectLayout, g: &Geometry, chunk_index: u64) -> (u64, usize) {
        assert!(
            chunk_index < g.chunks,
            "chunk index {chunk_index} out of range for object {}",
            layout.owner
        );
        (chunk_index / g.data, (chunk_index % g.data) as usize)
    }

    /// Overwrites one data chunk of an object in place, maintaining
    /// parity with whichever update strategy costs fewer chunk reads
    /// (Section II-B of the paper: direct re-encoding reads the `m - 1`
    /// sibling data chunks; delta patching reads the old chunk plus the
    /// `k` parity chunks).
    ///
    /// `chunk_index` counts the object's data chunks from zero in object
    /// order. `new_payload`, when given, must match the chunk's stored
    /// length; omit it for synthetic (timing-only) stripes.
    ///
    /// Returns the strategy used and the completion instant.
    ///
    /// # Errors
    ///
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::ObjectLost`] — the stripe has lost chunks and no
    ///   update strategy can run without them (overwrite requires an
    ///   intact stripe).
    /// * [`StripeError::PayloadSizeMismatch`] — payload length differs
    ///   from the chunk's.
    /// * [`StripeError::Flash`] — device-level failures.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_index` is out of range for the layout.
    pub fn overwrite_chunk(
        &mut self,
        layout: &ObjectLayout,
        chunk_index: u64,
        new_payload: Option<&[u8]>,
    ) -> Result<(ParityUpdate, SimTime), StripeError> {
        let layout = self.live(layout)?;
        let g = layout.geometry();
        let (s, local_j) = Self::locate_data_chunk(&layout, &g, chunk_index);
        let now = self.array.clock().now();
        let mut completions: Vec<SimTime> = Vec::new();
        let chunks = layout.stripe_chunks(&g, s);

        // Overwrites need the stripe intact: reconstructing *and*
        // updating in one step is the rebuild path's job.
        if let StripeHealth::Degraded(lost) | StripeHealth::Lost(lost) =
            stripe_health_on(&self.array, &layout, &chunks)
        {
            return Err(StripeError::ObjectLost {
                stripe: StripeId(layout.first_stripe + s),
                lost,
                tolerated: layout.scheme.failures_tolerated(chunks.len()),
            });
        }

        let target = chunks[local_j];
        if let Some(p) = new_payload {
            if p.len() as u64 != target.len.as_bytes() {
                return Err(StripeError::PayloadSizeMismatch {
                    declared: target.len.as_bytes(),
                    payload: p.len() as u64,
                });
            }
        }
        let stored = |len: ByteSize| match new_payload {
            Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
            None => StoredChunk::synthetic(len),
        };

        let method = match layout.scheme {
            RedundancyScheme::Replication => {
                // Rewrite every replica with the new contents.
                for c in &chunks {
                    completions.push(self.write(&layout, &g, c, stored(c.len), now)?);
                }
                ParityUpdate::Rewrite
            }
            RedundancyScheme::Parity(0) => {
                completions.push(self.write(&layout, &g, &target, stored(target.len), now)?);
                ParityUpdate::Rewrite
            }
            RedundancyScheme::Parity(_) => self.overwrite_with_parity(
                &layout,
                &g,
                &chunks,
                local_j,
                new_payload,
                now,
                &mut completions,
            )?,
        };

        let completed_at = self.array.complete_batch(completions);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "overwrite", now, completed_at);
        Ok((method, completed_at))
    }

    /// Rebuilds every lost chunk of an object back onto its (replaced)
    /// devices. Reads `m` survivors per damaged stripe, re-encodes, and
    /// writes the missing chunks. No-op for intact objects.
    ///
    /// Returns the completion instant.
    ///
    /// # Errors
    ///
    /// * [`StripeError::ObjectLost`] — a stripe is beyond recovery.
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::Flash`] — the rebuild target device rejected a
    ///   write (e.g. it is still failed).
    pub fn rebuild_object(&mut self, layout: &ObjectLayout) -> Result<SimTime, StripeError> {
        let layout = self.live(layout)?;
        let g = layout.geometry();
        let now = self.array.clock().now();
        let mut completions: Vec<SimTime> = Vec::new();
        if !self.clean(&layout, &g) {
            for s in 0..g.stripes {
                let chunks = layout.stripe_chunks(&g, s);
                match stripe_health_on(&self.array, &layout, &chunks) {
                    StripeHealth::Intact => continue,
                    StripeHealth::Lost(lost) => {
                        return Err(StripeError::ObjectLost {
                            stripe: StripeId(layout.first_stripe + s),
                            lost,
                            tolerated: layout.scheme.failures_tolerated(chunks.len()),
                        });
                    }
                    StripeHealth::Degraded(_) => {}
                }
                self.rebuild_stripe(&layout, &g, &chunks, now, &mut completions)?;
            }
        }
        let completed_at = self.array.complete_batch(completions);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "rebuild", now, completed_at);
        Ok(completed_at)
    }

    /// Corrupts one data chunk of an object in place (a partial flash
    /// failure — a worn-out block — rather than a whole-device loss). The
    /// object becomes [`ObjectStatus::Degraded`] (or
    /// [`ObjectStatus::Lost`] if its redundancy cannot cover the damage).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] for stale layouts.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_index` is out of range.
    pub fn corrupt_data_chunk(
        &mut self,
        layout: &ObjectLayout,
        chunk_index: u64,
    ) -> Result<(), StripeError> {
        let layout = self.live(layout)?;
        let g = layout.geometry();
        let (s, j) = Self::locate_data_chunk(&layout, &g, chunk_index);
        let c = layout.chunk_at(&g, s, j as u64);
        self.array.device_mut(c.device).corrupt_chunk(c.handle);
        Ok(())
    }

    /// Removes an object, releasing all its chunks and accounting. Chunks
    /// on failed devices are forgotten (their space died with the device).
    ///
    /// Stale layouts (already removed) are a no-op.
    pub fn remove_object(&mut self, layout: &ObjectLayout) {
        let Ok(layout) = self.live(layout) else {
            return;
        };
        let g = layout.geometry();
        for (_, d, run) in layout.runs(&g) {
            self.array.device_mut(d).remove_run(&run);
        }
        self.forget(&layout);
    }

    /// Drops an object's metadata and byte accounting (its chunks stay).
    fn forget(&mut self, layout: &ObjectLayout) {
        let footprint = layout.footprint();
        self.usage.user_bytes = self.usage.user_bytes.saturating_sub(footprint.user_bytes);
        self.usage.redundancy_bytes = self
            .usage
            .redundancy_bytes
            .saturating_sub(footprint.redundancy_bytes);
        self.stripe_count -= layout.geometry().stripes as usize;
        self.objects.remove(&layout.first_stripe);
    }

    /// Number of live stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripe_count
    }

    /// Serializes an object's layout *and* the metadata of every stripe it
    /// references into an opaque blob for the metadata journal. The blob
    /// contains no chunk payloads — only placement (owner, size, scheme,
    /// and per-stripe chunk roles/devices/handles/lengths).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a stripe
    /// this manager no longer knows.
    pub fn export_object_meta(&self, layout: &ObjectLayout) -> Result<Vec<u8>, StripeError> {
        Ok(encode_meta(&self.live(layout)?))
    }

    /// Re-registers an object from a blob produced by
    /// [`StripeManager::export_object_meta`]: reinstalls its metadata,
    /// folds its chunks back into the byte accounting, bumps the
    /// handle/stripe allocators past every installed identifier, and
    /// returns the reconstructed layout. Chunk *contents* are not touched —
    /// they either survived on the array or are found missing by the
    /// post-recovery audit.
    ///
    /// Installing over stripes that are already registered replaces the
    /// objects holding them (last write wins, matching journal replay
    /// order).
    ///
    /// # Errors
    ///
    /// [`StripeError::CorruptMetadata`] if the blob does not parse, or
    /// does not describe an object this manager's geometry could have
    /// stored.
    pub fn install_object_meta(&mut self, bytes: &[u8]) -> Result<ObjectLayout, StripeError> {
        let layout = self.decode_meta(bytes)?;
        let g = layout.geometry();
        let end = layout.first_stripe + g.stripes;
        let replaced: Vec<ObjectLayout> = self
            .objects
            .range(..end)
            .rev()
            .map(|(_, l)| *l)
            .take_while(|l| l.first_stripe + l.geometry().stripes > layout.first_stripe)
            .collect();
        for old in &replaced {
            self.forget(old);
        }
        let footprint = layout.footprint();
        self.usage.user_bytes += footprint.user_bytes;
        self.usage.redundancy_bytes += footprint.redundancy_bytes;
        self.stripe_count += g.stripes as usize;
        self.objects.insert(layout.first_stripe, layout);
        self.next_handle = self.next_handle.max(layout.handle_end());
        self.next_stripe = self.next_stripe.max(end);
        Ok(layout)
    }

    /// Parses a blob from [`encode_meta`] back into the layout it was
    /// encoded from.
    fn decode_meta(&self, bytes: &[u8]) -> Result<ObjectLayout, StripeError> {
        struct Cursor<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl Cursor<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], StripeError> {
                let s = self
                    .bytes
                    .get(self.at..self.at + N)
                    .ok_or(StripeError::CorruptMetadata)?;
                self.at += N;
                Ok(s.try_into().expect("slice of length N"))
            }
            fn u8(&mut self) -> Result<u8, StripeError> {
                Ok(self.take::<1>()?[0])
            }
            fn u32(&mut self) -> Result<u64, StripeError> {
                Ok(u64::from(u32::from_le_bytes(self.take()?)))
            }
            fn u64(&mut self) -> Result<u64, StripeError> {
                Ok(u64::from_le_bytes(self.take()?))
            }
            fn scheme(&mut self) -> Result<RedundancyScheme, StripeError> {
                let tag = self.u8()?;
                let k = self.u8()?;
                match tag {
                    0 => Ok(RedundancyScheme::Parity(k)),
                    1 => Ok(RedundancyScheme::Replication),
                    _ => Err(StripeError::CorruptMetadata),
                }
            }
        }
        let corrupt = StripeError::CorruptMetadata;
        let device_count = self.array.device_count() as u64;
        let mut cur = Cursor { bytes, at: 0 };
        let owner = cur.u64()?;
        let size = ByteSize::from_bytes(cur.u64()?);
        let scheme = cur.scheme()?;
        let stripes = cur.u32()?;
        if size.is_zero() || stripes == 0 {
            return Err(corrupt);
        }
        let lead = match scheme {
            RedundancyScheme::Parity(k) => u64::from(k),
            RedundancyScheme::Replication => 0,
        };
        // Walk the chunks to learn the stripe width, the first stripe and
        // handle, and which device each stripe slot maps to.
        let (mut width, mut first_stripe, mut first_handle) = (0, 0, 0);
        let mut real = false;
        let mut known = [None::<u64>; Self::MAX_DEVICES];
        for s in 0..stripes {
            let sid = cur.u64()?;
            cur.scheme()?;
            let encode_m = cur.u32()?;
            let count = cur.u32()?;
            if s == 0 {
                width = match scheme {
                    RedundancyScheme::Parity(k) => encode_m + u64::from(k),
                    RedundancyScheme::Replication => count,
                };
                if encode_m == 0 || width == 0 || width > device_count {
                    return Err(corrupt);
                }
                first_stripe = sid;
            }
            let rotation = match self.placement {
                PlacementPolicy::RoundRobin => sid % width,
                PlacementPolicy::Fixed => 0,
            };
            for o in 0..count {
                let role = cur.u8()?;
                let idx = cur.u32()?;
                let device = cur.u32()?;
                let handle = cur.u64()?;
                cur.u64()?;
                real = cur.u8()? == 1;
                if s == 0 && o == 0 {
                    first_handle = handle;
                }
                let pos = match role {
                    0 => lead + idx,
                    1 | 2 => idx,
                    _ => return Err(corrupt),
                };
                if pos >= width || device >= device_count {
                    return Err(corrupt);
                }
                let q = ((rotation + pos) % width) as usize;
                match known[q] {
                    Some(d) if d != device => return Err(corrupt),
                    _ => known[q] = Some(device),
                }
            }
        }
        // The object's stripe ids and handle block must fit the id space.
        if first_stripe.checked_add(stripes).is_none()
            || first_handle.checked_add(stripes * width).is_none()
        {
            return Err(corrupt);
        }
        // Slots the blob leaves empty (a lone short stripe) get the lowest
        // ids that keep the device list ascending; no chunk lives there.
        let mut devices = 0u64;
        let mut prev: Option<u64> = None;
        for slot in &known[..width as usize] {
            let d = slot.unwrap_or_else(|| prev.map_or(0, |p| p + 1));
            if prev.is_some_and(|p| d <= p) || d >= device_count {
                return Err(corrupt);
            }
            devices |= 1 << d;
            prev = Some(d);
        }
        let layout = ObjectLayout {
            owner,
            size,
            scheme,
            chunk_size: self.chunk_size,
            first_stripe,
            first_handle,
            devices,
            placement: self.placement,
            real,
        };
        // The candidate must re-encode to exactly the blob.
        if layout.geometry().stripes != stripes || encode_meta(&layout) != bytes {
            return Err(corrupt);
        }
        Ok(layout)
    }

    /// Simulates the DRAM side of a power loss: every piece of in-memory
    /// stripe metadata (object layouts, byte accounting, allocator
    /// cursors) vanishes. The flash array — the durable medium — is
    /// untouched.
    pub fn simulate_crash(&mut self) {
        self.objects.clear();
        self.stripe_count = 0;
        self.usage = SpaceUsage::default();
        self.next_handle = 0;
        self.next_stripe = 0;
    }

    /// Every `(device, handle)` pair of every live object's chunks.
    fn all_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs = Vec::new();
        for layout in self.objects.values() {
            let g = layout.geometry();
            for s in 0..g.stripes {
                refs.extend(
                    layout
                        .stripe_chunks(&g, s)
                        .iter()
                        .map(|c| (c.device, c.handle)),
                );
            }
        }
        refs.sort_unstable_by_key(|(d, h)| (d.0, h.as_u64()));
        refs
    }

    /// Every `(device, handle)` pair referenced by live stripe metadata,
    /// sorted and deduplicated.
    pub fn referenced_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs = self.all_chunks();
        refs.dedup();
        refs
    }

    /// `(device, handle)` pairs claimed by more than one stripe chunk — a
    /// violation of the no-double-allocated-chunk invariant. Empty on a
    /// consistent manager.
    pub fn double_allocated_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let refs = self.all_chunks();
        let mut dup = Vec::new();
        for w in refs.windows(2) {
            if w[0] == w[1] && dup.last() != Some(&w[0]) {
                dup.push(w[0]);
            }
        }
        dup
    }

    /// Removes every chunk on the array that no live stripe references —
    /// the orphans left behind by writes whose metadata never reached the
    /// journal before a crash, or by removals whose chunk frees raced the
    /// crash. Returns how many chunks were collected.
    pub fn remove_unreferenced_chunks(&mut self) -> usize {
        let referenced: HashSet<(usize, u64)> = self
            .referenced_chunks()
            .into_iter()
            .map(|(d, h)| (d.0, h.as_u64()))
            .collect();
        let mut removed = 0;
        for id in 0..self.array.device_count() {
            let device = self.array.device_mut(DeviceId(id));
            for handle in device.chunk_handles() {
                if !referenced.contains(&(id, handle.as_u64())) {
                    device.remove_chunk(handle);
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// The chunk-by-chunk request paths: degraded reads, overwrites and
/// rebuilds, and reads of objects with real payloads or armed transient
/// faults. Each walks its stripes' chunks in handle order, which is the
/// order the per-chunk model issues device operations in.
impl StripeManager {
    /// Writes `chunk` in place of `c` (into its slot's run, so a chunk
    /// rewritten onto a spare joins the run it belongs to).
    fn write(
        &mut self,
        layout: &ObjectLayout,
        g: &Geometry,
        c: &Chunk,
        chunk: StoredChunk,
        now: SimTime,
    ) -> Result<SimTime, FlashError> {
        let run = layout
            .slot_run(g, c.slot)
            .expect("a slot holding a chunk has a run");
        self.array
            .device_mut(c.device)
            .write_run_chunk(&run, c.stripe, chunk, now)
    }

    /// Reads `c`, retrying transient timeouts.
    fn read(&mut self, c: &Chunk, now: SimTime) -> Result<(StoredChunk, SimTime), FlashError> {
        read_chunk_retrying(
            &mut self.array,
            &mut self.transient_retries,
            c.device,
            c.handle,
            now,
        )
    }

    /// Reads the data chunks of an intact stripe. Returns assembled bytes
    /// if the stripe holds real payloads.
    fn read_stripe_data(
        &mut self,
        chunks: &[Chunk],
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<Option<Vec<u8>>, StripeError> {
        let mut parts: Vec<Option<Vec<u8>>> = Vec::new();
        for c in chunks {
            // Data chunks, or the primary replica only.
            if !matches!(c.role, ChunkRole::Data(_) | ChunkRole::Replica(0)) {
                continue;
            }
            let (chunk, done) = self.read(c, now)?;
            completions.push(done);
            parts.push(chunk.payload().as_bytes().map(|b| b.to_vec()));
        }
        if parts.iter().all(Option::is_some) && !parts.is_empty() {
            Ok(Some(parts.into_iter().flatten().flatten().collect()))
        } else {
            Ok(None)
        }
    }

    /// Degraded read: read enough surviving chunks to reconstruct the
    /// stripe's data, decode if payloads are real.
    fn degraded_read_stripe(
        &mut self,
        layout: &ObjectLayout,
        g: &Geometry,
        chunks: &[Chunk],
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<Option<Vec<u8>>, StripeError> {
        if layout.scheme.is_replication() {
            // Any surviving replica serves the read.
            let replica = *chunks
                .iter()
                .find(|c| chunk_intact_on(&self.array, c))
                .expect("degraded (not lost) stripe has a survivor");
            let (chunk, done) = self.read(&replica, now)?;
            completions.push(done);
            return Ok(chunk.payload().as_bytes().map(|b| b.to_vec()));
        }

        // Parity stripe: collect survivors (data + parity), read the first
        // `m` of them, reconstruct. The shard array is in codec order:
        // data shards (padded to the encode-time `m` with phantom zero
        // shards for short stripes), then parity shards.
        let m_actual = chunks
            .iter()
            .filter(|c| matches!(c.role, ChunkRole::Data(_)))
            .count();
        let parity_count = chunks.len() - m_actual;
        let plen = parity_len(chunks).as_bytes() as usize;
        let codec_m = g.data as usize;
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; codec_m + parity_count];
        // Phantom zero shards (short stripes) are always "present".
        for shard in shards.iter_mut().take(codec_m).skip(m_actual) {
            *shard = Some(vec![0u8; plen]);
        }
        let mut reads_done = 0usize;
        for c in chunks {
            if !chunk_intact_on(&self.array, c) {
                continue;
            }
            // Only read up to m shards total (phantoms are free).
            if reads_done + (codec_m - m_actual) < codec_m {
                let (chunk, done) = self.read(c, now)?;
                completions.push(done);
                reads_done += 1;
                shards[shard_index(c, codec_m)] = Some(padded(&chunk, plen));
            }
        }

        if !layout.real {
            // Synthetic mode: timing already charged; nothing to decode.
            return Ok(None);
        }
        let rs = self.codecs.get(codec_m, parity_count)?;
        rs.reconstruct(&mut shards)?;

        // Assemble data bytes in order, trimming to recorded lengths.
        let mut out = Vec::new();
        for c in chunks {
            if let ChunkRole::Data(j) = c.role {
                let shard = shards[j].as_ref().expect("reconstructed");
                out.extend_from_slice(&shard[..c.len.as_bytes() as usize]);
            }
        }
        Ok(Some(out))
    }

    /// The parity-maintaining overwrite: picks delta vs direct by read
    /// count, reads what it needs, recomputes parity, writes back.
    ///
    /// All encode inputs and outputs live in the manager's scratch pool,
    /// so the steady-state write path allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn overwrite_with_parity(
        &mut self,
        layout: &ObjectLayout,
        g: &Geometry,
        chunks: &[Chunk],
        local_j: usize,
        new_payload: Option<&[u8]>,
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<ParityUpdate, StripeError> {
        let target = chunks[local_j];
        let parity: Vec<Chunk> = chunks
            .iter()
            .filter(|c| matches!(c.role, ChunkRole::Parity(_)))
            .copied()
            .collect();
        let k = parity.len();
        let m_actual = chunks.len() - k;
        let plen = parity_len(chunks).as_bytes() as usize;
        let real = layout.real;
        let encode_m = g.data as usize;

        // Section II-B's rule: the method with the fewest chunk reads.
        let delta_reads = 1 + k;
        let direct_reads = m_actual.saturating_sub(1);
        let use_delta = delta_reads <= direct_reads;

        if use_delta {
            // Read the old chunk and all parity chunks, padding each into
            // scratch; patch parity in place with the fused delta kernel.
            // scratch.shards[0] holds the old image, [1] the new one.
            reset_buffers(&mut self.scratch.shards, 2, plen);
            reset_buffers(&mut self.scratch.parity, k, plen);
            let (old_chunk, done) = self.read(&target, now)?;
            completions.push(done);
            if real {
                let b = old_chunk.payload().as_bytes().expect("real stripe");
                self.scratch.shards[0][..b.len()].copy_from_slice(b);
                let new = new_payload.expect("real stripes get real payloads");
                self.scratch.shards[1][..new.len()].copy_from_slice(new);
            }
            for (p, c) in parity.iter().enumerate() {
                let (chunk, done) = self.read(c, now)?;
                completions.push(done);
                if real {
                    let b = chunk.payload().as_bytes().expect("real stripe");
                    self.scratch.parity[p][..b.len()].copy_from_slice(b);
                }
            }
            if real {
                let rs = self.codecs.get(encode_m, k)?;
                let (old, new) = (&self.scratch.shards[0], &self.scratch.shards[1]);
                reo_erasure::delta::apply_delta_update(
                    rs,
                    local_j,
                    old,
                    new,
                    &mut self.scratch.parity,
                )?;
            }
        } else {
            // Read the sibling data chunks and re-encode from scratch.
            // Rows past `m_actual` stay zero — the phantom shards of a
            // short stripe.
            reset_buffers(&mut self.scratch.shards, encode_m, plen);
            self.scratch.parity.resize_with(k, Vec::new);
            for (j, c) in chunks[..m_actual].iter().enumerate() {
                if j == local_j {
                    if let Some(p) = new_payload {
                        self.scratch.shards[j][..p.len()].copy_from_slice(p);
                    }
                    continue;
                }
                let (chunk, done) = self.read(c, now)?;
                completions.push(done);
                if real {
                    if let Some(b) = chunk.payload().as_bytes() {
                        self.scratch.shards[j][..b.len()].copy_from_slice(b);
                    }
                }
            }
            if real {
                let rs = self.codecs.get(encode_m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
        }

        // Write the new data chunk and the refreshed parity chunks.
        let stored = match new_payload {
            Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
            None => StoredChunk::synthetic(target.len),
        };
        completions.push(self.write(layout, g, &target, stored, now)?);
        for (p, c) in parity.iter().enumerate() {
            let stored = if real {
                StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            completions.push(self.write(layout, g, c, stored, now)?);
        }

        Ok(if use_delta {
            ParityUpdate::Delta
        } else {
            ParityUpdate::Direct
        })
    }

    /// Rebuilds the lost chunks of one degraded stripe back onto their
    /// (replaced) devices.
    fn rebuild_stripe(
        &mut self,
        layout: &ObjectLayout,
        g: &Geometry,
        chunks: &[Chunk],
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<(), StripeError> {
        if layout.scheme.is_replication() {
            // Copy a surviving replica onto each lost slot.
            let survivor = *chunks
                .iter()
                .find(|c| chunk_intact_on(&self.array, c))
                .expect("degraded stripe has a survivor");
            let (src, done) = self.read(&survivor, now)?;
            completions.push(done);
            let lost: Vec<Chunk> = chunks
                .iter()
                .filter(|c| !chunk_intact_on(&self.array, c))
                .copied()
                .collect();
            for c in lost {
                let stored = match src.payload().as_bytes() {
                    Some(b) => StoredChunk::real(b.clone()),
                    None => StoredChunk::synthetic(c.len),
                };
                completions.push(self.write(layout, g, &c, stored, now)?);
            }
            return Ok(());
        }

        // Parity stripe: reconstruct all shards, write back lost.
        let plen = parity_len(chunks).as_bytes() as usize;
        let codec_m = g.data as usize;
        let parity_count = chunks
            .iter()
            .filter(|c| matches!(c.role, ChunkRole::Parity(_)))
            .count();
        let m_actual = chunks.len() - parity_count;

        let mut shards: Vec<Option<Vec<u8>>> = vec![None; codec_m + parity_count];
        for shard in shards.iter_mut().take(codec_m).skip(m_actual) {
            *shard = Some(vec![0u8; plen]);
        }
        let mut survivors_read = 0usize;
        for c in chunks {
            if !chunk_intact_on(&self.array, c) {
                continue;
            }
            if survivors_read + (codec_m - m_actual) >= codec_m {
                break;
            }
            let (chunk, done) = self.read(c, now)?;
            completions.push(done);
            survivors_read += 1;
            shards[shard_index(c, codec_m)] = Some(padded(&chunk, plen));
        }

        if layout.real {
            let rs = self.codecs.get(codec_m, parity_count)?;
            rs.reconstruct(&mut shards)?;
        }

        let lost: Vec<Chunk> = chunks
            .iter()
            .filter(|c| !chunk_intact_on(&self.array, c))
            .copied()
            .collect();
        for c in lost {
            let stored = if layout.real {
                let shard = shards[shard_index(&c, codec_m)]
                    .as_ref()
                    .expect("reconstructed");
                StoredChunk::real(Bytes::copy_from_slice(&shard[..c.len.as_bytes() as usize]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            completions.push(self.write(layout, g, &c, stored, now)?);
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StripeHealth {
    Intact,
    Degraded(usize),
    Lost(usize),
}

/// Reads a chunk, absorbing transient timeouts: waits out a doubling
/// backoff and retries up to [`TRANSIENT_RETRY_LIMIT`] times before
/// letting the error escalate. The backoff is charged to the operation's
/// timeline (the retried read starts later), so transient faults surface
/// as latency, not data loss.
fn read_chunk_retrying(
    array: &mut FlashArray,
    transient_retries: &mut u64,
    device: DeviceId,
    handle: ChunkHandle,
    now: SimTime,
) -> Result<(StoredChunk, SimTime), FlashError> {
    let mut at = now;
    let mut backoff = TRANSIENT_BACKOFF;
    let mut attempts = 0;
    loop {
        match array.device_mut(device).read_chunk(handle, at) {
            Err(FlashError::TransientTimeout { .. }) if attempts < TRANSIENT_RETRY_LIMIT => {
                attempts += 1;
                *transient_retries += 1;
                at += backoff;
                backoff = backoff * 2;
            }
            other => return other,
        }
    }
}

fn chunk_intact_on(array: &FlashArray, c: &Chunk) -> bool {
    array.device(c.device).chunk_is_intact(c.handle)
}

fn stripe_health_on(array: &FlashArray, layout: &ObjectLayout, chunks: &[Chunk]) -> StripeHealth {
    let lost = chunks.iter().filter(|c| !chunk_intact_on(array, c)).count();
    if lost == 0 {
        return StripeHealth::Intact;
    }
    let recoverable = if layout.scheme.is_replication() {
        // Recoverable while any replica survives.
        lost < chunks.len()
    } else {
        lost <= layout.scheme.failures_tolerated(chunks.len())
    };
    if recoverable {
        StripeHealth::Degraded(lost)
    } else {
        StripeHealth::Lost(lost)
    }
}

/// A stripe's parity length: its longest chunk.
fn parity_len(chunks: &[Chunk]) -> ByteSize {
    chunks
        .iter()
        .map(|c| c.len)
        .fold(ByteSize::ZERO, ByteSize::max)
}

/// A parity-stripe chunk's row in the codec's shard array.
fn shard_index(c: &Chunk, codec_m: usize) -> usize {
    match c.role {
        ChunkRole::Data(j) => j,
        ChunkRole::Parity(p) => codec_m + p,
        ChunkRole::Replica(_) => unreachable!("parity stripe"),
    }
}

/// A chunk's bytes zero-padded to `len` (all zeros when size-only).
fn padded(chunk: &StoredChunk, len: usize) -> Vec<u8> {
    match chunk.payload().as_bytes() {
        Some(b) => {
            let mut v = b.to_vec();
            v.resize(len, 0);
            v
        }
        None => vec![0u8; len],
    }
}

fn clamp_scheme(scheme: RedundancyScheme, healthy: usize) -> RedundancyScheme {
    match scheme {
        RedundancyScheme::Parity(k) => {
            RedundancyScheme::Parity(k.min((healthy.saturating_sub(1)) as u8))
        }
        RedundancyScheme::Replication => RedundancyScheme::Replication,
    }
}

/// The journal blob of an object: owner, size and scheme, then per stripe
/// its id, scheme, encode-time `m` and every chunk's role, device, handle,
/// length and real-payload flag.
fn encode_meta(layout: &ObjectLayout) -> Vec<u8> {
    fn put_scheme(out: &mut Vec<u8>, scheme: RedundancyScheme) {
        match scheme {
            RedundancyScheme::Parity(k) => out.extend_from_slice(&[0, k]),
            RedundancyScheme::Replication => out.extend_from_slice(&[1, 0]),
        }
    }
    let g = layout.geometry();
    let mut out = Vec::with_capacity(22 + g.stripes as usize * (18 + g.width as usize * 25));
    out.extend_from_slice(&layout.owner.to_le_bytes());
    out.extend_from_slice(&layout.size.as_bytes().to_le_bytes());
    put_scheme(&mut out, layout.scheme);
    out.extend_from_slice(&(g.stripes as u32).to_le_bytes());
    for s in 0..g.stripes {
        let width = layout.stripe_width(&g, s);
        out.extend_from_slice(&(layout.first_stripe + s).to_le_bytes());
        put_scheme(&mut out, layout.scheme);
        out.extend_from_slice(&(g.data as u32).to_le_bytes());
        out.extend_from_slice(&(width as u32).to_le_bytes());
        for c in (0..width).map(|o| layout.chunk_at(&g, s, o)) {
            let (tag, idx) = match c.role {
                ChunkRole::Data(i) => (0u8, i),
                ChunkRole::Parity(i) => (1u8, i),
                ChunkRole::Replica(i) => (2u8, i),
            };
            out.push(tag);
            out.extend_from_slice(&(idx as u32).to_le_bytes());
            out.extend_from_slice(&(c.device.0 as u32).to_le_bytes());
            out.extend_from_slice(&c.handle.as_u64().to_le_bytes());
            out.extend_from_slice(&c.len.as_bytes().to_le_bytes());
            out.push(layout.real as u8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_flashsim::DeviceConfig;
    use reo_sim::{ServiceModel, SimClock, SimDuration};

    fn test_array(n: usize, capacity_mib: u64) -> FlashArray {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mib(capacity_mib),
            read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 3000,
        };
        FlashArray::new(n, cfg, SimClock::new())
    }

    fn mgr(n: usize) -> StripeManager {
        StripeManager::new(test_array(n, 64), ByteSize::from_kib(4))
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 17) % 256) as u8).collect()
    }

    #[test]
    fn store_and_read_real_payload() {
        let mut m = mgr(5);
        let data = payload(10_000); // 3 chunks of 4KiB: 4096+4096+1808
        let layout = m
            .store_object(
                7,
                ByteSize::from_bytes(10_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        assert_eq!(layout.owner(), 7);
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn degraded_read_reconstructs_real_bytes() {
        let mut m = mgr(5);
        let data = payload(20_000);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(20_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        // Fail two devices: 2-parity must still serve every byte.
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(3));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        let out = m.read_object(&layout).unwrap();
        assert!(out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn three_failures_exceed_two_parity() {
        let mut m = mgr(5);
        let data = payload(20_000);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(20_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(1));
        m.fail_device(DeviceId(2));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
        assert!(matches!(
            m.read_object(&layout),
            Err(StripeError::ObjectLost { .. })
        ));
    }

    #[test]
    fn replication_survives_all_but_one() {
        let mut m = mgr(5);
        let data = payload(6_000);
        let layout = m
            .store_object(
                2,
                ByteSize::from_bytes(6_000),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        for d in 0..4 {
            m.fail_device(DeviceId(d));
        }
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        m.fail_device(DeviceId(4));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
    }

    #[test]
    fn zero_parity_loss_is_fatal() {
        let mut m = mgr(5);
        let layout = m
            .store_object(3, ByteSize::from_kib(40), RedundancyScheme::parity(0), None)
            .unwrap();
        // 40 KiB / 4 KiB = 10 chunks across 5 devices: every device holds some.
        m.fail_device(DeviceId(2));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
    }

    #[test]
    fn rebuild_after_spare_insertion_real() {
        let mut m = mgr(5);
        let data = payload(30_000);
        let layout = m
            .store_object(
                4,
                ByteSize::from_bytes(30_000),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(1));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        m.replace_device(DeviceId(1));
        m.rebuild_object(&layout).unwrap();
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
        // Post-rebuild reads are non-degraded and byte-identical.
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn rebuild_replicated_object() {
        let mut m = mgr(3);
        let data = payload(5_000);
        let layout = m
            .store_object(
                5,
                ByteSize::from_bytes(5_000),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(0));
        m.replace_device(DeviceId(0));
        m.rebuild_object(&layout).unwrap();
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn synthetic_objects_track_space_and_timing() {
        let mut m = mgr(5);
        let layout = m
            .store_object(6, ByteSize::from_kib(12), RedundancyScheme::parity(1), None)
            .unwrap();
        // 3 data chunks + 1 parity chunk (one stripe of m=4).
        let usage = m.usage();
        assert_eq!(usage.user_bytes, ByteSize::from_kib(12));
        assert_eq!(usage.redundancy_bytes, ByteSize::from_kib(4));
        let out = m.read_object(&layout).unwrap();
        assert!(out.bytes.is_none());
        assert!(out.completed_at.as_nanos() > 0);
    }

    #[test]
    fn space_efficiency_matches_scheme_for_large_objects() {
        let mut m = mgr(5);
        // 2-parity on 5 devices: 60% ideal. A 12-chunk object fills 4
        // stripes of m=3 exactly.
        m.store_object(1, ByteSize::from_kib(48), RedundancyScheme::parity(2), None)
            .unwrap();
        let eff = m.usage().space_efficiency();
        assert!((eff - 0.6).abs() < 1e-9, "eff = {eff}");
    }

    #[test]
    fn remove_object_releases_everything() {
        let mut m = mgr(5);
        let layout = m
            .store_object(9, ByteSize::from_kib(40), RedundancyScheme::parity(2), None)
            .unwrap();
        assert!(m.stripe_count() > 0);
        m.remove_object(&layout);
        assert_eq!(m.stripe_count(), 0);
        assert_eq!(m.usage().total(), ByteSize::ZERO);
        assert!(matches!(
            m.read_object(&layout),
            Err(StripeError::UnknownStripe(_))
        ));
        // Idempotent.
        m.remove_object(&layout);
    }

    #[test]
    fn store_after_failures_uses_survivors() {
        let mut m = mgr(5);
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(1));
        // 2-parity clamps to the 3 healthy devices (k=2 still fits).
        let layout = m
            .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
            .unwrap();
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        // With only 2 healthy devices, parity clamps to 1.
        m.fail_device(DeviceId(2));
        let layout2 = m
            .store_object(2, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
            .unwrap();
        assert_eq!(layout2.scheme(), RedundancyScheme::parity(1));
        // With zero healthy devices, storing fails.
        m.fail_device(DeviceId(3));
        m.fail_device(DeviceId(4));
        assert!(matches!(
            m.store_object(3, ByteSize::from_kib(4), RedundancyScheme::parity(0), None),
            Err(StripeError::NoHealthyDevices)
        ));
    }

    #[test]
    fn full_array_rolls_back_cleanly() {
        let mut m = StripeManager::new(test_array(2, 1), ByteSize::from_kib(64));
        // Fill device space (2 MiB total, replication doubles usage).
        let r1 = m.store_object(
            1,
            ByteSize::from_kib(900),
            RedundancyScheme::Replication,
            None,
        );
        assert!(r1.is_ok());
        let before = m.usage();
        let count_before = m.stripe_count();
        let r2 = m.store_object(
            2,
            ByteSize::from_kib(900),
            RedundancyScheme::Replication,
            None,
        );
        assert!(matches!(
            r2,
            Err(StripeError::Flash(FlashError::DeviceFull { .. }))
        ));
        assert_eq!(m.usage(), before, "failed store must not leak accounting");
        assert_eq!(
            m.stripe_count(),
            count_before,
            "failed store must not leak stripes"
        );
    }

    #[test]
    fn input_validation() {
        let mut m = mgr(3);
        assert!(matches!(
            m.store_object(1, ByteSize::ZERO, RedundancyScheme::parity(0), None),
            Err(StripeError::EmptyObject)
        ));
        assert!(matches!(
            m.store_object(
                1,
                ByteSize::from_kib(4),
                RedundancyScheme::parity(0),
                Some(&[1, 2])
            ),
            Err(StripeError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn physical_bytes_needed_estimates() {
        let m = mgr(5);
        // 0-parity: exactly the size.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::parity(0)),
            ByteSize::from_kib(10)
        );
        // Replication on 5 devices: 5x.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::Replication),
            ByteSize::from_kib(50)
        );
        // 2-parity, 12 KiB = 3 chunks = 1 stripe => + 2 parity chunks.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(12), RedundancyScheme::parity(2)),
            ByteSize::from_kib(12 + 8)
        );
    }

    #[test]
    fn degraded_read_costs_more_time_than_intact() {
        // Compare two identical managers; one suffers a failure.
        let data = payload(64 * 1024);
        let mk = || {
            let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(16));
            let l = m
                .store_object(
                    1,
                    ByteSize::from_bytes(data.len() as u64),
                    RedundancyScheme::parity(2),
                    Some(&data),
                )
                .unwrap();
            (m, l)
        };
        let (mut intact, l1) = mk();
        let t0 = intact.array().clock().now();
        intact.read_object(&l1).unwrap();
        let intact_cost = intact.array().clock().now().saturating_since(t0);

        let (mut broken, l2) = mk();
        broken.fail_device(DeviceId(1));
        let t0 = broken.array().clock().now();
        let out = broken.read_object(&l2).unwrap();
        assert!(out.degraded);
        let degraded_cost = broken.array().clock().now().saturating_since(t0);
        assert!(
            degraded_cost >= intact_cost,
            "degraded {degraded_cost} < intact {intact_cost}"
        );
    }

    #[test]
    fn usage_space_efficiency_empty_is_one() {
        assert_eq!(SpaceUsage::default().space_efficiency(), 1.0);
    }

    #[test]
    fn exported_meta_survives_a_simulated_crash() {
        let mut m = mgr(5);
        let data = payload(40_000);
        let layout = m
            .store_object(
                7,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        let usage_before = m.usage();
        let blob = m.export_object_meta(&layout).unwrap();

        m.simulate_crash();
        assert_eq!(m.stripe_count(), 0);
        assert_eq!(m.usage().total(), ByteSize::ZERO);

        let restored = m.install_object_meta(&blob).unwrap();
        assert_eq!(restored.owner(), 7);
        assert_eq!(restored.size().as_bytes(), data.len() as u64);
        assert_eq!(restored, layout);
        assert!(restored.stripes().eq(layout.stripes()));
        assert_eq!(m.usage(), usage_before);
        assert!(m.double_allocated_chunks().is_empty());
        // Chunk contents survived on the array: the object reads back.
        let out = m.read_object(&restored).unwrap();
        assert_eq!(out.bytes.unwrap(), data);
        // A fresh store must not collide with reinstalled handles/stripes.
        let second = m
            .store_object(8, ByteSize::from_kib(32), RedundancyScheme::parity(1), None)
            .unwrap();
        assert!(m.double_allocated_chunks().is_empty());
        assert!(second.stripes().all(|s| !layout.stripes().any(|t| t == s)));
    }

    #[test]
    fn orphan_chunks_are_collected_after_crash() {
        let mut m = mgr(5);
        let keep = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        m.store_object(2, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let blob = m.export_object_meta(&keep).unwrap();
        m.simulate_crash();
        m.install_object_meta(&blob).unwrap();
        // Only `keep`'s metadata was journaled: `orphaned`'s chunks are
        // unreferenced and must be garbage collected.
        let removed = m.remove_unreferenced_chunks();
        assert!(removed > 0);
        let total_chunks: usize = (0..m.array().device_count())
            .map(|i| m.array().device(DeviceId(i)).chunk_count())
            .sum();
        assert_eq!(total_chunks, m.referenced_chunks().len());
        assert!(m.read_object(&keep).is_ok());
    }

    #[test]
    fn corrupt_meta_blobs_are_rejected() {
        let mut m = mgr(5);
        let layout = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let blob = m.export_object_meta(&layout).unwrap();
        assert!(matches!(
            m.install_object_meta(&blob[..blob.len() - 3]),
            Err(StripeError::CorruptMetadata)
        ));
        let mut garbage = blob.clone();
        garbage[16] = 0xFF; // scheme tag
        assert!(matches!(
            m.install_object_meta(&garbage),
            Err(StripeError::CorruptMetadata)
        ));
        // A blob that parses but describes no placement this manager
        // could have made: the first chunk's handle moved by one.
        let mut moved = blob.clone();
        let handle_at = 8 + 8 + 2 + 4 + 8 + 2 + 4 + 4 + 1 + 4 + 4;
        moved[handle_at] ^= 1;
        assert!(matches!(
            m.install_object_meta(&moved),
            Err(StripeError::CorruptMetadata)
        ));
        // First stripe id or first handle at the end of the id space: the
        // object's stripes or handles would run past it.
        for (at, id) in [(8 + 8 + 2 + 4, u64::MAX), (handle_at, u64::MAX - 1)] {
            let mut edge = blob.clone();
            edge[at..at + 8].copy_from_slice(&id.to_le_bytes());
            assert!(matches!(
                m.install_object_meta(&edge),
                Err(StripeError::CorruptMetadata)
            ));
        }
    }

    #[test]
    fn store_over_uncollected_orphans_overwrites_them() {
        // After a crash without garbage collection the handle counter
        // restarts below orphan chunks; a new store overwrites them in
        // place and collection then leaves exactly the new object.
        let mut m = mgr(5);
        m.store_object(1, ByteSize::from_kib(40), RedundancyScheme::parity(2), None)
            .unwrap();
        m.simulate_crash();
        let data = payload(30_000);
        let layout = m
            .store_object(
                2,
                ByteSize::from_bytes(30_000),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        m.remove_unreferenced_chunks();
        let stored: usize = (0..5)
            .map(|i| m.array().device(DeviceId(i)).chunk_count())
            .sum();
        assert_eq!(stored, m.referenced_chunks().len());
        let used: u64 = (0..5)
            .map(|i| m.array().device(DeviceId(i)).used().as_bytes())
            .sum();
        assert_eq!(used, m.usage().total().as_bytes());
        m.remove_object(&layout);
        assert_eq!(m.usage().total(), ByteSize::ZERO);
        assert!((0..5).all(|i| m.array().device(DeviceId(i)).chunk_count() == 0));
    }

    #[test]
    fn lone_short_stripe_reinstalls_byte_for_byte() {
        // One 2-chunk stripe of 1-parity on 4 of 5 devices names only 3
        // of the 4 device slots; reinstalling must still re-export the
        // same bytes and read back.
        let mut m = mgr(5);
        m.fail_device(DeviceId(1));
        let data = payload(6_000);
        let layout = m
            .store_object(
                3,
                ByteSize::from_bytes(6_000),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        assert_eq!(layout.stripes().count(), 1);
        let blob = m.export_object_meta(&layout).unwrap();
        m.simulate_crash();
        let restored = m.install_object_meta(&blob).unwrap();
        assert_eq!(m.export_object_meta(&restored).unwrap(), blob);
        assert_eq!(m.usage(), layout.footprint());
        let out = m.read_object(&restored).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        assert_eq!(m.remove_unreferenced_chunks(), 0);
    }

    #[test]
    fn errors_have_sources_and_display() {
        let e = StripeError::Flash(FlashError::DeviceFailed(DeviceId(3)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("ssd3"));
        let e2 = StripeError::ObjectLost {
            stripe: StripeId(9),
            lost: 3,
            tolerated: 2,
        };
        assert!(e2.to_string().contains("stripe#9"));
    }
}

#[cfg(test)]
mod overwrite_tests {
    use super::*;
    use reo_flashsim::DeviceConfig;
    use reo_sim::{ServiceModel, SimClock, SimDuration};

    fn test_array(n: usize) -> FlashArray {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mib(64),
            read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 3000,
        };
        FlashArray::new(n, cfg, SimClock::new())
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
            .collect()
    }

    /// Overwrite each chunk in turn and verify the object reads back with
    /// the patch applied and parity still consistent (degraded read after
    /// a failure must succeed).
    #[test]
    fn overwrite_keeps_parity_consistent_for_all_chunks() {
        let chunk = ByteSize::from_kib(4);
        for k in 1..=2u8 {
            let mut m = StripeManager::new(test_array(5), chunk);
            let mut data = payload(20_000, k);
            let layout = m
                .store_object(
                    1,
                    ByteSize::from_bytes(data.len() as u64),
                    RedundancyScheme::parity(k),
                    Some(&data),
                )
                .unwrap();
            let chunks = (data.len() as u64).div_ceil(chunk.as_bytes());
            for ci in 0..chunks {
                let start = (ci * chunk.as_bytes()) as usize;
                let end = (start + chunk.as_bytes() as usize).min(data.len());
                let new_chunk = payload(end - start, k.wrapping_add(ci as u8 + 1));
                data[start..end].copy_from_slice(&new_chunk);
                m.overwrite_chunk(&layout, ci, Some(&new_chunk)).unwrap();

                // Parity must still reconstruct the patched data.
                let direct = m.read_object(&layout).unwrap();
                assert_eq!(direct.bytes.as_deref(), Some(&data[..]), "k={k} chunk={ci}");
            }
            // Now check degraded consistency: fail a device and re-read.
            m.fail_device(reo_flashsim::DeviceId(2));
            let degraded = m.read_object(&layout).unwrap();
            assert_eq!(degraded.bytes.as_deref(), Some(&data[..]), "k={k} degraded");
        }
    }

    #[test]
    fn strategy_follows_read_cost_rule() {
        // 5 devices, 1 parity: m = 4 data chunks per stripe. Delta reads
        // 1 + 1 = 2; direct reads m - 1 = 3 -> delta.
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(16_384, 1);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        let (method, _) = m
            .overwrite_chunk(&layout, 0, Some(&payload(4096, 9)))
            .unwrap();
        assert_eq!(method, ParityUpdate::Delta);

        // 3 devices, 2 parity: m = 1 data chunk. Delta reads 3; direct
        // reads 0 -> direct.
        let mut m3 = StripeManager::new(test_array(3), chunk);
        let data3 = payload(4_096, 2);
        let layout3 = m3
            .store_object(
                1,
                ByteSize::from_bytes(data3.len() as u64),
                RedundancyScheme::parity(2),
                Some(&data3),
            )
            .unwrap();
        let (method3, _) = m3
            .overwrite_chunk(&layout3, 0, Some(&payload(4096, 5)))
            .unwrap();
        assert_eq!(method3, ParityUpdate::Direct);
    }

    #[test]
    fn replication_overwrite_rewrites_all_replicas() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(4), chunk);
        let data = payload(4_000, 3);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        let new_data = payload(4_000, 8);
        let (method, _) = m.overwrite_chunk(&layout, 0, Some(&new_data)).unwrap();
        assert_eq!(method, ParityUpdate::Rewrite);
        // Every replica carries the new bytes: any 3 failures still serve.
        for d in 0..3 {
            m.fail_device(reo_flashsim::DeviceId(d));
        }
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&new_data[..]));
    }

    #[test]
    fn zero_parity_overwrite_touches_one_chunk() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(12_000, 4);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(0),
                Some(&data),
            )
            .unwrap();
        let reads_before = m.array().stats().reads;
        let (method, _) = m
            .overwrite_chunk(&layout, 1, Some(&payload(4096, 6)))
            .unwrap();
        assert_eq!(method, ParityUpdate::Rewrite);
        assert_eq!(m.array().stats().reads, reads_before, "no reads needed");
    }

    #[test]
    fn overwrite_validates_inputs() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(8_192, 5);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        // Wrong payload size.
        assert!(matches!(
            m.overwrite_chunk(&layout, 0, Some(&[1, 2, 3])),
            Err(StripeError::PayloadSizeMismatch { .. })
        ));
        // Degraded stripe refuses overwrite.
        m.fail_device(reo_flashsim::DeviceId(0));
        let degraded_any = (0..2).any(|ci| {
            matches!(
                m.overwrite_chunk(&layout, ci, Some(&payload(4096, 1))),
                Err(StripeError::ObjectLost { .. })
            )
        });
        assert!(degraded_any, "some chunk must be on the failed device");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overwrite_bad_index_panics() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let layout = m
            .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(0), None)
            .unwrap();
        let _ = m.overwrite_chunk(&layout, 99, None);
    }

    #[test]
    fn synthetic_overwrite_charges_time() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let layout = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(2), None)
            .unwrap();
        let before = m.array().clock().now();
        let (_, done) = m.overwrite_chunk(&layout, 0, None).unwrap();
        assert!(done > before);
    }
}
