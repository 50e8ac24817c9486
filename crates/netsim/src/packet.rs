//! Packets and addressing.
//!
//! A [`Packet`] is the unit of transfer across links. The simulator never
//! serializes protocol headers to bytes: the wire footprint is modelled by
//! an explicit [`Packet::size`] while the semantic content travels as a
//! shared, dynamically-typed [`Payload`]. Protocol crates downcast the
//! payload to their own segment types on receipt.

use std::any::{Any, TypeId};
use std::fmt;
use std::sync::Arc;

use crate::time::Time;

/// Identifies a node (host or router) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifies an agent registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub u32);

/// A transport-level address: a node plus a local port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Node this address lives on.
    pub node: NodeId,
    /// Local port distinguishing agents on the same node.
    pub port: u16,
}

impl Addr {
    /// Creates an address from its parts.
    pub const fn new(node: NodeId, port: u16) -> Self {
        Self { node, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:{}", self.node.0, self.port)
    }
}

/// Distinguishes traffic belonging to different flows for per-flow
/// accounting in link traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Catch-all flow for traffic that does not care about accounting.
    pub const ANON: FlowId = FlowId(u32::MAX);
}

/// Upper bound on values stored inline in a [`Payload`].
const INLINE_BYTES: usize = 16;

/// Size in `u64` words of a pooled payload buffer: fits the largest
/// transport segment in its [`Wire`](crate::endpoint::Wire) (104 bytes
/// for an RUDP segment whatever its SACK block holds; 56 for TCP).
/// `iq-rudp` guards the fit with a test against
/// [`Payload::POOLED_BYTES`], since a wire that outgrows the slot
/// silently falls to the `Arc` tier.
const POOL_WORDS: usize = 13;

/// Pooled buffers retained per thread; beyond this, freed buffers go
/// back to the allocator. Well above the peak in-flight packet count of
/// the paper's single-flow topologies, which therefore recycle without
/// loss. A fleet does not fit: the 25,600-flow mega world's start-up
/// burst has several times this many payloads in flight, so the surplus
/// is dropped on return and allocated again when the next burst needs
/// it (`iq_pool_drops_total` / `iq_pool_misses_total` count both).
const POOL_MAX: usize = 8192;

std::thread_local! {
    /// Free list of pooled payload buffers. Payload drops push here and
    /// sends pop, so steady-state segment traffic recycles a bounded set
    /// of buffers instead of hitting the allocator per packet. The
    /// element boxing is the point: entries keep their heap identity so
    /// recycling never reallocates.
    #[allow(clippy::vec_box)]
    static PAYLOAD_POOL: std::cell::RefCell<Vec<Box<[u64; POOL_WORDS]>>> =
        const { std::cell::RefCell::new(Vec::new()) };

    /// Engine-plane pool counters for the current thread. The pool is
    /// shared by every simulation a worker thread runs, so these are
    /// per-thread lifetime totals; callers interested in one scenario
    /// take a delta around the run (`pool_stats` before and after).
    static POOL_STATS: std::cell::Cell<PoolStats> = const { std::cell::Cell::new(PoolStats::zero()) };
}

/// Hit/miss/recycle counters for the current thread's payload pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `pool_get` served from the free list.
    pub hits: u64,
    /// `pool_get` fell through to the allocator.
    pub misses: u64,
    /// Buffers returned to the free list on drop.
    pub returns: u64,
    /// Buffers dropped because the free list was at capacity.
    pub drops: u64,
}

impl PoolStats {
    const fn zero() -> Self {
        PoolStats {
            hits: 0,
            misses: 0,
            returns: 0,
            drops: 0,
        }
    }

    /// Counters accumulated since `earlier` (for per-scenario deltas).
    pub fn since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            returns: self.returns - earlier.returns,
            drops: self.drops - earlier.drops,
        }
    }

    /// The sum of two threads' counters (the pool is per thread; a run
    /// on a worker pool is the sum over its workers).
    pub fn plus(self, other: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            returns: self.returns + other.returns,
            drops: self.drops + other.drops,
        }
    }
}

/// This thread's payload-pool counters so far.
pub fn pool_stats() -> PoolStats {
    POOL_STATS.with(|s| s.get())
}

#[inline]
fn pool_count(f: impl FnOnce(&mut PoolStats)) {
    POOL_STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// A pooled buffer: fresh from the free list, or newly allocated
/// (zeroing is unnecessary — the caller overwrites the value bytes and
/// only those are ever read back).
fn pool_get() -> Box<[u64; POOL_WORDS]> {
    match PAYLOAD_POOL.with(|p| p.borrow_mut().pop()) {
        Some(buf) => {
            pool_count(|s| s.hits += 1);
            buf
        }
        None => {
            pool_count(|s| s.misses += 1);
            Box::new([0u64; POOL_WORDS])
        }
    }
}

/// Returns a buffer to the thread's free list (or drops it when full).
fn pool_put(buf: Box<[u64; POOL_WORDS]>) {
    PAYLOAD_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_MAX {
            pool_count(|s| s.returns += 1);
            p.push(buf);
        } else {
            pool_count(|s| s.drops += 1);
        }
    });
}

/// What every cast between a slot's `u64` words and a `T` relies on,
/// re-checked in debug builds at the cast itself: [`payload`] decides the
/// tier from the same three properties, so a failure here means that
/// decision and a cast have drifted apart.
#[inline]
fn debug_assert_fits<T>(slot_bytes: usize) {
    debug_assert!(
        std::mem::size_of::<T>() <= slot_bytes,
        "{} is {} bytes, the slot {slot_bytes}",
        std::any::type_name::<T>(),
        std::mem::size_of::<T>()
    );
    debug_assert!(
        std::mem::align_of::<T>() <= std::mem::align_of::<u64>(),
        "{} is aligned to {}, the slot to 8",
        std::any::type_name::<T>(),
        std::mem::align_of::<T>()
    );
    debug_assert!(!std::mem::needs_drop::<T>(), "a slot runs no destructor");
}

/// Dynamically-typed packet content.
///
/// Three storage tiers, picked at construction by compile-time type
/// properties:
///
/// * **inline** — plain-data values of at most `INLINE_BYTES` bytes
///   (e.g. the plain UDP datagram marker) live in the `Payload` itself;
/// * **pooled** — larger destructor-free plain data up to
///   [`Payload::POOLED_BYTES`] (transport segments in their
///   [`Wire`](crate::endpoint::Wire)) lives in a fixed-size buffer
///   drawn from a per-thread free list and returned to it on drop, so
///   steady-state segment traffic never touches the allocator;
/// * **shared** — everything else goes behind an `Arc`, so cloning a
///   packet does not copy the content.
pub struct Payload(Repr);

enum Repr {
    /// Type-tagged raw bytes of a small destructor-free value.
    Inline {
        type_id: TypeId,
        data: [u64; INLINE_BYTES / 8],
    },
    /// Type-tagged raw bytes of a mid-size destructor-free value in a
    /// recycled buffer. `ManuallyDrop` so `Payload::drop` can reclaim
    /// the box for the pool instead of freeing it.
    Pooled {
        type_id: TypeId,
        buf: std::mem::ManuallyDrop<Box<[u64; POOL_WORDS]>>,
    },
    /// Shared heap content.
    Shared(Arc<dyn Any + Send + Sync>),
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Repr::Pooled { buf, .. } = &mut self.0 {
            // SAFETY: `drop` runs at most once, and no other path takes
            // the box out of a live `Pooled` payload.
            pool_put(unsafe { std::mem::ManuallyDrop::take(buf) });
        }
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload(match &self.0 {
            Repr::Inline { type_id, data } => Repr::Inline {
                type_id: *type_id,
                data: *data,
            },
            Repr::Pooled { type_id, buf } => {
                let mut copy = pool_get();
                *copy = ***buf;
                Repr::Pooled {
                    type_id: *type_id,
                    buf: std::mem::ManuallyDrop::new(copy),
                }
            }
            Repr::Shared(arc) => Repr::Shared(Arc::clone(arc)),
        })
    }
}

impl Payload {
    /// Largest plain value, in bytes, the pooled tier holds.
    pub const POOLED_BYTES: usize = 8 * POOL_WORDS;

    /// Wraps an existing shared value without re-boxing it.
    pub fn from_arc(value: Arc<dyn Any + Send + Sync>) -> Self {
        Payload(Repr::Shared(value))
    }

    /// Attempts to view the content as a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match &self.0 {
            Repr::Inline { type_id, data } => {
                if *type_id == TypeId::of::<T>() {
                    debug_assert_fits::<T>(INLINE_BYTES);
                    // SAFETY: the type id matches the `T` this payload was
                    // built from, so `data` holds a valid `T` (size and
                    // alignment were checked at construction).
                    Some(unsafe { &*data.as_ptr().cast::<T>() })
                } else {
                    None
                }
            }
            Repr::Pooled { type_id, buf } => {
                if *type_id == TypeId::of::<T>() {
                    debug_assert_fits::<T>(Payload::POOLED_BYTES);
                    // SAFETY: as above — the buffer was filled with a `T`
                    // whose size, alignment, and drop-freeness were
                    // checked at construction.
                    Some(unsafe { &*buf.as_ptr().cast::<T>() })
                } else {
                    None
                }
            }
            Repr::Shared(arc) => arc.downcast_ref::<T>(),
        }
    }

    /// Whether two payloads share the same heap allocation. Inline
    /// payloads are value copies and never "shared".
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        match (&a.0, &b.0) {
            (Repr::Shared(x), Repr::Shared(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }
}

impl From<Arc<dyn Any + Send + Sync>> for Payload {
    fn from(value: Arc<dyn Any + Send + Sync>) -> Self {
        Payload::from_arc(value)
    }
}

/// Builds a payload from any sendable value, storing it inline or in a
/// pooled buffer when it is plain data (see [`Payload`]).
pub fn payload<T: Any + Send + Sync>(value: T) -> Payload {
    // All conditions are compile-time constants per `T`, so each
    // instantiation collapses to a single storage path.
    let plain =
        std::mem::align_of::<T>() <= std::mem::align_of::<u64>() && !std::mem::needs_drop::<T>();
    if plain && std::mem::size_of::<T>() <= INLINE_BYTES {
        let mut data = [0u64; INLINE_BYTES / 8];
        debug_assert_fits::<T>(std::mem::size_of_val(&data));
        // SAFETY: `T` fits in `data`, requires at most `u64` alignment,
        // and has no drop glue; the original is forgotten after the byte
        // copy, so the value is moved, not duplicated.
        unsafe {
            std::ptr::copy_nonoverlapping(
                (&value as *const T).cast::<u8>(),
                data.as_mut_ptr().cast::<u8>(),
                std::mem::size_of::<T>(),
            );
        }
        std::mem::forget(value);
        Payload(Repr::Inline {
            type_id: TypeId::of::<T>(),
            data,
        })
    } else if plain && std::mem::size_of::<T>() <= Payload::POOLED_BYTES {
        let mut buf = pool_get();
        debug_assert_fits::<T>(std::mem::size_of_val(&*buf));
        // SAFETY: same argument as the inline arm, against the pooled
        // buffer (whose size and `u64` alignment were just checked).
        unsafe {
            std::ptr::copy_nonoverlapping(
                (&value as *const T).cast::<u8>(),
                buf.as_mut_ptr().cast::<u8>(),
                std::mem::size_of::<T>(),
            );
        }
        std::mem::forget(value);
        Payload(Repr::Pooled {
            type_id: TypeId::of::<T>(),
            buf: std::mem::ManuallyDrop::new(buf),
        })
    } else {
        Payload(Repr::Shared(Arc::new(value)))
    }
}

/// A packet in flight.
#[derive(Clone)]
pub struct Packet {
    /// Unique id assigned at send time; stable across hops.
    pub id: u64,
    /// Sender address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Wire size in bytes, including all modelled headers. This is what
    /// occupies queue space and serialization time.
    pub size: u32,
    /// Flow this packet is accounted to.
    pub flow: FlowId,
    /// Simulation time at which the original sender emitted the packet.
    pub sent_at: Time,
    /// Semantic content (protocol segment, app frame, ...).
    pub payload: Payload,
}

impl Packet {
    /// Attempts to view the payload as a `T`.
    pub fn payload_as<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("size", &self.size)
            .field("flow", &self.flow)
            .field("sent_at", &self.sent_at)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_downcast_works() {
        let p = Packet {
            id: 1,
            src: Addr::new(NodeId(0), 1),
            dst: Addr::new(NodeId(1), 2),
            size: 100,
            flow: FlowId(7),
            sent_at: 0,
            payload: payload(42u64),
        };
        assert_eq!(p.payload_as::<u64>(), Some(&42));
        assert_eq!(p.payload_as::<u32>(), None);
    }

    #[test]
    fn small_plain_values_are_stored_inline() {
        #[derive(Debug, PartialEq)]
        struct Dg {
            seq: u64,
            tag: u32,
        }
        let p = payload(Dg { seq: 9, tag: 3 });
        assert!(matches!(p.0, Repr::Inline { .. }));
        assert_eq!(p.downcast_ref::<Dg>(), Some(&Dg { seq: 9, tag: 3 }));
        assert_eq!(p.downcast_ref::<u64>(), None);
        // Inline payloads are value copies, never aliased.
        let q = p.clone();
        assert!(!Payload::ptr_eq(&p, &q));
    }

    #[test]
    fn droppy_or_large_values_go_to_the_arc_path() {
        // Needs drop glue: must not be inlined or pooled.
        let s = payload(String::from("heap"));
        assert!(matches!(s.0, Repr::Shared(_)));
        assert_eq!(s.downcast_ref::<String>().map(String::as_str), Some("heap"));
        // Too large even for a pooled buffer.
        let big = payload([0u64; POOL_WORDS + 1]);
        assert!(matches!(big.0, Repr::Shared(_)));
        assert!(big.downcast_ref::<[u64; POOL_WORDS + 1]>().is_some());
    }

    #[test]
    fn mid_size_plain_values_use_the_pool() {
        let mk = || {
            let mut v = [0u64; 8]; // 64 bytes: past inline, within pooled
            v[0] = 11;
            v[7] = 77;
            payload(v)
        };
        let p = mk();
        assert!(matches!(p.0, Repr::Pooled { .. }));
        assert_eq!(p.downcast_ref::<[u64; 8]>().unwrap()[7], 77);
        assert_eq!(p.downcast_ref::<u64>(), None);
        // Clones are independent copies, never aliased.
        let q = p.clone();
        assert!(!Payload::ptr_eq(&p, &q));
        assert_eq!(q.downcast_ref::<[u64; 8]>().unwrap()[0], 11);
        // Dropping recycles the buffer: the next pooled payload reuses
        // the same allocation.
        let addr_of = |pl: &Payload| match &pl.0 {
            Repr::Pooled { buf, .. } => buf.as_ptr() as usize,
            _ => unreachable!(),
        };
        let first = addr_of(&q);
        drop(q);
        let r = mk();
        assert_eq!(addr_of(&r), first, "pooled buffer was not recycled");
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr::new(NodeId(3), 9).to_string(), "n3:9");
    }

    #[test]
    fn clone_shares_payload() {
        let p = Packet {
            id: 1,
            src: Addr::new(NodeId(0), 1),
            dst: Addr::new(NodeId(1), 2),
            size: 100,
            flow: FlowId::ANON,
            sent_at: 5,
            payload: payload(String::from("hello")),
        };
        let q = p.clone();
        assert!(Payload::ptr_eq(&p.payload, &q.payload));
        assert_eq!(q.payload_as::<String>().unwrap(), "hello");
    }
}
