//! Differential test of [`Payload`]'s three storage tiers against a safe
//! reference.
//!
//! `packet.rs` keeps plain values of up to 16 bytes in the payload itself
//! and of up to [`Payload::POOLED_BYTES`] in a recycled buffer, both as
//! type-tagged raw words it casts back on `downcast_ref`; everything else
//! goes behind an `Arc`. Miri is not available here, so the casts are
//! held to what a `Box<dyn Any + Send + Sync>` does with the same values:
//! random streams of construct / clone / downcast (to the right type and
//! to every wrong one) / drop, over a probe set that sits on each tier's
//! size, alignment and drop-glue boundary, must read the same on both
//! sides. Debug builds also run `packet.rs`'s `debug_assert!`s at every
//! cast.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use iq_netsim::{payload, pool_stats, Payload};
use proptest::prelude::*;

type Boxed = Box<dyn Any + Send + Sync>;

/// A 16-byte value with padding in it: the inline tier's upper edge.
#[derive(Debug, Clone, PartialEq)]
struct Datagram {
    seq: u64,
    tag: u32,
}

/// 16 bytes aligned to 16: small enough for the inline slot, too
/// strictly aligned for its `u64` words, so it must ride the `Arc`.
#[derive(Debug, Clone, PartialEq)]
struct Wide(u128);

/// Drop glue, with the live instances counted: never inline or pooled,
/// and dropped exactly once per instance whatever the clone/drop order.
#[derive(Debug)]
struct Tracked {
    id: u64,
    live: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(id: u64, live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Self {
            id,
            live: live.clone(),
        }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Self::new(self.id, &self.live)
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One value held both ways.
struct Pair {
    payload: Payload,
    reference: Boxed,
    /// Deep-copies `reference` (a `Box<dyn Any>` cannot clone itself).
    clone_reference: fn(&Boxed) -> Boxed,
    /// Whether the value belongs on the `Arc` tier (set by [`probe`]).
    on_arc: bool,
}

fn pair<T: Any + Send + Sync + Clone>(value: T) -> Pair {
    Pair {
        payload: payload(value.clone()),
        reference: Box::new(value),
        clone_reference: |r| Box::new(r.downcast_ref::<T>().expect("its own type").clone()),
        on_arc: false,
    }
}

impl Pair {
    fn duplicate(&self) -> Pair {
        Pair {
            payload: self.payload.clone(),
            reference: (self.clone_reference)(&self.reference),
            clone_reference: self.clone_reference,
            on_arc: self.on_arc,
        }
    }

    /// `downcast_ref` to every probe type — the right one and all the
    /// wrong ones — answers what the reference answers.
    fn check(&self) {
        fn same<T: Any + PartialEq + std::fmt::Debug>(p: &Pair) {
            assert_eq!(
                p.payload.downcast_ref::<T>(),
                p.reference.downcast_ref::<T>(),
                "as {}",
                std::any::type_name::<T>()
            );
        }
        same::<u8>(self);
        same::<u64>(self);
        same::<Datagram>(self);
        same::<[u8; 17]>(self);
        same::<[u64; 3]>(self);
        same::<[u64; 13]>(self);
        same::<[u64; 14]>(self);
        same::<Wide>(self);
        same::<String>(self);
        same::<Tracked>(self);
    }
}

/// Probe `kind`, its content derived from `x`: u8 and u64 (inline),
/// a padded 16-byte struct (inline, at the edge), 17 bytes of align 1
/// and 24 bytes (pooled), 104 bytes (pooled, at the edge), 112 bytes
/// (`Arc`: too large), a 16-aligned 16 bytes (`Arc`: alignment), a
/// `String` and a counted droppy struct (`Arc`: drop glue).
fn probe(kind: u8, x: u64, live: &Arc<AtomicUsize>) -> Pair {
    let kind = kind % 10;
    let mut held = match kind {
        0 => pair(x as u8),
        1 => pair(x),
        2 => pair(Datagram {
            seq: x,
            tag: !x as u32,
        }),
        3 => pair([x as u8; 17]),
        4 => pair([x, !x, x ^ 0x5555]),
        5 => pair(std::array::from_fn::<u64, 13, _>(|i| {
            x.wrapping_mul(i as u64 + 1)
        })),
        6 => pair(std::array::from_fn::<u64, 14, _>(|i| {
            x.wrapping_add(i as u64)
        })),
        7 => pair(Wide(u128::from(x) << 64 | u128::from(!x))),
        8 => pair(format!("heap {x}")),
        _ => pair(Tracked::new(x, live)),
    };
    held.on_arc = kind >= 6;
    held
}

proptest! {
    /// Random op streams over every tier: construct, clone, drop in
    /// random order, and after every op the touched value — at the end
    /// every survivor — downcasts like the reference.
    #[test]
    fn payload_matches_a_boxed_any_reference(
        ops in prop::collection::vec((0u8..4, 0u8..10, any::<u64>(), any::<usize>()), 1..200),
    ) {
        let live = Arc::new(AtomicUsize::new(0));
        let mut held: Vec<Pair> = Vec::new();
        for &(op, kind, x, at) in &ops {
            match op {
                // Two of four ops construct, so the set grows.
                0 | 1 => held.push(probe(kind, x, &live)),
                2 if !held.is_empty() => {
                    let original = &held[at % held.len()];
                    let copy = original.duplicate();
                    // An inline or pooled clone is a copy of its own; only
                    // the `Arc` tier aliases.
                    let aliased = Payload::ptr_eq(&copy.payload, &original.payload);
                    prop_assert_eq!(aliased, original.on_arc);
                    held.push(copy);
                }
                3 if !held.is_empty() => {
                    let gone = held.swap_remove(at % held.len());
                    gone.check();
                }
                _ => {}
            }
            if let Some(last) = held.last() {
                last.check();
            }
        }
        for p in &held {
            p.check();
        }
        drop(held);
        prop_assert_eq!(live.load(Ordering::Relaxed), 0, "a droppy value leaked or dropped twice");
    }
}

/// More pooled payloads alive at once than the thread's free list
/// keeps: the surplus is dropped on return and allocated afresh by the
/// next wave, and every value still reads back — recycled buffers carry
/// nothing over. On a thread of its own, whose pool starts empty.
#[test]
fn pool_overflow_drops_the_surplus_and_keeps_every_value() {
    const WAVE: u64 = 10_000;
    let wave = |salt: u64| -> Vec<Pair> {
        (0..WAVE)
            .map(|i| probe(if i % 2 == 0 { 4 } else { 5 }, i ^ salt, &Arc::default()))
            .collect()
    };
    std::thread::spawn(move || {
        let before = pool_stats();
        let first = wave(0);
        first.iter().for_each(Pair::check);
        drop(first);
        let returned = pool_stats().since(before);
        let second = wave(0xdead_beef);
        second.iter().for_each(Pair::check);
        let reused = pool_stats().since(before);
        if iq_obs::ENABLED {
            assert_eq!(
                (returned.hits, returned.misses),
                (0, WAVE),
                "the pool was born empty"
            );
            assert!(
                returned.drops > 0,
                "{WAVE} buffers fit the free list: raise WAVE"
            );
            assert_eq!(returned.returns + returned.drops, WAVE);
            assert_eq!(
                reused.hits, returned.returns,
                "the second wave drains the free list"
            );
            assert_eq!(
                reused.misses,
                WAVE + returned.drops,
                "and allocates the surplus again"
            );
        }
    })
    .join()
    .expect("the overflow thread");
}
