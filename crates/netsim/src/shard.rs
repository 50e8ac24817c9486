//! Conservative-lookahead parallel simulation: one logical simulation
//! sharded into topology domains that execute on multiple cores.
//!
//! ## Model
//!
//! A [`ShardedSim`] is built like a [`Simulator`], except every node is
//! assigned to a *shard* (a topology domain — e.g. one side of a
//! dumbbell leg). Each shard owns a complete serial [`Simulator`]: its
//! own event queue, timer and packet slabs, RNG, trace collector, and
//! telemetry sink, and the state of the links it transmits on. What the
//! shards have in common — the endpoints of every link and the route
//! table — exists once per world and is shared. Links whose endpoints
//! live on different shards are *boundary links*; everything else runs
//! exactly as in the serial engine.
//!
//! ## Lookahead rule (null-message-free conservative PDES)
//!
//! A packet crossing a boundary link is queued, serialized, and subjected
//! to loss/jitter on the *sending* shard; only the final far-end arrival
//! crosses shards. Since an event executing at time `t` can produce an
//! arrival no earlier than `t + delay(link)`, the link's propagation
//! delay is free lookahead. Each shard `i` publishes an *exclusive*
//! clock `C[i]` ("all events with timestamp `< C[i]` have executed and
//! their boundary output is visible"), and may safely execute every
//! event with timestamp
//!
//! ```text
//! t < min(deadline + 1, min over ingress boundary links L of
//!                          (C[src(L)] + delay(L)))
//! ```
//!
//! Boundary delays must be strictly positive (asserted at build time),
//! which also guarantees livelock-free progress: the globally slowest
//! shard can always advance by at least the minimum boundary delay.
//!
//! ## Scheduling
//!
//! Shards are *work items*, not thread-owned property. A persistent pool
//! of workers (spawned once per [`ShardedSim::run_slices`] call, spanning
//! every slice) claims runnable shards from one ready queue, max clock
//! first, and any worker can execute any shard. The most advanced shard
//! is the one whose neighbour just ran: on a dumbbell leg the two halves
//! leapfrog each other to the epoch target while the leg's flows are
//! still in cache, and only then does the drain move to the next leg, so
//! one leg's start-up burst is live at a time. Every scheduling decision
//! is taken under one mutex. A shard is `Parked`, `Ready` (in the queue,
//! exactly once) or `Running`; a worker loops *lock → claim → unlock →
//! run windows → lock → release*, and blocks on a condvar when there is
//! nothing to claim. A claimed shard runs windows until its lookahead
//! bound stops it or it reaches the epoch target. After each window the
//! runner stores its clock and then takes the lock once to queue every
//! parked successor; the release section re-reads the shard's lookahead
//! bound under the lock and re-queues it, parks it until an upstream
//! publish queues it again, or reports that it crossed the epoch target.
//! No wakeup can be lost: a publisher stores its clock before its lock
//! section, a releaser reads predecessor clocks inside its own, and
//! whichever section comes second sees the other's effect — the releaser
//! a clock that makes it runnable, or the publisher a `Parked` shard to
//! queue (the `pool_model` tests walk every interleaving).
//! The pool is capped at the host's available parallelism (surplus
//! workers would only time-slice the same cores and evict each other's
//! shard working sets) — when one worker remains, the calling thread
//! claims and runs the shards itself — except under
//! [`ShardedSim::set_perturbation`], which deliberately oversubscribes
//! to widen determinism-test coverage.
//!
//! ## Determinism
//!
//! The shard *partition* is fixed by the topology; `threads` only sizes
//! the worker pool that executes the fixed set of shards, and the
//! scheduler only decides *when* a shard runs, never *what* it runs:
//! each shard executes its (deterministic) event sequence in windows
//! whose boundaries cannot reorder events, and the conservative bound
//! guarantees every cross-shard arrival below a window's limit is
//! present before the window runs. Cross-shard arrivals carry a
//! content-derived sequence number — built from the boundary link id and
//! a per-link message counter, both of which depend only on the sending
//! shard's execution order — so the receiving shard's event order never
//! depends on *when* a message was drained. Merged outputs (counters,
//! telemetry) are combined in shard-index order, so every
//! run is byte-identical for any worker count or schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use iq_obs::Phase;

use crate::agent::Agent;
use crate::link::{LinkSpec, LinkStats};
use crate::packet::{pool_stats, Addr, AgentId, LinkId, NodeId, Packet, PoolStats};
use crate::sched::retained;
use crate::sim::{SimCounters, Simulator};
use crate::time::{Time, TimeDelta};

/// Boundary-arrival sequence numbers live above every locally assigned
/// sequence number, so same-timestamp local events always execute before
/// same-timestamp cross-shard arrivals — an ordering that is stable by
/// construction instead of depending on drain timing.
const BOUNDARY_SEQ_BASE: u64 = 1 << 63;

/// Bits reserved for the per-link message counter inside a boundary
/// sequence number (the link id occupies the bits above).
const BOUNDARY_COUNTER_BITS: u32 = 40;

/// Content-derived sequence number for the `counter`-th arrival crossing
/// boundary link `link`. Both inputs are functions of the sending
/// shard's deterministic execution, so the value is independent of
/// thread interleaving.
pub fn boundary_seq(link: LinkId, counter: u64) -> u64 {
    debug_assert!(u64::from(link.0) < 1 << (63 - BOUNDARY_COUNTER_BITS));
    debug_assert!(counter < 1 << BOUNDARY_COUNTER_BITS);
    BOUNDARY_SEQ_BASE | (u64::from(link.0) << BOUNDARY_COUNTER_BITS) | counter
}

/// Engine-plane counters for one shard's scheduling behavior: how many
/// lookahead windows it ran, how often it was lookahead-limited, how
/// many cross-shard messages it drained, and how the scheduler moved it
/// around (steals, parks, wakes it issued). Schedule-dependent by nature
/// — two runs with different `threads` values produce different values —
/// so these never enter the counter fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookahead windows executed (`run_window` calls that made progress).
    pub windows: u64,
    /// Claims that ran no window: the ingress lookahead bound forbade
    /// progress from the start.
    pub stalls: u64,
    /// Cross-shard arrivals drained from ingress mailboxes.
    pub ingress_msgs: u64,
    /// Times this shard was claimed by a different worker than last time.
    pub steals: u64,
    /// Times this shard left the ready queue to wait for an upstream
    /// clock (it re-enters only when a predecessor publishes one).
    pub parks: u64,
    /// Downstream shards this shard re-queued by publishing its clock.
    pub wakes: u64,
}

/// A packet in flight between shards: the far-end arrival of a boundary
/// link, carrying its content-derived sequence number.
pub(crate) struct WireMsg {
    /// The boundary link the packet crossed.
    pub(crate) link: LinkId,
    /// Arrival time at the link's `to` node (serialization, propagation
    /// and jitter already applied on the sending shard).
    pub(crate) at: Time,
    /// [`boundary_seq`] value for this arrival.
    pub(crate) seq: u64,
    /// The packet itself (moved out of the sender's slab).
    pub(crate) pkt: Packet,
}

/// Handle to an agent registered on a [`ShardedSim`]: the shard index
/// plus the agent id inside that shard's serial simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAgentId {
    /// Index of the shard the agent lives on.
    pub shard: usize,
    /// The agent's id within that shard.
    pub agent: AgentId,
}

/// One inter-shard link: where it crosses and how much lookahead it buys.
struct Boundary {
    src_shard: usize,
    /// Lookahead contributed to the destination shard (= the link's
    /// propagation delay; serialization and jitter only add on top).
    lookahead: u64,
}

/// Scheduler totals summed over every shard (plus the pool-level park
/// count), for `--timing` reports. Engine-plane: schedule-dependent, never fingerprinted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Shard claims by a different worker than the previous claim.
    pub steals: u64,
    /// Shards leaving the ready queue to wait for an upstream clock.
    pub parks: u64,
    /// Downstream re-queues caused by clock publishes.
    pub wakes: u64,
    /// Workers blocking on the pool condvar for lack of runnable shards.
    pub worker_parks: u64,
    /// Threads that ran the shards in the last run: the pool's size
    /// after the shard-count and core-count caps, 1 when the epochs ran
    /// inline on the calling thread, 0 before any run.
    pub workers: u64,
}

/// One shard as the scheduler sees it: the serial simulator plus the
/// claiming worker's private scratch state. Guarded by a `Mutex` during
/// `run_slices` — uncontended in steady state, since a shard is
/// `Running` on at most one worker; the lock's job is to carry memory
/// visibility between *successive* claims from different workers.
struct ShardSlot {
    sim: Simulator,
    /// Worker that ran this shard last (`usize::MAX` = never) — steal
    /// accounting only.
    last_worker: usize,
    /// Swap target for mailbox drains, so a drain is one `Vec` swap
    /// under the channel lock instead of an allocation.
    ingress_buf: Vec<WireMsg>,
}

/// Messages an empty boundary mailbox buffer keeps room for (see
/// [`retained`]). A synchronized burst — 102,400 flows opening at once —
/// spikes a window's boundary traffic to thousands of messages, and a
/// message passes through three reused buffers (the link's outbox, the
/// channel, the ingress swap buffer) per link; each gives the burst's
/// capacity back when it is handed on empty, so only the buffer that
/// holds the burst is burst-sized. Steady-state windows carry about a
/// hundred messages (four times that at 102,400 flows, which costs
/// ≈ 1 % more allocator calls than never shrinking).
const MAILBOX_FLOOR: usize = 64;

/// Applies the retention rule to a mailbox buffer that has just been
/// emptied.
fn give_back(buf: &mut Vec<WireMsg>) {
    if let Some(keep) = retained(buf.capacity(), buf.len(), MAILBOX_FLOOR) {
        buf.shrink_to(keep);
    }
}

/// Where a shard stands with the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Claim {
    /// Out of the ready queue: waiting for an upstream clock, or crossed.
    Parked,
    /// In the ready queue, exactly once.
    Ready,
    /// Claimed by one worker.
    Running,
}

/// Every scheduling decision, behind the scheduler mutex. The three
/// methods are the bodies of the engine's lock sections; they take
/// clocks as values so the `pool_model` test can drive them over an
/// abstract world.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
struct SchedInner {
    claim: Vec<Claim>,
    /// The `Ready` shards as `(clock at enqueue, shard)`; claimed
    /// max-clock first, so the shard a just-published neighbour unblocked
    /// runs next and a leg drains to the target before the next one starts.
    ready: Vec<(Time, usize)>,
    /// Exclusive epoch target (shards run events strictly below it).
    target: Time,
    /// Shards that have not yet crossed the current epoch target.
    remaining: usize,
    /// Workers exit once set.
    shutdown: bool,
}

impl SchedInner {
    fn new(shards: usize) -> Self {
        Self {
            claim: vec![Claim::Parked; shards],
            ready: Vec::with_capacity(shards),
            target: 0,
            remaining: 0,
            shutdown: false,
        }
    }

    /// Pops and claims the max-clock ready shard (the min-clock one if
    /// `pick_min`: perturbation, to prove order doesn't matter).
    fn claim(&mut self, pick_min: bool) -> Option<usize> {
        let ready = self.ready.iter().enumerate();
        let (best, _) = if pick_min {
            ready.min_by_key(|&(_, &(clock, _))| clock)
        } else {
            ready.max_by_key(|&(_, &(clock, _))| clock)
        }?;
        let (_, s) = self.ready.swap_remove(best);
        self.claim[s] = Claim::Running;
        Some(s)
    }

    /// Queues every `Parked` shard of `shards` whose clock is below the
    /// epoch target, returning how many. A publisher calls it on its
    /// successors after storing its clock; an epoch starts by calling it
    /// on every shard.
    fn wake(
        &mut self,
        shards: impl IntoIterator<Item = usize>,
        clock: impl Fn(usize) -> Time,
    ) -> usize {
        let before = self.ready.len();
        for d in shards {
            let at = clock(d);
            if self.claim[d] == Claim::Parked && at < self.target {
                self.claim[d] = Claim::Ready;
                self.ready.push((at, d));
            }
        }
        self.ready.len() - before
    }

    /// Gives up the claim on shard `s`, whose clock is `clock` and whose
    /// lookahead bound is `bound` — read inside this lock section: a
    /// predecessor that published since the runner last looked found `s`
    /// `Running` and queued nothing. Returns whether the shard parked
    /// short of the target, where only a predecessor's publish queues it.
    fn release(&mut self, s: usize, clock: Time, bound: Time) -> bool {
        debug_assert_eq!(self.claim[s], Claim::Running);
        let crossed = clock >= self.target;
        let runnable = !crossed && bound > clock;
        if crossed {
            // Saturating: a panicking sibling zeroes the count to let the
            // main thread go.
            self.remaining = self.remaining.saturating_sub(1);
        }
        if runnable {
            self.ready.push((clock, s));
        }
        self.claim[s] = if runnable {
            Claim::Ready
        } else {
            Claim::Parked
        };
        !crossed && !runnable
    }
}

/// Everything a worker needs, borrowed from the [`ShardedSim`] for the
/// duration of one `run_slices` call.
struct Engine<'a> {
    slots: &'a [Mutex<ShardSlot>],
    clocks: &'a [AtomicU64],
    boundaries: &'a [Boundary],
    ingress: &'a [Vec<usize>],
    egress: &'a [Vec<usize>],
    successors: &'a [Vec<usize>],
    channels: &'a [Mutex<Vec<WireMsg>>],
    worker_parks: &'a AtomicU64,
    worker_pool: &'a Mutex<PoolStats>,
    perturb: Option<u64>,
    sched: Mutex<SchedInner>,
    /// Workers wait here when no shard is claimable.
    worker_cv: Condvar,
    /// The main thread waits here for `remaining == 0`.
    main_cv: Condvar,
}

/// Unblocks the scheduler if a worker unwinds (e.g. an agent panic
/// inside `run_window`), so the main thread and sibling workers don't
/// deadlock waiting for an epoch that will never finish. The panic
/// itself still propagates through `thread::scope`.
struct PanicGuard<'e, 'a>(&'e Engine<'a>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut g = self.0.sched.lock().unwrap_or_else(|e| e.into_inner());
            g.shutdown = true;
            g.remaining = 0;
            drop(g);
            self.0.worker_cv.notify_all();
            self.0.main_cv.notify_all();
        }
    }
}

/// Deterministic per-worker perturbation stream (xorshift64): only used
/// when a perturbation seed is set, to exercise steal orders and forced
/// parks in tests. Never consulted in normal runs.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

impl Engine<'_> {
    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        self.sched
            .lock()
            .expect("a thread panicked inside a scheduler lock section")
    }

    /// Worker main loop: claim, run, repeat until shutdown.
    fn worker(&self, w: usize) {
        let _guard = PanicGuard(self);
        let pool_before = pool_stats();
        let mut rng = self
            .perturb
            .map(|seed| Xorshift::new(mix_seed(seed, w + 1)));
        while let Some((s, target)) = self.next_job(&mut rng) {
            self.run_shard(s, target, w, &mut rng);
        }
        // The payload pool and its counters are this thread's, and the
        // thread ends here: hand over what it counted.
        let mut total = self.worker_pool.lock().unwrap_or_else(|e| e.into_inner());
        *total = total.plus(pool_stats().since(pool_before));
    }

    /// Blocks on the pool condvar until a shard is claimable (returned
    /// with the epoch target it runs towards) or shutdown is flagged.
    fn next_job(&self, rng: &mut Option<Xorshift>) -> Option<(usize, Time)> {
        let mut g = self.lock();
        loop {
            if g.shutdown {
                return None;
            }
            let pick_min = rng.as_mut().is_some_and(|r| r.next() % 4 == 0);
            if let Some(s) = g.claim(pick_min) {
                return Some((s, g.target));
            }
            self.worker_parks.fetch_add(1, Ordering::Relaxed);
            g = self.worker_cv.wait(g).expect("scheduler mutex poisoned");
        }
    }

    /// Shard `s`'s clock: Acquire, paired with `window`'s Release store.
    fn clock(&self, s: usize) -> Time {
        self.clocks[s].load(Ordering::Acquire)
    }

    /// Lookahead bound for shard `s` from current predecessor clocks.
    fn bound(&self, s: usize) -> Time {
        let mut limit = Time::MAX;
        for &b in &self.ingress[s] {
            let src = self.clock(self.boundaries[b].src_shard);
            limit = limit.min(src.saturating_add(self.boundaries[b].lookahead));
        }
        limit
    }

    /// Runs claimed shard `s` window after window until its lookahead
    /// bound stops it or it reaches `target`, then releases the claim:
    /// re-queue if still runnable, park if lookahead-limited, report
    /// epoch completion if it crossed.
    fn run_shard(&self, s: usize, target: Time, worker: usize, rng: &mut Option<Xorshift>) {
        let mut slot = self.slots[s].lock().unwrap();
        let slot = &mut *slot;
        if slot.last_worker != worker {
            if slot.last_worker != usize::MAX {
                slot.sim.shard_stats_mut().steals += 1;
            }
            slot.last_worker = worker;
        }
        let mut limit = target.min(self.bound(s));
        if limit <= self.clock(s) {
            slot.sim.shard_stats_mut().stalls += 1;
        }
        while limit > self.clock(s) {
            if let Some(r) = rng.as_mut() {
                // Perturbation: pretend the scheduler preempted us here.
                if r.next() % 8 == 0 {
                    std::thread::yield_now();
                }
            }
            self.window(s, slot, limit);
            // The clock is stored; queue whoever it unblocks.
            let woken = self
                .lock()
                .wake(self.successors[s].iter().copied(), |d| self.clock(d));
            for _ in 0..woken {
                self.worker_cv.notify_one();
            }
            slot.sim.shard_stats_mut().wakes += woken as u64;
            limit = target.min(self.bound(s));
        }
        let mut g = self.lock();
        let parked = g.release(s, self.clock(s), self.bound(s));
        let epoch_done = g.remaining == 0;
        drop(g);
        if parked {
            slot.sim.shard_stats_mut().parks += 1;
        }
        if epoch_done {
            self.main_cv.notify_all();
        }
    }

    /// One lookahead window: drain ingress mailboxes (everything below
    /// `limit` is present by flush-before-publish), execute, flush
    /// boundary output, publish the clock.
    fn window(&self, s: usize, slot: &mut ShardSlot, limit: Time) {
        let ShardSlot {
            sim, ingress_buf, ..
        } = slot;
        sim.profiler().enter(Phase::Ingress);
        for &b in &self.ingress[s] {
            {
                let mut ch = self.channels[b].lock().unwrap();
                std::mem::swap(&mut *ch, ingress_buf);
            }
            sim.shard_stats_mut().ingress_msgs += ingress_buf.len() as u64;
            for m in ingress_buf.drain(..) {
                sim.inject_arrival(m);
            }
            // The swap hands this (now empty) buffer to the next
            // channel, so trimming it here trims the channels too.
            give_back(ingress_buf);
        }
        sim.profiler().enter(Phase::Execute);
        sim.run_window(limit);
        // Flush boundary output *before* publishing the clock, so a
        // neighbor that observes the new clock also observes every
        // message it implies. The simulator keeps one outbox per egress
        // link (in this shard's egress-list order), so a window costs one
        // mailbox lock per boundary, not one per message.
        sim.profiler().enter(Phase::Flush);
        for (pos, &b) in self.egress[s].iter().enumerate() {
            let batch = sim.outbox_mut(pos);
            if !batch.is_empty() {
                {
                    let mut ch = self.channels[b].lock().unwrap();
                    if ch.is_empty() {
                        // Hand the batch's buffer over whole; appending
                        // would grow the mailbox to the same capacity
                        // beside it.
                        std::mem::swap(&mut *ch, batch);
                    } else {
                        ch.append(batch);
                    }
                }
                // Whichever buffer the outbox is left with: its own,
                // emptied, or the channel's spare.
                give_back(batch);
            }
        }
        self.clocks[s].store(limit, Ordering::Release);
        sim.profiler().enter(Phase::Idle);
        sim.shard_stats_mut().windows += 1;
    }

    /// Runs one epoch: every shard advances to the exclusive `target`.
    /// Returns `true` once all shards have crossed, `false` if a worker
    /// panicked. `inline`: there is no pool, and this thread claims and
    /// runs the shards itself instead of waiting for one.
    fn run_epoch(&self, target: Time, inline: bool) -> bool {
        let mut g = self.lock();
        g.target = target;
        g.remaining = g.wake(0..self.slots.len(), |s| self.clock(s));
        self.worker_cv.notify_all();
        while g.remaining > 0 {
            if inline {
                // The queue cannot be empty while shards remain: a parked
                // shard's bound was at most its clock, and only a
                // predecessor's publish (which queues it) raises it; the
                // min-clock uncrossed shard's bound exceeds its clock
                // (positive lookahead, no predecessor behind it), so it
                // is queued whichever shard this thread ran last.
                let s = g
                    .claim(false)
                    .expect("ready queue empty with shards remaining");
                drop(g);
                self.run_shard(s, target, 0, &mut None);
                g = self.lock();
            } else {
                g = self.main_cv.wait(g).expect("scheduler mutex poisoned");
            }
        }
        !g.shutdown
    }
}

/// Read-only view of the shards between slices, for `run_slices` stop
/// callbacks. Locks the shard's slot per call — workers are quiescent
/// between epochs, so the lock is uncontended.
pub struct ShardView<'a> {
    slots: &'a [Mutex<ShardSlot>],
}

impl ShardView<'_> {
    /// Calls `f` with the concrete agent at `id`, if it exists and has
    /// that type (see [`Simulator::agent`]).
    pub fn with_agent<T: Agent, R>(&self, id: ShardAgentId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let slot = self.slots[id.shard].lock().unwrap();
        slot.sim.agent::<T>(id.agent).map(f)
    }
}

/// A simulation partitioned into topology shards that execute in
/// parallel under the conservative-lookahead protocol (module docs).
///
/// Construction mirrors [`Simulator`], with two differences: shards are
/// declared first ([`Self::add_shard`]), and every node names its owning
/// shard. Boundary links are detected automatically and must have a
/// strictly positive propagation delay.
pub struct ShardedSim {
    shards: Vec<ShardSlot>,
    /// Owning shard of each node, indexed by `NodeId`.
    owner: Vec<usize>,
    /// `(from, to)` of every link, indexed by `LinkId`: the one copy of
    /// the topology's edges, installed in every shard by `run_slices`.
    endpoints: Arc<Vec<(NodeId, NodeId)>>,
    boundaries: Vec<Boundary>,
    /// Inbound boundary indices per shard.
    ingress: Vec<Vec<usize>>,
    /// Outbound boundary indices per shard, in the order the shard's
    /// simulator numbers its outboxes ([`Simulator::outbox_mut`]).
    egress: Vec<Vec<usize>>,
    /// Distinct downstream shards per shard (wake targets).
    successors: Vec<Vec<usize>>,
    /// Exclusive per-shard clocks (see module docs); persist across
    /// successive `run_until` calls.
    clocks: Vec<AtomicU64>,
    /// One mailbox per boundary link (single producer, single consumer;
    /// the mutex only arbitrates flush vs. drain).
    channels: Vec<Mutex<Vec<WireMsg>>>,
    /// Pool-level condvar blocks (see [`SchedTotals::worker_parks`]).
    worker_parks: AtomicU64,
    /// Payload-pool counters of every pool worker that has exited (see
    /// [`Self::worker_pool_stats`]).
    worker_pool: Mutex<PoolStats>,
    /// Scheduling-perturbation seed for determinism tests.
    perturb: Option<u64>,
    threads: usize,
    /// Effective pool size of the last `run_slices` call (see
    /// [`SchedTotals::workers`]).
    workers_used: usize,
    now: Time,
    seed: u64,
}

impl ShardedSim {
    /// Creates an empty sharded simulation. Shard RNG streams and packet
    /// id spaces are derived from `seed` and the shard index, so results
    /// depend only on `seed` and the topology — never on thread count.
    pub fn new(seed: u64) -> Self {
        Self {
            shards: Vec::new(),
            owner: Vec::new(),
            endpoints: Arc::default(),
            boundaries: Vec::new(),
            ingress: Vec::new(),
            egress: Vec::new(),
            successors: Vec::new(),
            clocks: Vec::new(),
            channels: Vec::new(),
            worker_parks: AtomicU64::new(0),
            worker_pool: Mutex::new(PoolStats::default()),
            perturb: None,
            threads: 1,
            workers_used: 0,
            now: 0,
            seed,
        }
    }

    /// Declares a new shard and returns its index. All shards must be
    /// declared before the first node.
    pub fn add_shard(&mut self) -> usize {
        assert!(
            self.owner.is_empty(),
            "declare all shards before adding nodes (shards fix the \
             partition; nodes are mirrored into every shard)"
        );
        let idx = self.shards.len();
        let mut sim = Simulator::new(mix_seed(self.seed, idx));
        sim.set_packet_id_base((idx as u64) << 48);
        self.shards.push(ShardSlot {
            sim,
            last_worker: usize::MAX,
            ingress_buf: Vec::new(),
        });
        self.ingress.push(Vec::new());
        self.egress.push(Vec::new());
        self.successors.push(Vec::new());
        self.clocks.push(AtomicU64::new(0));
        idx
    }

    /// Number of declared shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `shard`'s simulator; panics, naming the index, if no
    /// `add_shard` returned it.
    fn sim(&self, shard: usize) -> &Simulator {
        let len = self.shards.len();
        &self
            .shards
            .get(shard)
            .unwrap_or_else(|| no_such_shard(shard, len))
            .sim
    }

    fn sim_mut(&mut self, shard: usize) -> &mut Simulator {
        let len = self.shards.len();
        &mut self
            .shards
            .get_mut(shard)
            .unwrap_or_else(|| no_such_shard(shard, len))
            .sim
    }

    /// Sets the requested worker-pool size (default 1). The pool that
    /// runs is capped at the shard count and at the host's available
    /// parallelism (surplus workers would only time-slice the same cores
    /// and evict each other's shard working sets); when one worker
    /// remains, the calling thread claims and runs the shards itself.
    /// The value never affects results, only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Sets (or clears) a scheduling-perturbation seed. When set,
    /// workers claim the *least* advanced shard one time in four and
    /// inject fake preemptions — a determinism-test aid that exercises
    /// steal orders and parks the normal schedule would rarely produce,
    /// the min-clock order among them — and the
    /// worker pool is deliberately *not* capped at the core count, so
    /// oversubscribed schedules get exercised even on small hosts.
    /// Results must be byte-identical either way; only engine-plane
    /// stats move.
    pub fn set_perturbation(&mut self, seed: Option<u64>) {
        self.perturb = seed;
    }

    /// Adds a node owned by `shard`. The node id is global: every shard
    /// counts it, but only the owning shard hosts its agents and events
    /// (and, from the node's first agent on, a port table for it).
    pub fn add_node(&mut self, shard: usize) -> NodeId {
        self.sim(shard); // names an undeclared shard
        let mut id = None;
        for slot in &mut self.shards {
            let nid = slot.sim.add_node();
            debug_assert!(id.is_none() || id == Some(nid));
            id = Some(nid);
        }
        self.owner.push(shard);
        id.expect("add_shard must be called before add_node")
    }

    /// Adds a unidirectional link. Links with endpoints on different
    /// shards become boundary links and must have `spec.delay > 0` — the
    /// delay is the lookahead that lets the two shards run concurrently.
    ///
    /// # Panics
    /// Panics, naming the link and the node, if either endpoint was not
    /// created with [`Self::add_node`].
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.endpoints.len() as u32);
        let [src, dst] = [from, to].map(|end| {
            *self.owner.get(end.0 as usize).unwrap_or_else(|| {
                panic!(
                    "link {id} references unknown node {end} (only {} nodes exist; \
                     create nodes with add_node first)",
                    self.owner.len()
                )
            })
        });
        if src != dst {
            assert!(
                spec.delay > 0,
                "boundary link {from}->{to} (shard {src} -> {dst}) needs a \
                 positive propagation delay: the delay is the conservative \
                 lookahead, and zero would deadlock the shard protocol"
            );
        }
        // Every shard numbers the link; only `src`, which transmits on
        // it, holds state for it.
        Arc::make_mut(&mut self.endpoints).push((from, to));
        let lookahead = spec.delay;
        let mut spec = Some(spec);
        for (i, slot) in self.shards.iter_mut().enumerate() {
            let lid = slot
                .sim
                .mirror_link(if i == src { spec.take() } else { None });
            debug_assert_eq!(lid, id);
        }
        if src != dst {
            let outbox = self.shards[src].sim.mark_egress(id);
            debug_assert_eq!(outbox, self.egress[src].len());
            let b = self.boundaries.len();
            self.ingress[dst].push(b);
            self.egress[src].push(b);
            if !self.successors[src].contains(&dst) {
                self.successors[src].push(dst);
            }
            self.boundaries.push(Boundary {
                src_shard: src,
                lookahead,
            });
            self.channels.push(Mutex::new(Vec::new()));
        }
        id
    }

    /// Adds a pair of unidirectional links with identical characteristics.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, spec.clone());
        let ba = self.add_link(b, a, spec);
        (ab, ba)
    }

    /// Registers an agent at `(node, port)` on the node's owning shard.
    ///
    /// # Panics
    /// Panics if `node` does not exist or the address is already taken.
    pub fn add_agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId {
        let shard = *self.owner.get(node.0 as usize).unwrap_or_else(|| {
            panic!(
                "agent registered at {}, but node {node} does not exist \
                 (only {} nodes; create it with add_node first)",
                Addr::new(node, port),
                self.owner.len()
            )
        });
        let agent = self.sim_mut(shard).add_agent(node, port, agent);
        ShardAgentId { shard, agent }
    }

    /// Attaches a telemetry sink to one shard (see
    /// [`Simulator::attach_telemetry`]). Per-shard sinks keep telemetry
    /// lock-free across threads; merge the buses in shard-index order
    /// for a deterministic combined stream. A flow's ground truth is the
    /// fold of its `flow_records` on every shard's bus: its sends are on
    /// its source's shard, its deliveries on its sink's.
    pub fn attach_telemetry(&mut self, shard: usize, sink: iq_telemetry::TelemetrySink) {
        self.sim_mut(shard).attach_telemetry(sink);
    }

    /// Current simulation time (the last `run_until` deadline reached).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to one shard's serial simulator (post-run inspection).
    pub fn shard(&self, idx: usize) -> &Simulator {
        self.sim(idx)
    }

    /// Immutable access to a concrete agent type (see [`Simulator::agent`]).
    pub fn agent<T: Agent>(&self, id: ShardAgentId) -> Option<&T> {
        self.sim(id.shard).agent(id.agent)
    }

    /// Mutable access to a concrete agent type.
    pub fn agent_mut<T: Agent>(&mut self, id: ShardAgentId) -> Option<&mut T> {
        self.sim_mut(id.shard).agent_mut(id.agent)
    }

    /// Simulation-wide counters, summed over shards in index order.
    pub fn counters(&self) -> SimCounters {
        let mut total = SimCounters::default();
        for s in &self.shards {
            total += s.sim.counters();
        }
        total
    }

    /// Reports every shard's metrics into `reg` in shard-index order
    /// (labels `shard="0"`, `shard="1"`, …). The resulting sim-plane
    /// text is byte-identical for any `threads` value because the shard
    /// partition — not the schedule — determines each shard's executed
    /// event set. Engine-plane scheduler totals ride along unlabelled.
    pub fn collect_obs(&self, reg: &mut iq_obs::Registry) {
        for (i, s) in self.shards.iter().enumerate() {
            s.sim.collect_obs(reg, &i.to_string());
        }
        reg.counter(
            iq_obs::Plane::Engine,
            "iq_shard_worker_parks_total",
            &[],
            self.worker_parks.load(Ordering::Relaxed),
        );
    }

    /// Per-shard wall-clock phase breakdowns, in shard-index order.
    pub fn phase_snapshots(&self) -> Vec<iq_obs::PhaseSnapshot> {
        self.shards.iter().map(|s| s.sim.phase_snapshot()).collect()
    }

    /// Scheduler totals summed over shards, plus the pool-level park
    /// count. Engine-plane: schedule-dependent, never fingerprinted.
    pub fn sched_totals(&self) -> SchedTotals {
        let mut t = SchedTotals::default();
        for s in &self.shards {
            let st = s.sim.shard_stats();
            t.steals += st.steals;
            t.parks += st.parks;
            t.wakes += st.wakes;
        }
        t.worker_parks = self.worker_parks.load(Ordering::Relaxed);
        t.workers = self.workers_used as u64;
        t
    }

    /// Payload-pool counters summed over the worker threads of every
    /// `run_slices` call so far. The pool is thread-local
    /// ([`crate::pool_stats`] reads the calling thread's), so this is
    /// the part of a run's pool traffic the caller's own delta cannot
    /// see; all zero when the epochs ran inline on the calling thread.
    /// Engine-plane: which worker ran what depends on the schedule.
    pub fn worker_pool_stats(&self) -> PoolStats {
        *self.worker_pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stats for one link, read from the shard that owns its sending
    /// side (queueing, serialization, and loss all happen there).
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        let &(from, _) = self.endpoints.get(id.0 as usize).unwrap_or_else(|| {
            panic!(
                "no such link L{} (only {} links exist)",
                id.0,
                self.endpoints.len()
            )
        });
        self.shards[self.owner[from.0 as usize]].sim.link_stats(id)
    }

    /// Runs every shard up to and including `deadline` under the
    /// conservative-lookahead protocol, then returns the new time.
    /// Callable repeatedly with increasing deadlines.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        self.run_slices(deadline, Time::MAX, |_| false)
    }

    /// Runs to `deadline` in epochs of `slice` simulated time on one
    /// persistent worker pool, calling `stop` between epochs; a `true`
    /// return ends the run early. This replaces the serial
    /// slice-and-poll pattern (`run_for(slice)` in a loop), which paid
    /// thread spawn/join per slice — here the pool spans all slices and
    /// only the cheap epoch rendezvous separates them.
    pub fn run_slices(
        &mut self,
        deadline: Time,
        slice: TimeDelta,
        mut stop: impl FnMut(&ShardView<'_>) -> bool,
    ) -> Time {
        // Every shard sees the whole topology, so the endpoints and
        // route tables are the world's: shard 0 computes the routes (only
        // if the topology changed since its last run) and the rest adopt
        // the same allocation. Re-installed on every call so no shard can
        // run on a table older than the topology.
        for slot in &mut self.shards {
            slot.sim.share_endpoints(&self.endpoints);
        }
        let [first, rest @ ..] = &mut self.shards[..] else {
            panic!("no shards declared");
        };
        let routes = first.sim.current_routes();
        for slot in rest {
            slot.sim.share_routes(routes);
        }
        deadline
            .checked_add(1)
            .expect("deadline too close to Time::MAX");
        // Pool sizing: never more workers than shards, and — unless a
        // perturbation seed asks for adversarial oversubscription —
        // never more workers than the host has cores: `--shards 8` on a
        // 1-core box must cost nothing over `--shards 1`.
        let mut threads = self.threads.clamp(1, self.shards.len());
        if self.perturb.is_none() {
            threads = threads.min(std::thread::available_parallelism().map_or(1, usize::from));
        }
        self.workers_used = threads;
        let slice = slice.max(1);
        for slot in &mut self.shards {
            // Start every shard's wall clock in the idle phase so
            // lookahead-limited time before the first window is
            // attributed, not lost.
            slot.sim.profiler().enter(Phase::Idle);
        }
        // Move the shards into lockable slots for the pool's lifetime;
        // they are restored (in index order) before returning, so every
        // `&self` accessor keeps working between calls.
        let slots: Vec<Mutex<ShardSlot>> = self.shards.drain(..).map(Mutex::new).collect();
        let engine = Engine {
            slots: &slots,
            clocks: &self.clocks,
            boundaries: &self.boundaries,
            ingress: &self.ingress,
            egress: &self.egress,
            successors: &self.successors,
            channels: &self.channels,
            worker_parks: &self.worker_parks,
            worker_pool: &self.worker_pool,
            perturb: self.perturb,
            sched: Mutex::new(SchedInner::new(slots.len())),
            worker_cv: Condvar::new(),
            main_cv: Condvar::new(),
        };
        // One effective worker means a pool would only trade futex round
        // trips with this thread, so this thread runs the shards itself.
        // (Perturbation keeps the pool so cross-thread schedules stay
        // exercised.)
        let inline = threads == 1 && self.perturb.is_none();
        let mut now = self.now;
        std::thread::scope(|scope| {
            if !inline {
                for w in 0..threads {
                    let engine = &engine;
                    scope.spawn(move || engine.worker(w));
                }
            }
            loop {
                let slice_end = now.saturating_add(slice).min(deadline);
                let crossed = engine.run_epoch(slice_end + 1, inline);
                now = slice_end;
                if !crossed || now >= deadline || stop(&ShardView { slots: &slots }) {
                    break;
                }
            }
            engine.lock().shutdown = true;
            engine.worker_cv.notify_all();
        });
        for slot in slots {
            let mut slot = slot.into_inner().expect("shard slot poisoned");
            // Close the profiler so the idle tail between a shard
            // finishing and the slowest shard finishing is attributed.
            slot.sim.profiler().finish();
            self.shards.push(slot);
        }
        self.now = self.now.max(now);
        self.now
    }

    /// Runs for an additional `delta` of simulated time.
    pub fn run_for(&mut self, delta: TimeDelta) -> Time {
        let deadline = self.now.saturating_add(delta);
        self.run_until(deadline)
    }
}

fn no_such_shard(shard: usize, len: usize) -> ! {
    panic!("no such shard {shard} (only {len} shards declared)")
}

/// Per-shard RNG salt: splitmix64-style odd-constant mix so shard
/// streams are decorrelated but fully determined by (seed, index).
/// Shard 0 draws the caller's seed itself, so a 1-shard world *is*
/// `Simulator::new(seed)`.
fn mix_seed(seed: u64, shard: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Ctx;
    use crate::packet::{payload, FlowId};
    use crate::time::{millis, secs, MILLISECOND};

    /// Sends `count` packets to `dst`, one per millisecond, then records
    /// the arrival time of every echo.
    struct Pinger {
        dst: Addr,
        count: u32,
        sent: u32,
        echoes: Vec<(Time, u32)>,
    }
    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(0, 0);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let v = *pkt.payload_as::<u32>().unwrap();
            self.echoes.push((ctx.now(), v));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.count {
                ctx.send(self.dst, 400, FlowId(1), payload(self.sent));
                self.sent += 1;
                ctx.set_timer(MILLISECOND, 0);
            }
        }
    }

    /// Echoes every packet straight back to its source.
    #[derive(Default)]
    struct Echoer {
        got: u32,
    }
    impl Agent for Echoer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.got += 1;
            let v = *pkt.payload_as::<u32>().unwrap();
            ctx.send(pkt.src, 400, FlowId(2), payload(v));
        }
    }

    /// Two shards joined by one duplex boundary link, echo traffic both
    /// ways. Returns the pinger's echo log and the global counters.
    fn echo_run(threads: usize, perturb: Option<u64>) -> (Vec<(Time, u32)>, SimCounters) {
        let mut sim = ShardedSim::new(7);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        sim.set_threads(threads);
        sim.set_perturbation(perturb);
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
        let ping = sim.add_agent(
            a,
            1,
            Box::new(Pinger {
                dst: Addr::new(b, 2),
                count: 50,
                sent: 0,
                echoes: Vec::new(),
            }),
        );
        sim.add_agent(b, 2, Box::new(Echoer::default()));
        sim.run_until(secs(2.0));
        let log = sim.agent::<Pinger>(ping).unwrap().echoes.clone();
        (log, sim.counters())
    }

    #[test]
    fn echoes_cross_the_boundary_both_ways() {
        let (log, counters) = echo_run(1, None);
        assert_eq!(log.len(), 50, "every ping must be echoed back");
        assert_eq!(counters.packets_sent, 100);
        assert_eq!(counters.packets_delivered, 100);
        // One-way: ~5 ms propagation + serialization each direction.
        assert!(log[0].0 >= millis(10));
        // Payloads come back in send order.
        assert!(log.windows(2).all(|w| w[0].1 + 1 == w[1].1));
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        let base = echo_run(1, None);
        for threads in [2, 3, 8] {
            let got = echo_run(threads, None);
            assert_eq!(got.0, base.0, "echo log differs at {threads} threads");
            assert_eq!(
                got.1.events_processed, base.1.events_processed,
                "event count differs at {threads} threads"
            );
        }
    }

    #[test]
    fn results_are_identical_under_scheduling_perturbation() {
        let base = echo_run(1, None);
        for (threads, seed) in [(1, 11), (2, 12), (4, 13)] {
            let got = echo_run(threads, Some(seed));
            assert_eq!(
                got.0, base.0,
                "echo log differs at {threads} threads, perturbation {seed}"
            );
            assert_eq!(got.1.events_processed, base.1.events_processed);
        }
    }

    #[test]
    fn packets_forward_across_intermediate_shards() {
        // Three shards in a line: a -> r -> b. The middle shard only
        // forwards, so the packet crosses two boundaries.
        let mut sim = ShardedSim::new(3);
        let (s0, s1, s2) = (sim.add_shard(), sim.add_shard(), sim.add_shard());
        sim.set_threads(3);
        let buses = [s0, s1, s2].map(|shard| {
            let (sink, bus) = iq_telemetry::TelemetrySink::new_bus(0);
            sim.attach_telemetry(shard, sink);
            bus
        });
        let a = sim.add_node(s0);
        let r = sim.add_node(s1);
        let b = sim.add_node(s2);
        sim.add_duplex_link(a, r, LinkSpec::new(10e6, millis(2), 64_000));
        sim.add_duplex_link(r, b, LinkSpec::new(10e6, millis(2), 64_000));
        let ping = sim.add_agent(
            a,
            1,
            Box::new(Pinger {
                dst: Addr::new(b, 2),
                count: 10,
                sent: 0,
                echoes: Vec::new(),
            }),
        );
        let echo = sim.add_agent(b, 2, Box::new(Echoer::default()));
        sim.run_until(secs(1.0));
        assert_eq!(sim.agent::<Echoer>(echo).unwrap().got, 10);
        assert_eq!(sim.agent::<Pinger>(ping).unwrap().echoes.len(), 10);
        // Sent on shard 0, delivered on shard 2: the fold over every
        // shard's records.
        let fold = |flow| {
            let records: Vec<_> = buses
                .iter()
                .flat_map(|b| b.lock().unwrap().flow_records(flow))
                .collect();
            iq_telemetry::TelemetryReport::from_records(&records)
        };
        let (f1, f2) = (fold(1), fold(2));
        assert_eq!(
            (f1.sent_packets, f1.delivered_packets, f2.delivered_packets),
            (10, 10, 10)
        );
    }

    /// The shards of a world share one route table, and a topology
    /// change between runs replaces it in all of them: a shard can never
    /// route on a table older than the topology it mirrors.
    #[test]
    fn shards_share_one_route_table_and_never_a_stale_one() {
        use std::sync::Arc;

        let mut sim = ShardedSim::new(5);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        sim.set_threads(2);
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
        let pinger = |dst| Pinger {
            dst,
            count: 5,
            sent: 0,
            echoes: Vec::new(),
        };
        sim.add_agent(a, 1, Box::new(pinger(Addr::new(b, 2))));
        sim.add_agent(b, 2, Box::new(Echoer::default()));
        sim.run_until(millis(100));
        let before = Arc::clone(sim.shard(0).routes());
        assert!(
            Arc::ptr_eq(&before, sim.shard(1).routes()),
            "each shard computed a route table of its own"
        );

        // A new host behind `b`: reaching it from `a` needs a fresh table
        // on shard 0 (first hop) and on shard 1 (second hop).
        let c = sim.add_node(s1);
        sim.add_duplex_link(b, c, LinkSpec::new(10e6, millis(1), 64_000));
        let ping = sim.add_agent(a, 3, Box::new(pinger(Addr::new(c, 2))));
        let echo = sim.add_agent(c, 2, Box::new(Echoer::default()));
        sim.run_until(millis(200));
        assert!(
            !Arc::ptr_eq(&before, sim.shard(0).routes()),
            "stale table kept"
        );
        assert!(Arc::ptr_eq(sim.shard(0).routes(), sim.shard(1).routes()));
        assert_eq!(sim.agent::<Echoer>(echo).unwrap().got, 5);
        assert_eq!(sim.agent::<Pinger>(ping).unwrap().echoes.len(), 5);
        assert_eq!(sim.counters().packets_unroutable, 0);
    }

    /// Link state lives on the shard that transmits and nowhere else;
    /// the endpoints of the whole topology exist once, and every shard
    /// routes boundary arrivals by that one table — also for a link
    /// added between two runs.
    #[test]
    fn shards_hold_state_only_for_the_links_they_transmit_on() {
        // Three shards in a line: a -> r -> b.
        let mut sim = ShardedSim::new(3);
        let (s0, s1, s2) = (sim.add_shard(), sim.add_shard(), sim.add_shard());
        sim.set_threads(3);
        let a = sim.add_node(s0);
        let r = sim.add_node(s1);
        let b = sim.add_node(s2);
        let spec = LinkSpec::new(10e6, millis(2), 64_000);
        let (ar, ra) = sim.add_duplex_link(a, r, spec.clone());
        let (rb, br) = sim.add_duplex_link(r, b, spec.clone());
        let pinger = |dst| Pinger {
            dst,
            count: 10,
            sent: 0,
            echoes: Vec::new(),
        };
        let ping = sim.add_agent(a, 1, Box::new(pinger(Addr::new(b, 2))));
        sim.add_agent(b, 2, Box::new(Echoer::default()));
        sim.run_until(millis(500));

        let owned = |sim: &ShardedSim| -> Vec<Vec<LinkId>> {
            (0..3).map(|i| sim.shard(i).owned_links()).collect()
        };
        assert_eq!(owned(&sim), [vec![ar], vec![ra, rb], vec![br]]);
        for i in 1..3 {
            assert!(
                Arc::ptr_eq(sim.shard(0).endpoints(), sim.shard(i).endpoints()),
                "shard {i} keeps an endpoints table of its own"
            );
        }
        assert_eq!(**sim.shard(1).endpoints(), [(a, r), (r, a), (r, b), (b, r)]);
        // The middle shard owns neither `ar` nor `br`, whose arrivals it
        // routed onward all the same.
        assert_eq!(sim.agent::<Pinger>(ping).unwrap().echoes.len(), 10);
        for link in [ar, ra, rb, br] {
            assert_eq!(sim.link_stats(link).transmitted_packets, 10, "{link:?}");
        }
        // A shard asked about a link it does not transmit on answers
        // with zeroes, not a panic.
        assert_eq!(sim.shard(1).link_stats(ar).enqueued_packets, 0);
        assert_eq!(sim.shard(0).link_stats(ar).enqueued_packets, 10);

        // A host behind `b`, on the middle shard: two more boundary
        // links, one transmitted on by each of s1 and s2, seen by all.
        let c = sim.add_node(s1);
        let (bc, cb) = sim.add_duplex_link(b, c, spec);
        let ping_c = sim.add_agent(a, 3, Box::new(pinger(Addr::new(c, 2))));
        sim.add_agent(c, 2, Box::new(Echoer::default()));
        sim.run_until(millis(1000));
        assert_eq!(owned(&sim), [vec![ar], vec![ra, rb, cb], vec![br, bc]]);
        for i in 0..3 {
            assert!(Arc::ptr_eq(
                sim.shard(0).endpoints(),
                sim.shard(i).endpoints()
            ));
            assert_eq!(
                sim.shard(i).endpoints().len(),
                6,
                "shard {i} runs on a stale table"
            );
        }
        assert_eq!(sim.agent::<Pinger>(ping_c).unwrap().echoes.len(), 10);
        assert_eq!(sim.link_stats(bc).transmitted_packets, 10);
        assert_eq!(sim.link_stats(cb).transmitted_packets, 10);
        assert_eq!(sim.link_stats(ar).transmitted_packets, 20);
        assert_eq!(sim.counters().packets_unroutable, 0);
    }

    /// Two shards, a node on each and a duplex link between them: the
    /// ids it issued stop at shard 1, node 1 and link 1.
    fn two_shard_world() -> ShardedSim {
        let mut sim = ShardedSim::new(1);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
        sim
    }

    #[test]
    #[should_panic(expected = "no such link L2 (only 2 links exist)")]
    fn link_stats_for_a_link_no_shard_knows_names_the_offender() {
        two_shard_world().link_stats(LinkId(2));
    }

    #[test]
    #[should_panic(expected = "link L2 references unknown node n2 (only 2 nodes exist")]
    fn add_link_to_an_unknown_node_names_the_offender() {
        let spec = LinkSpec::new(10e6, millis(5), 64_000);
        two_shard_world().add_link(NodeId(0), NodeId(2), spec);
    }

    #[test]
    #[should_panic(expected = "agent registered at n7:1, but node n7 does not exist (only 2 nodes")]
    fn add_agent_on_an_unknown_node_names_the_offender() {
        two_shard_world().add_agent(NodeId(7), 1, Box::new(Echoer::default()));
    }

    #[test]
    #[should_panic(expected = "no such shard 2 (only 2 shards declared)")]
    fn attach_telemetry_to_an_unknown_shard_names_the_offender() {
        let (sink, _bus) = iq_telemetry::TelemetrySink::new_bus(0);
        two_shard_world().attach_telemetry(2, sink);
    }

    #[test]
    #[should_panic(expected = "no such shard 3 (only 2 shards declared)")]
    fn shard_of_an_unknown_index_names_the_offender() {
        two_shard_world().shard(3);
    }

    #[test]
    #[should_panic(expected = "no such shard 2 (only 2 shards declared)")]
    fn agent_on_an_unknown_shard_names_the_offender() {
        let id = ShardAgentId {
            shard: 2,
            agent: AgentId(0),
        };
        two_shard_world().agent::<Echoer>(id);
    }

    #[test]
    #[should_panic(expected = "no such shard 5 (only 2 shards declared)")]
    fn agent_mut_on_an_unknown_shard_names_the_offender() {
        let id = ShardAgentId {
            shard: 5,
            agent: AgentId(0),
        };
        two_shard_world().agent_mut::<Echoer>(id);
    }

    #[test]
    #[should_panic(expected = "no such shard 2 (only 2 shards declared)")]
    fn add_node_on_an_unknown_shard_names_the_offender() {
        two_shard_world().add_node(2);
    }

    /// Appends `(leg, now)` to a log shared by every agent, once a
    /// millisecond.
    struct Ticker {
        leg: usize,
        log: Arc<Mutex<Vec<(usize, Time)>>>,
    }
    impl Agent for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(MILLISECOND, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.log.lock().unwrap().push((self.leg, ctx.now()));
            ctx.set_timer(MILLISECOND, 0);
        }
    }

    /// The drain order: one thread runs a leg's two shards, leapfrogging
    /// on the boundary lookahead, all the way to the epoch target before
    /// it touches the other leg — so the execution log switches leg once.
    /// A min-clock scheduler switches at every window.
    #[test]
    fn one_thread_drains_one_leg_at_a_time() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = ShardedSim::new(13);
        let shards: Vec<usize> = (0..4).map(|_| sim.add_shard()).collect();
        let nodes: Vec<NodeId> = shards.iter().map(|&s| sim.add_node(s)).collect();
        for leg in 0..2 {
            let (l, r) = (nodes[2 * leg], nodes[2 * leg + 1]);
            sim.add_duplex_link(l, r, LinkSpec::new(10e6, millis(5), 64_000));
            for node in [l, r] {
                let log = Arc::clone(&log);
                sim.add_agent(node, 1, Box::new(Ticker { leg, log }));
            }
        }
        sim.run_until(millis(200));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4 * 200, "every shard ran to the target");
        let switches = log.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert_eq!(switches, 1, "the drain switched leg {switches} times");
    }

    /// Sends `burst` packets at time zero, then `trickle` more every
    /// 20 ms, `rounds` times over.
    struct Burster {
        dst: Addr,
        burst: u32,
        trickle: u32,
        rounds: u32,
        sent: u32,
    }
    impl Agent for Burster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.send(ctx, self.burst);
            ctx.set_timer(millis(20), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.rounds > 0 {
                self.rounds -= 1;
                self.send(ctx, self.trickle);
                ctx.set_timer(millis(20), 0);
            }
        }
    }
    impl Burster {
        fn send(&mut self, ctx: &mut Ctx<'_>, n: u32) {
            for _ in 0..n {
                ctx.send(self.dst, 100, FlowId(1), payload(self.sent));
                self.sent += 1;
            }
        }
    }

    /// Records the payload of every packet, in arrival order.
    #[derive(Default)]
    struct Sequence(Vec<u32>);
    impl Agent for Sequence {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            self.0.push(*pkt.payload_as::<u32>().unwrap());
        }
    }

    /// One window carries 5,000 boundary messages, ten later ones carry
    /// 10 each. Returns what arrived, and the messages the boundary's
    /// three buffers (outbox, channel, ingress swap buffer) end up with
    /// room for.
    fn burst_then_trickle(threads: usize, perturb: Option<u64>) -> (Vec<u32>, [usize; 3]) {
        let mut sim = ShardedSim::new(11);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        sim.set_threads(threads);
        sim.set_perturbation(perturb);
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        // Infinitely fast, so the whole burst serializes at time zero.
        let (ab, _) = sim.add_duplex_link(a, b, LinkSpec::new(0.0, millis(10), 1 << 24));
        sim.add_agent(
            a,
            1,
            Box::new(Burster {
                dst: Addr::new(b, 2),
                burst: 5_000,
                trickle: 10,
                rounds: 10,
                sent: 0,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Sequence::default()));

        // Epochs half a lookahead long: one window per shard each.
        sim.run_until(millis(5));
        let drained = sim.shards[s1].sim.shard_stats().ingress_msgs as usize;
        let waiting = sim.channels[0].lock().unwrap().len();
        assert_eq!(
            drained + waiting,
            5_000,
            "the burst left in the first window"
        );
        for epoch in 2..=50 {
            sim.run_until(millis(5) * epoch);
        }
        assert_eq!(sim.link_stats(ab).transmitted_packets, 5_100);
        assert_eq!(sim.shards[s1].sim.shard_stats().ingress_msgs, 5_100);
        let room = [
            sim.shards[s0].sim.outbox_mut(0).capacity(),
            sim.channels[0].lock().unwrap().capacity(),
            sim.shards[s1].ingress_buf.capacity(),
        ];
        (sim.agent::<Sequence>(rx).unwrap().0.clone(), room)
    }

    #[test]
    fn mailboxes_give_a_burst_back_and_deliver_it_once_in_order() {
        let (arrived, room) = burst_then_trickle(1, None);
        // One link, so `boundary_seq` order is send order.
        assert_eq!(arrived, (0..5_100).collect::<Vec<u32>>());
        for (buf, room) in ["outbox", "channel", "ingress buffer"].iter().zip(room) {
            assert!(
                room <= 4 * MAILBOX_FLOOR,
                "the {buf} still has room for {room} messages after ten windows of 10"
            );
        }
        for (threads, seed) in [(2, None), (2, Some(17))] {
            let (got, room) = burst_then_trickle(threads, seed);
            assert_eq!(got, arrived, "{threads} workers, perturbation {seed:?}");
            assert!(room.iter().all(|&r| r <= 4 * MAILBOX_FLOOR), "{room:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive propagation delay")]
    fn zero_delay_boundary_link_is_rejected() {
        let mut sim = ShardedSim::new(1);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        sim.add_link(a, b, LinkSpec::new(10e6, 0, 64_000));
    }

    #[test]
    #[should_panic(expected = "declare all shards before adding nodes")]
    fn late_shard_declaration_is_rejected() {
        let mut sim = ShardedSim::new(1);
        let s0 = sim.add_shard();
        sim.add_node(s0);
        sim.add_shard();
    }

    #[test]
    fn boundary_seqs_sort_after_local_seqs_and_by_content() {
        let a = boundary_seq(LinkId(3), 0);
        let b = boundary_seq(LinkId(3), 1);
        let c = boundary_seq(LinkId(4), 0);
        assert!(a < b && b < c, "ordered by (link, counter)");
        assert!(a > u64::MAX / 2, "always above realistic local seqs");
    }

    #[test]
    fn run_slices_stop_callback_sees_agents_and_ends_early() {
        let mut sim = ShardedSim::new(21);
        let (s0, s1) = (sim.add_shard(), sim.add_shard());
        sim.set_threads(2);
        let a = sim.add_node(s0);
        let b = sim.add_node(s1);
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
        let ping = sim.add_agent(
            a,
            1,
            Box::new(Pinger {
                dst: Addr::new(b, 2),
                count: 5,
                sent: 0,
                echoes: Vec::new(),
            }),
        );
        sim.add_agent(b, 2, Box::new(Echoer::default()));
        let end = sim.run_slices(secs(60.0), millis(100), |view| {
            view.with_agent::<Pinger, _>(ping, |p| p.echoes.len() >= 5)
                .unwrap()
        });
        assert_eq!(sim.agent::<Pinger>(ping).unwrap().echoes.len(), 5);
        assert!(
            end < secs(1.0),
            "five 1ms-spaced pings echo within the first few 100ms slices"
        );
        assert_eq!(end, sim.now());
    }

    #[test]
    fn successive_run_until_slices_match_one_big_run() {
        let sliced = {
            let mut log = Vec::new();
            let mut sim = ShardedSim::new(9);
            let (s0, s1) = (sim.add_shard(), sim.add_shard());
            let a = sim.add_node(s0);
            let b = sim.add_node(s1);
            sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
            let ping = sim.add_agent(
                a,
                1,
                Box::new(Pinger {
                    dst: Addr::new(b, 2),
                    count: 30,
                    sent: 0,
                    echoes: Vec::new(),
                }),
            );
            sim.add_agent(b, 2, Box::new(Echoer::default()));
            for slice in 1..=8 {
                sim.run_until(millis(250) * slice);
            }
            log.extend(sim.agent::<Pinger>(ping).unwrap().echoes.clone());
            log
        };
        let whole = {
            let mut sim = ShardedSim::new(9);
            let (s0, s1) = (sim.add_shard(), sim.add_shard());
            let a = sim.add_node(s0);
            let b = sim.add_node(s1);
            sim.add_duplex_link(a, b, LinkSpec::new(10e6, millis(5), 64_000));
            let ping = sim.add_agent(
                a,
                1,
                Box::new(Pinger {
                    dst: Addr::new(b, 2),
                    count: 30,
                    sent: 0,
                    echoes: Vec::new(),
                }),
            );
            sim.add_agent(b, 2, Box::new(Echoer::default()));
            sim.run_until(millis(2000));
            sim.agent::<Pinger>(ping).unwrap().echoes.clone()
        };
        assert_eq!(sliced, whole);
    }

    /// The claim protocol, exhaustively: an abstract pool drives the
    /// production [`SchedInner`] through every interleaving of the engine's
    /// atomic steps (a lock section; a bound read outside the lock; a clock
    /// store), for two epochs of length 2 on boundaries of lookahead 1.
    mod pool_model {
        use super::super::{Claim, SchedInner, Time};
        use std::collections::HashSet;

        /// A worker's next step: `next_job`'s lock section, then
        /// `run_shard`'s bound read, window (the clock store), wake section
        /// and release section.
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        enum Pc {
            Claim,
            Look,
            Store,
            Wake,
            Release,
        }

        /// `workers` holds each one's next step, its shard (unless at
        /// `Claim`), its window's limit and the bound it last read.
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct World {
            sched: SchedInner,
            clocks: Vec<Time>,
            workers: Vec<(Pc, usize, Time, Time)>,
            epochs_left: u32,
        }

        /// Predecessors per shard: 2-shard duplex, 3-shard chain, 3-shard ring.
        type Preds = &'static [&'static [usize]];
        const GRAPHS: [Preds; 3] = [&[&[1], &[0]], &[&[1], &[0, 2], &[1]], &[&[2], &[0], &[1]]];

        /// The world after worker `w`'s next step, if it has one. `stale`
        /// is the mutation: release on the bound read before the section.
        fn step(preds: Preds, stale: bool, mut x: World, w: usize, min: bool) -> Option<World> {
            let bound =
                |x: &World, s: usize| preds[s].iter().map(|&p| x.clocks[p] + 1).min().unwrap();
            let (pc, s, limit, seen) = x.workers[w];
            let target = x.sched.target;
            x.workers[w] = match pc {
                Pc::Claim => (Pc::Look, x.sched.claim(min)?, 0, 0),
                Pc::Look => {
                    let seen = bound(&x, s);
                    let limit = target.min(seen);
                    let stalled = limit <= x.clocks[s];
                    (
                        if stalled { Pc::Release } else { Pc::Store },
                        s,
                        limit,
                        seen,
                    )
                }
                Pc::Store => {
                    x.clocks[s] = limit;
                    (Pc::Wake, s, limit, seen)
                }
                Pc::Wake => {
                    let successors = (0..x.clocks.len()).filter(|&d| preds[d].contains(&s));
                    x.sched.wake(successors, |d| x.clocks[d]);
                    (Pc::Look, s, limit, seen)
                }
                Pc::Release => {
                    let bound = if stale { seen } else { bound(&x, s) };
                    x.sched.release(s, x.clocks[s], bound);
                    (Pc::Claim, 0, 0, 0)
                }
            };
            Some(x)
        }

        /// Panics on a broken invariant; `true` if `x` is stuck (shards
        /// short of the target, none `Ready` or `Running`: a lost wakeup).
        fn check(x: &World) -> bool {
            for (s, &claim) in x.sched.claim.iter().enumerate() {
                let holders = x.workers.iter().filter(|w| w.0 != Pc::Claim && w.1 == s);
                let queued = x.sched.ready.iter().filter(|r| r.1 == s);
                assert_eq!(
                    holders.count(),
                    usize::from(claim == Claim::Running),
                    "shard {s}"
                );
                assert_eq!(
                    queued.count(),
                    usize::from(claim == Claim::Ready),
                    "shard {s}"
                );
            }
            // A crossing is counted when the shard is released.
            let claims = x.sched.claim.iter().zip(&x.clocks);
            let uncrossed = claims.filter(|&(&c, &at)| at < x.sched.target || c == Claim::Running);
            assert_eq!(x.sched.remaining, uncrossed.count());
            x.sched.remaining > 0 && x.sched.claim.iter().all(|&c| c == Claim::Parked)
        }

        /// Every interleaving and claim order: states visited, any stuck.
        fn explore(preds: Preds, workers: usize, stale: bool) -> (usize, bool) {
            let start = World {
                sched: SchedInner::new(preds.len()),
                clocks: vec![0; preds.len()],
                workers: vec![(Pc::Claim, 0, 0, 0); workers],
                epochs_left: 2,
            };
            let (mut visited, mut stack, mut stuck) = (HashSet::new(), vec![start], false);
            while let Some(mut x) = stack.pop() {
                if x.sched.remaining == 0 && x.epochs_left > 0 {
                    // `run_epoch`: every shard has crossed, on to the next.
                    x.epochs_left -= 1;
                    x.sched.target += 2;
                    x.sched.remaining = x.sched.wake(0..preds.len(), |s| x.clocks[s]);
                }
                if visited.insert(x.clone()) {
                    stuck |= check(&x);
                    for (w, min) in (0..workers).flat_map(|w| [(w, false), (w, true)]) {
                        stack.extend(step(preds, stale, x.clone(), w, min));
                    }
                }
            }
            (visited.len(), stuck)
        }

        #[test]
        fn no_interleaving_loses_a_wakeup_or_claims_a_shard_twice() {
            for (preds, workers) in GRAPHS
                .into_iter()
                .flat_map(|g| (1..=3).map(move |w| (g, w)))
            {
                let (states, stuck) = explore(preds, workers, false);
                assert!(
                    !stuck,
                    "{preds:?}, {workers} workers: stuck within {states} states"
                );
            }
        }

        /// Teeth: a predecessor that crossed the target while the shard was
        /// `Running` queued nothing, so a releaser that trusts the bound it
        /// read before its lock section parks the shard for good.
        #[test]
        fn a_bound_read_outside_the_release_section_loses_a_wakeup() {
            let (states, stuck) = explore(GRAPHS[0], 2, true);
            assert!(stuck, "the mutation went unnoticed in all {states} states");
        }
    }
}
