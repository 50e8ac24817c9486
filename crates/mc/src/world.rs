//! The checker's state space: scenarios, mutations, and the transition
//! relation.
//!
//! A [`World`] holds one or two flows, each a sender/receiver/
//! coordinator triple plus two explicit in-flight segment sets (the
//! "network"). Where the simulator always pops the earliest pending
//! event from its queue, the checker enumerates *every*
//! enabled [`Choice`] — deliver any in-flight segment (in any order),
//! drop one (while the budget lasts), fire the sender's timer, or run
//! the next scripted application step — and recurses on each.
//!
//! Time is explicit but coarse: every transition advances the clock by
//! [`STEP`]; a timer choice jumps it to the sender's next deadline.
//! [`World::state_hash`] hashes all timestamps relative to the clock,
//! so behaviorally equivalent states reached at different absolute
//! times collide in the visited table.

use std::sync::Arc;

use iq_attrs::{names, AttrList};
use iq_core::{AdaptReport, CoordinationMode, Coordinator};
use iq_echo::DeferredResolution;
use iq_netsim::{Time, TimeDelta};
use iq_rudp::{NetCond, ReceiverConn, RudpConfig, Segment, SenderConn};
use iq_telemetry::StateHasher;

use crate::invariant::{check_invariants, Snapshot, Violation};

/// Clock advance per transition (1 ms).
pub const STEP: TimeDelta = 1_000_000;

/// One scripted application send: the message and the `ADAPT_*`
/// attributes reported with it.
#[derive(Debug, Clone)]
pub struct AppStep {
    /// Message payload bytes.
    pub size: u32,
    /// Whether the message is marked (must-deliver).
    pub marked: bool,
    /// Adaptation attributes attached to the send.
    pub attrs: AttrList,
}

impl AppStep {
    fn plain() -> Self {
        Self {
            size: 1000,
            marked: true,
            attrs: AttrList::new(),
        }
    }

    fn with_attrs(attrs: AttrList) -> Self {
        Self {
            attrs,
            ..Self::plain()
        }
    }
}

/// A bounded scenario: the coordination mode and each flow's scripted
/// application steps.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (CLI and reports).
    pub name: &'static str,
    /// Coordination mode every flow runs under.
    pub mode: CoordinationMode,
    /// Per-flow application scripts.
    pub flows: Vec<Vec<AppStep>>,
    /// Connection configuration shared by all flows.
    pub cfg: RudpConfig,
}

/// Names accepted by [`scenario`].
pub fn scenario_names() -> &'static [&'static str] {
    &["basic", "deferred", "two-flow"]
}

/// Builds a named scenario, or `None` for an unknown name.
///
/// * `basic` — one flow, `Coordinated`: a plain send, an immediate
///   resolution adaptation, and a reliability adaptation.
/// * `deferred` — one flow, `CoordinatedWithCond`: a deferral announced
///   and later executed with `ADAPT_COND`, built through the real
///   IQ-ECho [`DeferredResolution`] adapter so the scripted attributes
///   are exactly what an application would emit.
/// * `two-flow` — two independent flows, `Coordinated`, each with a
///   plain send and a resolution adaptation; exercises cross-flow
///   interleavings of the same invariants.
pub fn scenario(name: &str) -> Option<Arc<ScenarioSpec>> {
    scenario_with_cc(name, iq_rudp::CcAlgorithm::default())
}

/// Builds a named scenario running congestion controller `cc` on every
/// flow (`iqrudp mc --cc <alg>`): the coordination invariants are
/// checked against whatever controller the transport runs, because
/// their contract — `scale` is multiply-then-clamp — is
/// controller-independent.
pub fn scenario_with_cc(name: &str, cc: iq_rudp::CcAlgorithm) -> Option<Arc<ScenarioSpec>> {
    let mut spec = match name {
        "basic" => ScenarioSpec {
            name: "basic",
            mode: CoordinationMode::Coordinated,
            flows: vec![vec![
                AppStep::plain(),
                AppStep::with_attrs(AttrList::new().with(names::ADAPT_PKTSIZE, 0.2)),
                AppStep {
                    marked: false,
                    ..AppStep::with_attrs(AttrList::new().with(names::ADAPT_MARK, 0.5))
                },
            ]],
            cfg: RudpConfig::default(),
        },
        "deferred" => {
            // Generate the announcement/execution pair with the real
            // application-side adapter (granularity 2, scheme 3).
            let mut adapter = DeferredResolution::new(2, true);
            let seen = NetCond {
                eratio: 0.3,
                eratio_smoothed: 0.3,
                ..NetCond::default()
            };
            let announce = adapter.on_threshold(true, &seen, 1);
            assert!(announce.get_int(names::ADAPT_WHEN).is_some_and(|w| w > 0));
            let execute = adapter.on_frame(2);
            assert!(execute.get_float(names::ADAPT_PKTSIZE).is_some());
            assert!(execute.get_float(names::ADAPT_COND_ERATIO).is_some());
            ScenarioSpec {
                name: "deferred",
                mode: CoordinationMode::CoordinatedWithCond,
                flows: vec![vec![
                    AppStep::plain(),
                    AppStep::with_attrs(announce),
                    AppStep::with_attrs(execute),
                    AppStep::plain(),
                ]],
                cfg: RudpConfig::default(),
            }
        }
        "two-flow" => {
            let script = vec![
                AppStep::plain(),
                AppStep::with_attrs(AttrList::new().with(names::ADAPT_PKTSIZE, 0.2)),
            ];
            ScenarioSpec {
                name: "two-flow",
                mode: CoordinationMode::Coordinated,
                flows: vec![script.clone(), script],
                cfg: RudpConfig::default(),
            }
        }
        _ => return None,
    };
    spec.cfg.cc.algorithm = cc;
    Some(Arc::new(spec))
}

/// A deliberately seeded coordination bug, applied to the attribute
/// list *fed to the coordinator* while the invariants keep judging
/// against the unmutated script. `Mutation::None` checks the real code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No seeded bug: check the production coordination path.
    None,
    /// Strip `ADAPT_PKTSIZE`: the coordinator never sees the resolution
    /// adaptation, so the window is not re-inflated (breaks invariant 1).
    SkipReinflate,
    /// Strip `ADAPT_COND_ERATIO`: the Eq. (1) correction runs on the
    /// wrong (transport-local) snapshot (breaks invariant 2).
    DropCondCorrection,
    /// Strip `ADAPT_WHEN`: a deferral announcement is treated as
    /// immediate, so no pending adaptation is armed (breaks invariant 3).
    IgnoreDeferral,
}

impl Mutation {
    /// Parses a CLI name (`reinflate`, `cond`, `deferral`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reinflate" => Some(Self::SkipReinflate),
            "cond" => Some(Self::DropCondCorrection),
            "deferral" => Some(Self::IgnoreDeferral),
            _ => None,
        }
    }

    /// The attribute this mutation suppresses, if any.
    fn stripped_attr(self) -> Option<&'static str> {
        match self {
            Self::None => None,
            Self::SkipReinflate => Some(names::ADAPT_PKTSIZE),
            Self::DropCondCorrection => Some(names::ADAPT_COND_ERATIO),
            Self::IgnoreDeferral => Some(names::ADAPT_WHEN),
        }
    }

    /// The attribute list the coordinator actually receives: a copy of
    /// the script's own list, less the stripped attribute.
    fn mutate(self, mut attrs: AttrList) -> AttrList {
        if let Some(name) = self.stripped_attr() {
            attrs.remove(name);
        }
        attrs
    }
}

/// One explorable transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Run the flow's next scripted application step.
    App {
        /// Flow index.
        flow: usize,
    },
    /// Deliver the `idx`-th in-flight data-direction segment (any index:
    /// this is how reordering enters the space).
    DeliverData {
        /// Flow index.
        flow: usize,
        /// Index into the sender→receiver in-flight set.
        idx: usize,
    },
    /// Drop the `idx`-th in-flight data-direction segment (consumes
    /// drop budget).
    DropData {
        /// Flow index.
        flow: usize,
        /// Index into the sender→receiver in-flight set.
        idx: usize,
    },
    /// Deliver the `idx`-th in-flight ack-direction segment.
    DeliverAck {
        /// Flow index.
        flow: usize,
        /// Index into the receiver→sender in-flight set.
        idx: usize,
    },
    /// Drop the `idx`-th in-flight ack-direction segment.
    DropAck {
        /// Flow index.
        flow: usize,
        /// Index into the receiver→sender in-flight set.
        idx: usize,
    },
    /// Jump the clock to the sender's next deadline and tick it.
    Tick {
        /// Flow index.
        flow: usize,
    },
}

/// One flow's endpoints plus its in-flight segments.
pub struct FlowState {
    /// The sending endpoint.
    pub sender: SenderConn,
    /// The receiving endpoint.
    pub receiver: ReceiverConn,
    /// The coordination layer wrapping `sender`.
    pub coord: Coordinator,
    /// Segments in flight sender → receiver.
    pub to_recv: Vec<Segment>,
    /// Segments in flight receiver → sender.
    pub to_send: Vec<Segment>,
    /// Next unexecuted script step.
    pub script_pos: usize,
}

// `FlowState` and `World` clone by hand for the sake of `clone_from`:
// the checker refills one pooled `World` per transition, and every
// buffer below must be reused, not dropped and rebuilt. The
// destructurings are exhaustive: a new field does not compile until it
// is copied in both methods.
impl Clone for FlowState {
    fn clone(&self) -> Self {
        let Self {
            sender,
            receiver,
            coord,
            to_recv,
            to_send,
            script_pos,
        } = self;
        Self {
            sender: sender.clone(),
            receiver: receiver.clone(),
            coord: coord.clone(),
            to_recv: to_recv.clone(),
            to_send: to_send.clone(),
            script_pos: *script_pos,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            sender,
            receiver,
            coord,
            to_recv,
            to_send,
            script_pos,
        } = src;
        self.sender.clone_from(sender);
        self.receiver.clone_from(receiver);
        self.coord.clone_from(coord);
        self.to_recv.clone_from(to_recv);
        self.to_send.clone_from(to_send);
        self.script_pos = *script_pos;
    }
}

/// One state in the explored space.
pub struct World {
    /// Simulated clock, nanoseconds.
    pub now: Time,
    /// Per-flow state.
    pub flows: Vec<FlowState>,
    /// Remaining drop budget (shared across flows).
    pub drops_left: u32,
    /// Remaining timer-firing budget (shared across flows).
    ///
    /// Unbudgeted, timers make the space infinite: every firing can
    /// regenerate retransmissions with fresh backoff and counters, so
    /// no two tick-cycles ever hash-collide. Bounding firings per
    /// trace — exactly like drops — keeps the space finite while still
    /// interleaving RTO recovery against every delivery order.
    pub ticks_left: u32,
    spec: Arc<ScenarioSpec>,
    mutation: Mutation,
}

impl Clone for World {
    fn clone(&self) -> Self {
        let Self {
            now,
            flows,
            drops_left,
            ticks_left,
            spec,
            mutation,
        } = self;
        Self {
            now: *now,
            flows: flows.clone(),
            drops_left: *drops_left,
            ticks_left: *ticks_left,
            spec: Arc::clone(spec),
            mutation: *mutation,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            now,
            flows,
            drops_left,
            ticks_left,
            spec,
            mutation,
        } = src;
        self.now = *now;
        self.flows.clone_from(flows);
        self.drops_left = *drops_left;
        self.ticks_left = *ticks_left;
        if !Arc::ptr_eq(&self.spec, spec) {
            self.spec = Arc::clone(spec);
        }
        self.mutation = *mutation;
    }
}

impl World {
    /// The initial state: every flow handshaken at `t = 0`, scripts
    /// unexecuted, full drop and tick budgets.
    pub fn new(
        spec: Arc<ScenarioSpec>,
        mutation: Mutation,
        drop_budget: u32,
        tick_budget: u32,
    ) -> Self {
        let mut flows = Vec::with_capacity(spec.flows.len());
        for i in 0..spec.flows.len() {
            let conn_id = i as u32 + 1;
            let mut sender = SenderConn::new(conn_id, spec.cfg.clone());
            let mut receiver = ReceiverConn::new(conn_id, spec.cfg.clone());
            let syn = sender.poll_transmit(0).expect("syn");
            receiver.on_segment(0, &syn);
            let synack = receiver.poll_transmit(0).expect("synack");
            sender.on_segment(0, &synack);
            sender.clear_events();
            receiver.clear_events();
            flows.push(FlowState {
                sender,
                receiver,
                coord: Coordinator::new(spec.mode),
                to_recv: Vec::new(),
                to_send: Vec::new(),
                script_pos: 0,
            });
        }
        Self {
            now: 0,
            flows,
            drops_left: drop_budget,
            ticks_left: tick_budget,
            spec,
            mutation,
        }
    }

    /// The scenario this world explores.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Whether every script has run and no segments remain in flight.
    pub fn quiescent(&self) -> bool {
        self.flows.iter().enumerate().all(|(i, f)| {
            f.script_pos == self.spec.flows[i].len() && f.to_recv.is_empty() && f.to_send.is_empty()
        })
    }

    /// Enumerates the enabled transitions, in a fixed deterministic
    /// order (application steps, then deliveries, drops, and finally
    /// timers, flow by flow).
    pub fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        self.push_choices(&mut out);
        out
    }

    /// Appends the enabled transitions to `out`, in [`World::choices`]'
    /// order (the checker's form: it keeps one buffer for a whole
    /// exploration).
    pub(crate) fn push_choices(&self, out: &mut Vec<Choice>) {
        for (i, f) in self.flows.iter().enumerate() {
            if f.script_pos < self.spec.flows[i].len() {
                out.push(Choice::App { flow: i });
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            for idx in 0..f.to_recv.len() {
                out.push(Choice::DeliverData { flow: i, idx });
            }
            for idx in 0..f.to_send.len() {
                out.push(Choice::DeliverAck { flow: i, idx });
            }
        }
        if self.drops_left > 0 {
            for (i, f) in self.flows.iter().enumerate() {
                for idx in 0..f.to_recv.len() {
                    out.push(Choice::DropData { flow: i, idx });
                }
                for idx in 0..f.to_send.len() {
                    out.push(Choice::DropAck { flow: i, idx });
                }
            }
        }
        if self.ticks_left > 0 {
            for (i, f) in self.flows.iter().enumerate() {
                // Ticking a quiescent flow only laps the measuring
                // period; skipping it keeps traces tighter.
                if !f.sender.is_closed()
                    && (f.script_pos < self.spec.flows[i].len()
                        || !f.to_recv.is_empty()
                        || !f.to_send.is_empty()
                        || f.sender.backlog_segments() > 0)
                {
                    out.push(Choice::Tick { flow: i });
                }
            }
        }
    }

    /// Applies one transition, returning a violation if the transition
    /// was an application step that broke the coordination contract.
    pub fn apply(&mut self, choice: Choice) -> Option<Violation> {
        self.now += STEP;
        let violation = match choice {
            Choice::App { flow } => self.app_step(flow),
            Choice::DeliverData { flow, idx } => {
                let seg = self.flows[flow].to_recv.remove(idx);
                let now = self.now;
                self.flows[flow].receiver.on_segment(now, &seg);
                None
            }
            Choice::DropData { flow, idx } => {
                self.flows[flow].to_recv.remove(idx);
                self.drops_left -= 1;
                None
            }
            Choice::DeliverAck { flow, idx } => {
                let seg = self.flows[flow].to_send.remove(idx);
                let now = self.now;
                self.flows[flow].sender.on_segment(now, &seg);
                None
            }
            Choice::DropAck { flow, idx } => {
                self.flows[flow].to_send.remove(idx);
                self.drops_left -= 1;
                None
            }
            Choice::Tick { flow } => {
                self.ticks_left -= 1;
                if let Some(t) = self.flows[flow].sender.next_timeout(self.now) {
                    debug_assert!(t >= self.now, "next_timeout returned the past");
                    self.now = self.now.max(t);
                }
                let now = self.now;
                self.flows[flow].sender.on_tick(now);
                None
            }
        };
        let flow = match choice {
            Choice::App { flow }
            | Choice::DeliverData { flow, .. }
            | Choice::DropData { flow, .. }
            | Choice::DeliverAck { flow, .. }
            | Choice::DropAck { flow, .. }
            | Choice::Tick { flow } => flow,
        };
        self.pump(flow);
        violation
    }

    /// Runs the flow's next scripted application step through the
    /// coordinator (mutated view) and judges the transition against the
    /// unmutated script.
    fn app_step(&mut self, flow: usize) -> Option<Violation> {
        // A handle of its own on the spec, so the script step and the
        // controller bounds stay borrowed across `&mut self.flows`.
        let spec = Arc::clone(&self.spec);
        let step = &spec.flows[flow][self.flows[flow].script_pos];
        let report = AdaptReport::from_attrs(&step.attrs);
        let fed = self.mutation.mutate(step.attrs);
        let now = self.now;
        let f = &mut self.flows[flow];
        f.script_pos += 1;
        let pre = Snapshot::capture(&f.sender, &f.coord);
        let _ = f
            .coord
            .send_with_attrs(&mut f.sender, now, step.size, step.marked, &fed);
        let post = Snapshot::capture(&f.sender, &f.coord);
        check_invariants(spec.mode, step.size, &report, &pre, &post)
            .map(|v| v.at(flow, f.script_pos - 1))
    }

    /// Drains both endpoints' outgoing segments into the in-flight sets
    /// and clears the event/message queues (the checker has no
    /// application to hand them to).
    fn pump(&mut self, flow: usize) {
        let now = self.now;
        let f = &mut self.flows[flow];
        while let Some(seg) = f.sender.poll_transmit(now) {
            f.to_recv.push(seg);
        }
        while let Some(seg) = f.receiver.poll_transmit(now) {
            f.to_send.push(seg);
        }
        f.sender.clear_events();
        f.receiver.clear_events();
        f.receiver.clear_messages();
    }

    /// Digest of the full control state (one [`StateHasher`] pass).
    ///
    /// Timestamps inside connections and segments are hashed relative
    /// to `now`, and `now` itself is excluded, so states differing only
    /// by when they were reached collide. The in-flight sets are hashed
    /// as order-independent multisets (the count, then the wrapping sum
    /// of the avalanched per-segment digests, which needs no buffer to
    /// sort in): delivery choices address segments by index anyway, so
    /// two worlds holding the same segments in different vector orders
    /// have identical futures.
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_u64(u64::from(self.drops_left));
        h.write_u64(u64::from(self.ticks_left));
        for f in &self.flows {
            f.sender.state_digest(self.now, &mut h);
            f.receiver.state_digest(self.now, &mut h);
            f.coord.state_digest(&mut h);
            h.write_u64(f.script_pos as u64);
            for set in [&f.to_recv, &f.to_send] {
                let sum = set.iter().fold(0u64, |sum, seg| {
                    let mut sh = StateHasher::new();
                    seg.state_digest(self.now, &mut sh);
                    sum.wrapping_add(sh.finish())
                });
                h.write_u64(set.len() as u64);
                h.write_u64(sum);
            }
        }
        h.finish()
    }
}
