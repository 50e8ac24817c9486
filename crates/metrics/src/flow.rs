//! Per-flow receiver metrics matching the columns of the paper's tables:
//! duration, throughput, message inter-arrival ("delay"), and the
//! deviation of inter-arrival ("jitter") — overall and for tagged
//! (must-deliver) messages only.
//!
//! A recorder has two parts. The *volume* (first and last arrival,
//! bytes, messages, summed latency) is what a harvest sums over every
//! flow of a world, and every recorder keeps it. The arrival *shape*
//! (inter-arrival statistics, their tagged twins, the arrival times) is
//! what a run reports for the one flow it looks at; it lives out of
//! line, and a recorder built with [`FlowMetrics::volume_only`] has none.
//!
//! The shape keeps every arrival time and no per-message jitter: the
//! series of Figures 2/3 is a pure function of the times,
//! [`jitter_series`], the one place it is computed. The times go into an
//! [`ArrivalLog`]: each one as the LEB128 varint of its wrapping
//! difference from the one before (from 0 for the first), so a message a
//! millisecond after the last costs 3 bytes and any `u64` sequence, steps
//! back included, decodes exactly. The bytes fill fixed 4 KiB pages that
//! are allocated once and never copied: a doubling `Vec<u8>` would keep up
//! to half its capacity as slack and, while it reallocates, the old
//! buffer and the new one. The log leaves by move
//! ([`FlowMetrics::take_arrivals`]), so a run derives the series after its
//! world is dropped, allocated at exactly its length; the statistics
//! behind the table columns stay online.

use crate::series::TimeSeries;
use crate::stats::Welford;

/// Accumulates arrivals at a receiving application.
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    /// Meaningful once `messages > 0`.
    first_arrival_ns: u64,
    last_arrival_ns: u64,
    bytes: u64,
    messages: u64,
    /// Summed one-way latency (send → deliver) in nanoseconds. An
    /// integer add keeps this off the floating-point hot path; the mean
    /// is derived on read.
    latency_sum_ns: u64,
    /// `None` in a volume-only recorder.
    shape: Option<Box<ArrivalShape>>,
}

/// How a flow's arrivals were spaced: what the delay / jitter columns
/// and Figures 2/3 are computed from.
#[derive(Debug, Clone, Default)]
struct ArrivalShape {
    /// Arrival of the latest tagged message; meaningful once
    /// `tagged_messages > 0`.
    prev_tagged_ns: u64,
    tagged_messages: u64,
    inter_arrival: Welford,
    tagged_inter_arrival: Welford,
    /// Every arrival time in order, the first included: what
    /// [`jitter_series`] derives Figures 2/3 from.
    arrivals: ArrivalLog,
}

/// Bytes in one page of an [`ArrivalLog`].
const PAGE_BYTES: usize = 4096;

/// Arrival times in order, each stored as the LEB128 varint of its
/// wrapping difference from the time before it (from 0 for the first),
/// in fixed 4 KiB pages. A varint may straddle two pages; a page, once
/// allocated, is never copied or resized. Lossless for any `u64`
/// sequence, equal times and steps back included.
#[derive(Debug, Clone, Default)]
pub struct ArrivalLog {
    pages: Vec<Box<[u8]>>,
    /// Bytes written into the last page.
    tail: usize,
    /// Times pushed.
    len: usize,
    /// The latest time pushed; 0 before the first.
    prev: u64,
}

impl ArrivalLog {
    /// Appends the time `t`: its difference from the last, seven bits a
    /// byte from the lowest, the top bit set on every byte but the last.
    pub fn push(&mut self, t: u64) {
        let mut delta = t.wrapping_sub(self.prev);
        self.prev = t;
        self.len += 1;
        loop {
            if self.pages.is_empty() || self.tail == PAGE_BYTES {
                self.add_page();
            }
            let page = self.pages.last_mut().expect("a page was just ensured");
            // `tail` is stored once a varint, not once a byte: read back
            // after every byte's store, it made each byte wait on the last.
            let start = self.tail;
            for (at, byte) in (start..).zip(&mut page[start..]) {
                if delta < 0x80 {
                    *byte = delta as u8;
                    self.tail = at + 1;
                    return;
                }
                *byte = delta as u8 | 0x80;
                delta >>= 7;
            }
            self.tail = PAGE_BYTES;
        }
    }

    /// Starts a new, empty last page: once every 4 KiB, so kept out of
    /// line, off the path of every delivered message.
    #[cold]
    fn add_page(&mut self) {
        self.pages.push(vec![0; PAGE_BYTES].into_boxed_slice());
        self.tail = 0;
    }

    /// Times pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no time was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The times in the order they were pushed.
    pub fn iter(&self) -> ArrivalIter<'_> {
        ArrivalIter {
            pages: &self.pages,
            page: 0,
            at: 0,
            left: self.len,
            prev: 0,
        }
    }
}

/// The decoder of an [`ArrivalLog`]: its times in order.
#[derive(Debug)]
pub struct ArrivalIter<'a> {
    pages: &'a [Box<[u8]>],
    /// Page and byte of the next varint.
    page: usize,
    at: usize,
    /// Times not yet decoded.
    left: usize,
    /// The time decoded last; 0 before the first.
    prev: u64,
}

impl Iterator for ArrivalIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut delta = 0u64;
        let mut shift = 0;
        loop {
            if self.at == PAGE_BYTES {
                self.page += 1;
                self.at = 0;
            }
            let byte = self.pages[self.page][self.at];
            self.at += 1;
            delta |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        self.prev = self.prev.wrapping_add(delta);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ArrivalIter<'_> {}

/// The gap between two arrivals in seconds, as both the recorder and
/// [`jitter_series`] compute it: saturating, so a clock that stepped
/// back reads as no time passed, and `* 1e-9` (not `/ 1e9`) so that the
/// two agree to the bit.
fn gap_s(prev_ns: u64, now_ns: u64) -> f64 {
    now_ns.saturating_sub(prev_ns) as f64 * 1e-9
}

impl ArrivalShape {
    fn record_tagged(&mut self, now_ns: u64) {
        if self.tagged_messages > 0 {
            self.tagged_inter_arrival
                .push(gap_s(self.prev_tagged_ns, now_ns));
        }
        self.tagged_messages += 1;
        self.prev_tagged_ns = now_ns;
    }
}

/// Why a volume-only recorder has no shape to read.
const NO_SHAPE: &str = "this FlowMetrics was built with FlowMetrics::volume_only() and records \
                        no arrival shape (inter-arrival, jitter, tagged statistics, arrival \
                        times); build the recorder of a flow whose shape is read with \
                        FlowMetrics::new()";

impl Default for FlowMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowMetrics {
    /// An empty accumulator recording volume and arrival shape.
    pub fn new() -> Self {
        Self {
            shape: Some(Box::default()),
            ..Self::volume_only()
        }
    }

    /// An empty accumulator recording volume only: messages, bytes,
    /// duration, throughput and latency. It makes no allocator call, now
    /// or per message, and its shape getters (inter-arrival, jitter,
    /// the tagged statistics, the arrival times) panic — for the sinks of
    /// a world whose shape nobody reads.
    pub fn volume_only() -> Self {
        Self {
            first_arrival_ns: 0,
            last_arrival_ns: 0,
            bytes: 0,
            messages: 0,
            latency_sum_ns: 0,
            shape: None,
        }
    }

    /// Whether this recorder keeps the arrival shape, i.e. was built by
    /// [`Self::new`] and not by [`Self::volume_only`].
    pub fn records_shape(&self) -> bool {
        self.shape.is_some()
    }

    /// The arrival shape.
    ///
    /// # Panics
    /// Panics on a volume-only recorder: a zero here would read as a
    /// flow with no jitter.
    fn shape(&self) -> &ArrivalShape {
        self.shape.as_deref().expect(NO_SHAPE)
    }

    /// The arrival shape, to move the times out of; panics like
    /// [`Self::shape`].
    fn shape_mut(&mut self) -> &mut ArrivalShape {
        self.shape.as_deref_mut().expect(NO_SHAPE)
    }

    /// Records a delivered message.
    ///
    /// `sent_at_ns` is when the sender emitted it (for one-way latency);
    /// `tagged` marks must-deliver messages (§3.3 "tagged packets").
    pub fn on_message(&mut self, now_ns: u64, sent_at_ns: u64, bytes: u64, tagged: bool) {
        if let Some(shape) = &mut self.shape {
            if self.messages > 0 {
                shape
                    .inter_arrival
                    .push(gap_s(self.last_arrival_ns, now_ns));
            }
            shape.arrivals.push(now_ns);
            if tagged {
                shape.record_tagged(now_ns);
            }
        }
        if self.messages == 0 {
            self.first_arrival_ns = now_ns;
        }
        self.last_arrival_ns = now_ns;
        self.bytes += bytes;
        self.messages += 1;
        self.latency_sum_ns += now_ns.saturating_sub(sent_at_ns);
    }

    /// Seconds from first to last arrival.
    pub fn duration_s(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        // Saturating like both gap computations: a clock that stepped
        // back reads as no time passed.
        self.last_arrival_ns.saturating_sub(self.first_arrival_ns) as f64 / 1e9
    }

    /// Average goodput in KB/s over the active period.
    pub fn throughput_kbps(&self) -> f64 {
        let d = self.duration_s();
        if d <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1000.0 / d
    }

    /// Total delivered messages.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Delivered messages that were tagged.
    pub fn tagged_messages(&self) -> u64 {
        self.shape().tagged_messages
    }

    /// Total delivered bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean message inter-arrival in seconds (the tables' "Inter-arrival"
    /// / "Delay" column).
    pub fn inter_arrival_s(&self) -> f64 {
        self.shape().inter_arrival.mean()
    }

    /// Standard deviation of inter-arrival in seconds (the "Jitter"
    /// column).
    pub fn jitter_s(&self) -> f64 {
        self.shape().inter_arrival.stddev()
    }

    /// Mean inter-arrival of tagged messages, seconds.
    pub fn tagged_inter_arrival_s(&self) -> f64 {
        self.shape().tagged_inter_arrival.mean()
    }

    /// Standard deviation of tagged inter-arrival, seconds.
    pub fn tagged_jitter_s(&self) -> f64 {
        self.shape().tagged_inter_arrival.stddev()
    }

    /// Mean one-way message latency, seconds.
    pub fn latency_s(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.latency_sum_ns as f64 / self.messages as f64 * 1e-9
    }

    /// Moves the arrival times, one per delivered message in arrival
    /// order, out of the recorder and leaves it an empty log:
    /// [`jitter_series`] derives Figures 2/3 from them. The inter-arrival
    /// statistics are kept, so the delay and jitter columns read the same
    /// before and after.
    pub fn take_arrivals(&mut self) -> ArrivalLog {
        std::mem::take(&mut self.shape_mut().arrivals)
    }
}

/// The per-message jitter series of Figures 2/3 from arrival times in
/// arrival order: one point per gap, at the later arrival, valued at the
/// gap's absolute deviation from the mean gap so far (this gap
/// included), in milliseconds. It replays what the recorder's
/// inter-arrival statistics saw, gap for gap, so a point is the same to
/// the bit whether the times came from [`FlowMetrics::take_arrivals`]
/// or from a telemetry bus's `msg_delivered` records; the series is
/// allocated at exactly its length, and not at all for fewer than two
/// times.
pub fn jitter_series(mut arrivals: impl ExactSizeIterator<Item = u64>) -> TimeSeries {
    let mut points = Vec::with_capacity(arrivals.len().saturating_sub(1));
    if let Some(mut prev) = arrivals.next() {
        let mut gaps = Welford::new();
        points.extend(arrivals.map(|now| {
            let gap = gap_s(prev, now);
            prev = now;
            gaps.push(gap);
            (now, (gap - gaps.mean()).abs() * 1e3)
        }));
    }
    TimeSeries { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn uniform_arrivals_have_zero_jitter() {
        let mut m = FlowMetrics::new();
        for i in 0..10u64 {
            m.on_message(i * 10 * MS, i * 10 * MS, 1000, false);
        }
        assert_eq!(m.messages(), 10);
        assert!((m.inter_arrival_s() - 0.010).abs() < 1e-9);
        assert!(m.jitter_s() < 1e-9);
        assert!((m.duration_s() - 0.090).abs() < 1e-9);
    }

    #[test]
    fn throughput_counts_bytes_over_duration() {
        let mut m = FlowMetrics::new();
        m.on_message(0, 0, 50_000, false);
        m.on_message(1_000 * MS, 0, 50_000, false);
        // 100 KB over 1 s.
        assert!((m.throughput_kbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tagged_stats_are_separate() {
        let mut m = FlowMetrics::new();
        // Tagged every 20 ms, untagged in between.
        for i in 0..20u64 {
            m.on_message(i * 10 * MS, 0, 100, i % 2 == 0);
        }
        assert_eq!(m.tagged_messages(), 10);
        assert!((m.tagged_inter_arrival_s() - 0.020).abs() < 1e-9);
        assert!((m.inter_arrival_s() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn jitter_series_tracks_irregularity() {
        let mut m = FlowMetrics::new();
        let times = [0u64, 10, 20, 60, 70, 80]; // one 40 ms gap
        for &t in &times {
            m.on_message(t * MS, 0, 100, false);
        }
        let series = jitter_series(m.take_arrivals().iter());
        assert_eq!(series.len(), times.len() - 1);
        let peak = series.values().fold(f64::NEG_INFINITY, f64::max);
        assert!(peak > 10.0, "the 40 ms gap should spike jitter, got {peak}");
    }

    #[test]
    fn same_nanosecond_arrivals_keep_series_in_step() {
        // A second message in the same nanosecond is a zero gap, not a
        // skipped sample: the inter-arrival accumulator and the jitter
        // series must both record it, keeping their counts equal.
        let mut m = FlowMetrics::new();
        m.on_message(10 * MS, 0, 100, false);
        m.on_message(10 * MS, 0, 100, false); // same instant
        m.on_message(20 * MS, 0, 100, false);
        assert_eq!(m.messages(), 3);
        let series = jitter_series(m.take_arrivals().iter());
        assert_eq!(series.len(), 2);
        // Gaps are 0 ms and 10 ms → mean 5 ms.
        assert!((m.inter_arrival_s() - 0.005).abs() < 1e-12);
        // The second jitter sample deviates from the updated mean:
        // |10 ms − 5 ms| = 5 ms.
        let last = series.points.last().unwrap();
        assert_eq!(last.0, 20 * MS);
        assert!((last.1 - 5.0).abs() < 1e-9);
        // First sample: |0 − 0| = 0.
        assert_eq!(series.points[0], (10 * MS, 0.0));
    }

    #[test]
    fn taking_the_series_moves_it_shrunk_and_keeps_the_columns() {
        let mut m = FlowMetrics::new();
        for t in [0u64, 10, 30, 35, 70] {
            m.on_message(t * MS, 0, 100, t % 2 == 0);
        }
        let columns = |m: &FlowMetrics| {
            [
                m.inter_arrival_s(),
                m.jitter_s(),
                m.tagged_inter_arrival_s(),
                m.tagged_jitter_s(),
            ]
            .map(f64::to_bits)
        };
        let before = columns(&m);
        let series = jitter_series(m.take_arrivals().iter());
        assert_eq!(series.len(), 4);
        assert_eq!(series.points.capacity(), series.len(), "no doubling slack");
        assert_eq!(
            columns(&m),
            before,
            "the columns do not come from the series"
        );
        assert!(
            m.take_arrivals().is_empty(),
            "the recorder keeps no second copy"
        );
    }

    #[test]
    fn derived_series_mirrors_welford_deviation() {
        // Gaps: 1 s, 3 s. Welford means after each push: 1.0, 2.0.
        // Deviations: |1-1| = 0 ms, |3-2| = 1000 ms.
        let series = jitter_series([0, 1_000_000_000, 4_000_000_000].iter().copied());
        assert_eq!(series.len(), 2);
        assert_eq!(series.points[0], (1_000_000_000, 0.0));
        assert_eq!(series.points[1].0, 4_000_000_000);
        assert!((series.points[1].1 - 1000.0).abs() < 1e-9);
        // No gap, no point, no allocation.
        for times in [&[][..], &[7]] {
            let empty = jitter_series(times.iter().copied());
            assert!(empty.is_empty() && empty.points.capacity() == 0);
        }
    }

    #[test]
    fn derived_series_saturates_a_step_back_like_the_recorder() {
        // Arrivals at 10, 5, 7 ns: the step back is a 0 s gap (mean 0,
        // deviation 0), then a 2 ns gap against a mean of 1 ns deviates
        // by 1 ns = 1e-6 ms.
        assert_eq!(
            jitter_series([10, 5, 7].iter().copied()).points,
            vec![(5, 0.0), (7, 1e-9 * 1e3)]
        );
    }

    #[test]
    fn latency_uses_sent_timestamps() {
        let mut m = FlowMetrics::new();
        m.on_message(30 * MS, 0, 1, false);
        m.on_message(60 * MS, 20 * MS, 1, false);
        // Latencies 30 ms and 40 ms → mean 35 ms.
        assert!((m.latency_s() - 0.035).abs() < 1e-9);
    }

    #[test]
    fn tagged_gap_saturates_like_the_untagged_one() {
        // A clock that steps back must not underflow either gap.
        let mut m = FlowMetrics::new();
        m.on_message(20 * MS, 0, 1, true);
        m.on_message(10 * MS, 0, 1, true);
        assert_eq!(m.tagged_inter_arrival_s(), 0.0);
        assert_eq!(m.inter_arrival_s(), 0.0);
        // Nor the span between first and last arrival, which used to
        // panic in debug and read ≈ 1.8e10 s in release.
        assert_eq!(m.duration_s(), 0.0);
        assert_eq!(m.throughput_kbps(), 0.0);
    }

    #[test]
    fn accumulator_is_compact() {
        // One per sink in every flow of a fleet, and a fleet reads the
        // shape of one flow: what every flow carries inline is the volume
        // and a pointer. A new field should show up here.
        assert!(
            std::mem::size_of::<FlowMetrics>() <= 48,
            "FlowMetrics grew to {} bytes",
            std::mem::size_of::<FlowMetrics>()
        );
    }

    /// `FlowMetrics` as it was before the volume / shape split, kept as
    /// the reference the split recorder is compared against.
    #[derive(Default)]
    struct Unsplit {
        first_arrival_ns: u64,
        last_arrival_ns: u64,
        prev_tagged_ns: u64,
        bytes: u64,
        messages: u64,
        tagged_messages: u64,
        inter_arrival: Welford,
        tagged_inter_arrival: Welford,
        jitter: Vec<(u64, f64)>,
        latency_sum_ns: u64,
    }

    impl Unsplit {
        fn on_message(&mut self, now_ns: u64, sent_at_ns: u64, bytes: u64, tagged: bool) {
            if self.messages == 0 {
                self.first_arrival_ns = now_ns;
            } else {
                let gap_s = (now_ns.saturating_sub(self.last_arrival_ns)) as f64 * 1e-9;
                self.inter_arrival.push(gap_s);
                let dev_ms = (gap_s - self.inter_arrival.mean()).abs() * 1e3;
                self.jitter.push((now_ns, dev_ms));
            }
            self.last_arrival_ns = now_ns;
            self.bytes += bytes;
            self.messages += 1;
            self.latency_sum_ns += now_ns.saturating_sub(sent_at_ns);
            if tagged {
                if self.tagged_messages > 0 {
                    let gap_ns = now_ns.saturating_sub(self.prev_tagged_ns);
                    self.tagged_inter_arrival.push(gap_ns as f64 * 1e-9);
                }
                self.tagged_messages += 1;
                self.prev_tagged_ns = now_ns;
            }
        }
    }

    proptest! {
        /// Over arrival streams with a tagged mix, equal timestamps and
        /// steps back: a volume-only recorder and a full one agree on the
        /// volume, and the full one's shape is the unsplit recorder's,
        /// bit for bit.
        #[test]
        fn split_recorders_agree_with_each_other_and_the_unsplit_one(
            arrivals in prop::collection::vec(
                (0u8..8, 0u64..50_000_000, 0u64..100_000, any::<bool>()),
                0..60,
            ),
        ) {
            let (mut full, mut volume) = (FlowMetrics::new(), FlowMetrics::volume_only());
            let mut unsplit = Unsplit::default();
            let mut now = 1_000 * MS;
            for &(kind, delta, bytes, tagged) in &arrivals {
                now = match kind {
                    0 => now,                         // same nanosecond
                    1 => now.saturating_sub(delta),   // the clock steps back
                    _ => now + delta,
                };
                let sent = now.saturating_sub(delta / 2);
                full.on_message(now, sent, bytes, tagged);
                volume.on_message(now, sent, bytes, tagged);
                unsplit.on_message(now, sent, bytes, tagged);
            }

            prop_assert!(full.records_shape() && !volume.records_shape());
            prop_assert_eq!(volume.messages(), full.messages());
            prop_assert_eq!(volume.bytes(), full.bytes());
            for read in [
                FlowMetrics::duration_s,
                FlowMetrics::throughput_kbps,
                FlowMetrics::latency_s,
            ] {
                prop_assert_eq!(read(&volume).to_bits(), read(&full).to_bits());
            }

            prop_assert_eq!(full.messages(), unsplit.messages);
            prop_assert_eq!(full.bytes(), unsplit.bytes);
            prop_assert_eq!(full.tagged_messages(), unsplit.tagged_messages);
            for (split, reference) in [
                (full.inter_arrival_s(), unsplit.inter_arrival.mean()),
                (full.jitter_s(), unsplit.inter_arrival.stddev()),
                (full.tagged_inter_arrival_s(), unsplit.tagged_inter_arrival.mean()),
                (full.tagged_jitter_s(), unsplit.tagged_inter_arrival.stddev()),
            ] {
                prop_assert_eq!(split.to_bits(), reference.to_bits());
            }
            let bits = |points: &[(u64, f64)]| -> Vec<(u64, u64)> {
                points.iter().map(|&(t, v)| (t, v.to_bits())).collect()
            };
            let series = jitter_series(full.take_arrivals().iter());
            prop_assert_eq!(series.points.capacity(), series.len());
            prop_assert_eq!(bits(&series.points), bits(&unsplit.jitter));
        }
    }

    /// Bytes of the LEB128 varint of `delta`.
    fn varint_bytes(delta: u64) -> usize {
        (64 - delta.leading_zeros() as usize).div_ceil(7).max(1)
    }

    #[test]
    fn a_varint_straddles_a_page_and_a_millisecond_costs_three_bytes() {
        // Every gap is 2^63 + 1 forward (wrapping), a 10-byte varint: 409
        // take 4,090 bytes, and the 410th runs 4 bytes past the first page.
        let mut log = ArrivalLog::default();
        let times: Vec<u64> = (1..=420u64).map(|i| ((i % 2) << 63) | i).collect();
        for &t in &times {
            log.push(t);
        }
        assert_eq!((log.pages.len(), log.tail), (2, 420 * 10 - PAGE_BYTES));
        assert_eq!(log.iter().collect::<Vec<_>>(), times);

        let mut log = ArrivalLog::default();
        for i in 1..=1_000u64 {
            log.push(i * MS);
        }
        assert_eq!((log.pages.len(), log.tail), (1, 3 * 1_000));
    }

    proptest! {
        /// Over streams with equal times, steps back, 0, `u64::MAX` and
        /// gaps of 2^63 or more (10-byte varints, so pages are crossed
        /// mid-varint): the log gives back what was pushed in exactly the
        /// pages its varints need, and the series derived from it is the
        /// one derived from the plain times, bit for bit, at exactly its
        /// length.
        #[test]
        fn an_arrival_log_decodes_what_was_pushed(
            steps in prop::collection::vec((0u8..7, any::<u64>()), 0..1_500),
        ) {
            let mut times = Vec::with_capacity(steps.len());
            let mut now = 0u64;
            for &(kind, x) in &steps {
                now = match kind {
                    0 => now,                                  // the same nanosecond
                    1 => now.wrapping_sub(x % (1 << 40)),      // a step back
                    2 => 0,
                    3 => u64::MAX,
                    4 => now.wrapping_add(x | (1 << 63)),      // a 10-byte gap
                    5 => now.wrapping_add(x % (10 * MS)),
                    _ => x,
                };
                times.push(now);
            }
            let mut log = ArrivalLog::default();
            for &t in &times {
                log.push(t);
            }
            prop_assert_eq!(log.len(), times.len());
            prop_assert_eq!(log.iter().len(), times.len());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), times.clone());
            let bytes: usize = std::iter::once(0)
                .chain(times.iter().copied())
                .zip(&times)
                .map(|(prev, &t)| varint_bytes(t.wrapping_sub(prev)))
                .sum();
            prop_assert_eq!(log.pages.len(), bytes.div_ceil(PAGE_BYTES));

            let bits = |series: TimeSeries| -> Vec<(u64, u64)> {
                series.points.iter().map(|&(t, v)| (t, v.to_bits())).collect()
            };
            let series = jitter_series(log.iter());
            prop_assert_eq!(series.points.capacity(), series.len());
            prop_assert_eq!(series.len(), times.len().saturating_sub(1));
            prop_assert_eq!(bits(series), bits(jitter_series(times.iter().copied())));

            // Zero or one arrival: no gap, no point, no allocation.
            let mut short = ArrivalLog::default();
            for &t in times.iter().take(2) {
                let empty = jitter_series(short.iter());
                prop_assert!(empty.is_empty() && empty.points.capacity() == 0);
                short.push(t);
            }
        }
    }

    #[test]
    #[should_panic(expected = "FlowMetrics::volume_only()")]
    fn shape_of_a_volume_only_recorder_is_a_panic_not_a_zero() {
        let mut m = FlowMetrics::volume_only();
        m.on_message(0, 0, 100, true);
        m.on_message(10 * MS, 0, 100, true);
        assert_eq!(m.messages(), 2);
        let _ = m.jitter_s();
    }
}
