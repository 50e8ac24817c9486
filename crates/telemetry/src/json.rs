//! Hand-rolled JSONL serialization for telemetry records.
//!
//! The build environment is offline (no serde); records are flat
//! objects with string/number/bool values, so a ~100-line writer and
//! parser cover the format exactly. Floats are written with Rust's
//! shortest-round-trip `Display`, which `str::parse::<f64>` inverts
//! bit-exactly — the round trip is lossless and the output is
//! deterministic for a given stream of records.

use std::fmt::Write as _;

use crate::event::{CwndReason, PacketKind, TelemetryEvent, TelemetryRecord};

/// Why a JSONL line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line was not a well-formed flat JSON object.
    Malformed(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field held the wrong kind of value.
    BadField(&'static str),
    /// The `type` tag named no known event.
    UnknownKind(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(s) => write!(f, "malformed JSON: {s}"),
            ParseError::MissingField(n) => write!(f, "missing field `{n}`"),
            ParseError::BadField(n) => write!(f, "bad value for field `{n}`"),
            ParseError::UnknownKind(k) => write!(f, "unknown event type `{k}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A scanned scalar value. Numbers keep their raw token so integers
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(String),
    Bool(bool),
    Str(String),
}

/// Writes one `"key":value` pair, prefixed with a comma.
fn field(out: &mut String, key: &str, tok: &str) {
    let _ = write!(out, ",\"{key}\":{tok}");
}

fn field_str(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, ",\"{key}\":\"{val}\"");
}

fn field_f64(out: &mut String, key: &str, val: f64) {
    let _ = write!(out, ",\"{key}\":{val}");
}

impl TelemetryRecord {
    /// Serializes to one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"at\":{},\"seq\":{},\"flow\":{}",
            self.at, self.seq, self.flow
        );
        field_str(&mut out, "type", self.event.kind());
        match &self.event {
            TelemetryEvent::CwndUpdate { cwnd, reason } => {
                field_f64(&mut out, "cwnd", *cwnd);
                field_str(&mut out, "reason", reason.label());
            }
            TelemetryEvent::RtoFired {
                seq,
                rto_ns,
                backoff,
            } => {
                field(&mut out, "rto_seq", &seq.to_string());
                field(&mut out, "rto_ns", &rto_ns.to_string());
                field(&mut out, "backoff", &backoff.to_string());
            }
            TelemetryEvent::SegmentDropped { seq, marked } => {
                field(&mut out, "drop_seq", &seq.to_string());
                field(&mut out, "marked", if *marked { "true" } else { "false" });
            }
            TelemetryEvent::Unmarked { size } => {
                field(&mut out, "size", &size.to_string());
            }
            TelemetryEvent::AdaptWhen { frames_ahead } => {
                field(&mut out, "frames_ahead", &frames_ahead.to_string());
            }
            TelemetryEvent::AdaptCond {
                eratio_then,
                eratio_now,
            } => {
                field_f64(&mut out, "eratio_then", *eratio_then);
                field_f64(&mut out, "eratio_now", *eratio_now);
            }
            TelemetryEvent::WindowReinflate {
                rate_chg,
                factor,
                cwnd,
                srtt_ms,
            } => {
                field_f64(&mut out, "rate_chg", *rate_chg);
                field_f64(&mut out, "factor", *factor);
                field_f64(&mut out, "cwnd", *cwnd);
                field_f64(&mut out, "srtt_ms", *srtt_ms);
            }
            TelemetryEvent::QueueDepth {
                link,
                queued_bytes,
                queue_len,
                dropped,
            } => {
                field(&mut out, "link", &link.to_string());
                field(&mut out, "queued_bytes", &queued_bytes.to_string());
                field(&mut out, "queue_len", &queue_len.to_string());
                field(&mut out, "dropped", if *dropped { "true" } else { "false" });
            }
            TelemetryEvent::Packet {
                packet_id,
                size,
                kind,
                link,
            } => {
                field(&mut out, "packet_id", &packet_id.to_string());
                field(&mut out, "size", &size.to_string());
                field_str(&mut out, "kind", kind.label());
                field(&mut out, "link", &link.to_string());
            }
            TelemetryEvent::MsgDelivered {
                msg_id,
                size,
                marked,
                latency_ns,
            } => {
                field(&mut out, "msg_id", &msg_id.to_string());
                field(&mut out, "size", &size.to_string());
                field(&mut out, "marked", if *marked { "true" } else { "false" });
                field(&mut out, "latency_ns", &latency_ns.to_string());
            }
            TelemetryEvent::GapSkipped { seq } => {
                field(&mut out, "skip_seq", &seq.to_string());
            }
            TelemetryEvent::PeriodSample {
                eratio,
                eratio_smoothed,
                srtt_ms,
                cwnd,
                rate_kbps,
            } => {
                field_f64(&mut out, "eratio", *eratio);
                field_f64(&mut out, "eratio_smoothed", *eratio_smoothed);
                field_f64(&mut out, "srtt_ms", *srtt_ms);
                field_f64(&mut out, "cwnd", *cwnd);
                field_f64(&mut out, "rate_kbps", *rate_kbps);
            }
            TelemetryEvent::Threshold { upper, eratio } => {
                field(&mut out, "upper", if *upper { "true" } else { "false" });
                field_f64(&mut out, "eratio", *eratio);
            }
            TelemetryEvent::AdaptMark { unmark_prob } => {
                field_f64(&mut out, "unmark_prob", *unmark_prob);
            }
            TelemetryEvent::AdaptPktSize { rate_chg } => {
                field_f64(&mut out, "rate_chg", *rate_chg);
            }
            TelemetryEvent::AdaptFreq { rate_chg } => {
                field_f64(&mut out, "rate_chg", *rate_chg);
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSON object produced by [`Self::to_json`].
    pub fn from_json(line: &str) -> Result<Self, ParseError> {
        let map = parse_object(line)?;
        let at = get_u64(&map, "at")?;
        let seq = get_u64(&map, "seq")?;
        let flow = get_u64(&map, "flow")?;
        let kind = get_str(&map, "type")?;
        let event = match kind {
            "cwnd_update" => TelemetryEvent::CwndUpdate {
                cwnd: get_f64(&map, "cwnd")?,
                reason: CwndReason::from_label(get_str(&map, "reason")?)
                    .ok_or(ParseError::BadField("reason"))?,
            },
            "rto_fired" => TelemetryEvent::RtoFired {
                seq: get_u64(&map, "rto_seq")?,
                rto_ns: get_u64(&map, "rto_ns")?,
                backoff: get_u64(&map, "backoff")? as u32,
            },
            "segment_dropped" => TelemetryEvent::SegmentDropped {
                seq: get_u64(&map, "drop_seq")?,
                marked: get_bool(&map, "marked")?,
            },
            "unmarked" => TelemetryEvent::Unmarked {
                size: get_u64(&map, "size")? as u32,
            },
            "adapt_when" => TelemetryEvent::AdaptWhen {
                frames_ahead: get_i64(&map, "frames_ahead")?,
            },
            "adapt_cond" => TelemetryEvent::AdaptCond {
                eratio_then: get_f64(&map, "eratio_then")?,
                eratio_now: get_f64(&map, "eratio_now")?,
            },
            "window_reinflate" => TelemetryEvent::WindowReinflate {
                rate_chg: get_f64(&map, "rate_chg")?,
                factor: get_f64(&map, "factor")?,
                cwnd: get_f64(&map, "cwnd")?,
                srtt_ms: get_f64(&map, "srtt_ms")?,
            },
            "queue_depth" => TelemetryEvent::QueueDepth {
                link: get_u64(&map, "link")?,
                queued_bytes: get_u64(&map, "queued_bytes")?,
                queue_len: get_u64(&map, "queue_len")?,
                dropped: get_bool(&map, "dropped")?,
            },
            "packet" => TelemetryEvent::Packet {
                packet_id: get_u64(&map, "packet_id")?,
                size: get_u64(&map, "size")? as u32,
                kind: PacketKind::from_label(get_str(&map, "kind")?)
                    .ok_or(ParseError::BadField("kind"))?,
                link: get_i64(&map, "link")?,
            },
            "msg_delivered" => TelemetryEvent::MsgDelivered {
                msg_id: get_u64(&map, "msg_id")?,
                size: get_u64(&map, "size")? as u32,
                marked: get_bool(&map, "marked")?,
                latency_ns: get_u64(&map, "latency_ns")?,
            },
            "gap_skipped" => TelemetryEvent::GapSkipped {
                seq: get_u64(&map, "skip_seq")?,
            },
            "period_sample" => TelemetryEvent::PeriodSample {
                eratio: get_f64(&map, "eratio")?,
                eratio_smoothed: get_f64(&map, "eratio_smoothed")?,
                srtt_ms: get_f64(&map, "srtt_ms")?,
                cwnd: get_f64(&map, "cwnd")?,
                rate_kbps: get_f64(&map, "rate_kbps")?,
            },
            "threshold" => TelemetryEvent::Threshold {
                upper: get_bool(&map, "upper")?,
                eratio: get_f64(&map, "eratio")?,
            },
            "adapt_mark" => TelemetryEvent::AdaptMark {
                unmark_prob: get_f64(&map, "unmark_prob")?,
            },
            "adapt_pktsize" => TelemetryEvent::AdaptPktSize {
                rate_chg: get_f64(&map, "rate_chg")?,
            },
            "adapt_freq" => TelemetryEvent::AdaptFreq {
                rate_chg: get_f64(&map, "rate_chg")?,
            },
            other => return Err(ParseError::UnknownKind(other.to_string())),
        };
        Ok(TelemetryRecord {
            at,
            seq,
            flow,
            event,
        })
    }
}

/// Serializes records as one JSON object per line.
pub fn to_jsonl(records: &[TelemetryRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL stream produced by [`to_jsonl`] (blank lines are
/// skipped).
pub fn parse_jsonl(s: &str) -> Result<Vec<TelemetryRecord>, ParseError> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(TelemetryRecord::from_json)
        .collect()
}

fn find(map: &[(String, Tok)], key: &'static str) -> Result<Tok, ParseError> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .ok_or(ParseError::MissingField(key))
}

fn get_u64(map: &[(String, Tok)], key: &'static str) -> Result<u64, ParseError> {
    match find(map, key)? {
        Tok::Num(n) => n.parse().map_err(|_| ParseError::BadField(key)),
        _ => Err(ParseError::BadField(key)),
    }
}

fn get_i64(map: &[(String, Tok)], key: &'static str) -> Result<i64, ParseError> {
    match find(map, key)? {
        Tok::Num(n) => n.parse().map_err(|_| ParseError::BadField(key)),
        _ => Err(ParseError::BadField(key)),
    }
}

fn get_f64(map: &[(String, Tok)], key: &'static str) -> Result<f64, ParseError> {
    match find(map, key)? {
        Tok::Num(n) => n.parse().map_err(|_| ParseError::BadField(key)),
        _ => Err(ParseError::BadField(key)),
    }
}

fn get_bool(map: &[(String, Tok)], key: &'static str) -> Result<bool, ParseError> {
    match find(map, key)? {
        Tok::Bool(b) => Ok(b),
        _ => Err(ParseError::BadField(key)),
    }
}

fn get_str<'m>(map: &'m [(String, Tok)], key: &'static str) -> Result<&'m str, ParseError> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, Tok::Str(s))) => Ok(s),
        Some(_) => Err(ParseError::BadField(key)),
        None => Err(ParseError::MissingField(key)),
    }
}

/// Scans one flat JSON object into key/value pairs.
fn parse_object(s: &str) -> Result<Vec<(String, Tok)>, ParseError> {
    let bad = |msg: &str| ParseError::Malformed(msg.to_string());
    // One string for the scan and the slices: offsets into the trimmed
    // bytes are not offsets into an untrimmed `s`.
    let s = s.trim();
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return Err(bad("not an object"));
    }
    let mut out = Vec::new();
    let mut i = 1;
    let end = bytes.len() - 1;
    loop {
        // Skip whitespace and separators.
        while i < end && (bytes[i] == b',' || bytes[i].is_ascii_whitespace()) {
            i += 1;
        }
        if i >= end {
            break;
        }
        // Key.
        if bytes[i] != b'"' {
            return Err(bad("expected key"));
        }
        let (key, next) = scan_string(bytes, i).ok_or_else(|| bad("unterminated key"))?;
        i = next;
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= end || bytes[i] != b':' {
            return Err(bad("expected colon"));
        }
        i += 1;
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= end {
            return Err(bad("missing value"));
        }
        // Value: string, bool, or number.
        let tok = match bytes[i] {
            b'"' => {
                let (v, next) = scan_string(bytes, i).ok_or_else(|| bad("unterminated string"))?;
                i = next;
                Tok::Str(v)
            }
            b't' if s[i..].starts_with("true") => {
                i += 4;
                Tok::Bool(true)
            }
            b'f' if s[i..].starts_with("false") => {
                i += 5;
                Tok::Bool(false)
            }
            _ => {
                let start = i;
                while i < end && bytes[i] != b',' && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                let raw = &s[start..i];
                if raw.is_empty() {
                    return Err(bad("empty value"));
                }
                Tok::Num(raw.to_string())
            }
        };
        out.push((key, tok));
    }
    Ok(out)
}

/// Scans a double-quoted string starting at `bytes[start] == b'"'`;
/// returns the contents and the index one past the closing quote. The
/// only escapes the writer emits are none at all, but `\"` and `\\` are
/// accepted for robustness.
fn scan_string(bytes: &[u8], start: usize) -> Option<(String, usize)> {
    let mut i = start + 1;
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((out, i + 1)),
            b'\\' if i + 1 < bytes.len() => {
                out.push(bytes[i + 1] as char);
                i += 2;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record of every event type, with awkward float values.
    pub(crate) fn sample_records() -> Vec<TelemetryRecord> {
        let events = vec![
            TelemetryEvent::CwndUpdate {
                cwnd: 2.0,
                reason: CwndReason::Timeout,
            },
            TelemetryEvent::RtoFired {
                seq: 42,
                rto_ns: 1_000_000_000,
                backoff: 3,
            },
            TelemetryEvent::SegmentDropped {
                seq: 7,
                marked: false,
            },
            TelemetryEvent::Unmarked { size: 972 },
            TelemetryEvent::AdaptWhen { frames_ahead: -2 },
            TelemetryEvent::AdaptCond {
                eratio_then: 0.3,
                eratio_now: 0.1 + 0.2, // deliberately 0.30000000000000004
            },
            TelemetryEvent::WindowReinflate {
                rate_chg: 0.2,
                factor: 1.25,
                cwnd: 17.5,
                srtt_ms: 31.07,
            },
            TelemetryEvent::QueueDepth {
                link: 4,
                queued_bytes: 12_000,
                queue_len: 9,
                dropped: true,
            },
            TelemetryEvent::Packet {
                packet_id: u64::MAX,
                size: 1400,
                kind: PacketKind::DroppedQueue,
                link: -1,
            },
            TelemetryEvent::MsgDelivered {
                msg_id: 5,
                size: 3000,
                marked: true,
                latency_ns: 31_000_001,
            },
            TelemetryEvent::GapSkipped { seq: 11 },
            TelemetryEvent::PeriodSample {
                eratio: 0.0,
                eratio_smoothed: 0.015,
                srtt_ms: 30.0,
                cwnd: 12.0,
                rate_kbps: 998.7,
            },
            TelemetryEvent::Threshold {
                upper: true,
                eratio: 0.09,
            },
            TelemetryEvent::AdaptMark { unmark_prob: 0.4 },
            TelemetryEvent::AdaptPktSize { rate_chg: 0.2 },
            TelemetryEvent::AdaptFreq { rate_chg: -0.1 },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TelemetryRecord {
                at: i as u64 * 1_000_003,
                seq: i as u64,
                flow: 1 + (i as u64 % 2),
                event,
            })
            .collect()
    }

    #[test]
    fn every_event_type_round_trips() {
        let records = sample_records();
        let jsonl = to_jsonl(&records);
        let parsed = parse_jsonl(&jsonl).expect("parse back");
        assert_eq!(parsed, records);
        // And serializing again is byte-identical.
        assert_eq!(to_jsonl(&parsed), jsonl);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(TelemetryRecord::from_json("not json").is_err());
        assert!(TelemetryRecord::from_json("{}").is_err());
        assert!(TelemetryRecord::from_json(
            "{\"at\":1,\"seq\":0,\"flow\":1,\"type\":\"no_such_event\"}"
        )
        .is_err());
        // Missing event field.
        assert!(TelemetryRecord::from_json(
            "{\"at\":1,\"seq\":0,\"flow\":1,\"type\":\"unmarked\"}"
        )
        .is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let records = sample_records();
        let mut jsonl = String::from("\n");
        jsonl.push_str(&to_jsonl(&records[..2]));
        jsonl.push('\n');
        assert_eq!(parse_jsonl(&jsonl).unwrap(), &records[..2]);
    }

    #[test]
    fn surrounding_whitespace_is_ignored() {
        for r in sample_records() {
            let json = r.to_json();
            for pad in [" ", "\t"] {
                for line in [format!("{pad}{json}"), format!("{json}{pad}")] {
                    assert_eq!(
                        TelemetryRecord::from_json(&line).as_ref(),
                        Ok(&r),
                        "{line:?}"
                    );
                }
            }
        }
    }

    /// What an edit may put into a stream: the format's own punctuation,
    /// whitespace, and characters of two, three and four bytes.
    const NOISE: [char; 12] = [
        '{', '}', '"', ':', ',', ' ', '\t', '\n', 't', '-', 'é', '😀',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// A damaged stream — truncated, with characters inserted or
        /// replaced anywhere — is an `Err` or a value, never a panic.
        #[test]
        fn damaged_streams_never_panic(
            edits in proptest::prop::collection::vec((0u8..3, 0.0f64..1.0, 0usize..NOISE.len()), 1..6),
        ) {
            let mut s = to_jsonl(&sample_records());
            for (op, at, c) in edits {
                let mut i = (at * s.len() as f64) as usize;
                while !s.is_char_boundary(i) {
                    i -= 1;
                }
                match op {
                    0 => s.truncate(i),
                    1 => s.insert(i, NOISE[c]),
                    _ => {
                        if let Some(old) = s[i..].chars().next() {
                            s.replace_range(i..i + old.len_utf8(), NOISE[c].encode_utf8(&mut [0; 4]));
                        }
                    }
                }
            }
            let _ = parse_jsonl(&s);
        }
    }
}
