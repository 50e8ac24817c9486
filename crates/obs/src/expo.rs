//! Metric exposition: Prometheus-style text format, the one form a
//! registry leaves the process in (`--metrics DIR` writes it to files,
//! [`Registry::sim_text`](crate::Registry::sim_text) fingerprints it).
//!
//! Histograms render as Prometheus summaries (`{quantile="…"}` series
//! plus `_sum`/`_count`), which keeps the log-linear bucket table out of
//! the wire format while staying parseable by standard scrapers.

use crate::registry::{Metric, Plane, Registry, Value};
use std::fmt::Write as _;

/// Render the registry (optionally one plane) as Prometheus text
/// exposition. The caller should `sort()` the registry first if
/// canonical byte output matters.
pub fn render_prom(reg: &Registry, plane: Option<Plane>) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in reg.metrics() {
        if let Some(p) = plane {
            if m.plane != p {
                continue;
            }
        }
        if m.name != last_name {
            let ty = match m.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Hist(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {} {}", m.name, ty);
            last_name = &m.name;
        }
        match &m.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_str(m, &[]), v);
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_str(m, &[]), fmt_f64(*v));
            }
            Value::Hist(h) => {
                for (q, v) in [
                    ("0", h.min),
                    ("0.5", h.p50),
                    ("0.9", h.p90),
                    ("0.99", h.p99),
                    ("0.999", h.p999),
                    ("1", h.max),
                ] {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        label_str(m, &[("quantile", q)]),
                        v
                    );
                }
                let _ = writeln!(out, "{}_sum{} {}", m.name, label_str(m, &[]), h.sum);
                let _ = writeln!(out, "{}_count{} {}", m.name, label_str(m, &[]), h.count);
            }
        }
    }
    out
}

fn label_str(m: &Metric, extra: &[(&str, &str)]) -> String {
    if m.labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in m
        .labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{}=\"{}\"", k, v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    s.push('}');
    s
}

/// Deterministic float formatting (shortest round-trip via `{}`); whole
/// floats keep a trailing `.0` so a gauge always reads as a float.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Hist;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter(Plane::Sim, "iq_sim_events_total", &[("shard", "0")], 42);
        r.counter(Plane::Sim, "iq_sim_events_total", &[("shard", r#"a"b\c"#)], 7);
        r.gauge(Plane::Engine, "iq_sched_wheel_events", &[("level", "1")], 3.5);
        let mut h = Hist::new();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        r.hist(Plane::Sim, "iq_sim_delivery_latency_ns", &[], &h);
        r
    }

    /// The literal a reader checks by eye: one TYPE line per name,
    /// quantiles in this order, then `_sum` and `_count`; label values
    /// escaped; the sim plane sorted first.
    const SIM_TEXT: &str = r#"# TYPE iq_sim_delivery_latency_ns summary
iq_sim_delivery_latency_ns{quantile="0"} 1
iq_sim_delivery_latency_ns{quantile="0.5"} 10
iq_sim_delivery_latency_ns{quantile="0.9"} 992
iq_sim_delivery_latency_ns{quantile="0.99"} 992
iq_sim_delivery_latency_ns{quantile="0.999"} 992
iq_sim_delivery_latency_ns{quantile="1"} 1000
iq_sim_delivery_latency_ns_sum 1111
iq_sim_delivery_latency_ns_count 4
# TYPE iq_sim_events_total counter
iq_sim_events_total{shard="0"} 42
iq_sim_events_total{shard="a\"b\\c"} 7
"#;

    #[test]
    fn prom_text_is_a_known_answer() {
        let mut r = sample_registry();
        r.sort();
        let engine = "# TYPE iq_sched_wheel_events gauge\niq_sched_wheel_events{level=\"1\"} 3.5\n";
        assert_eq!(render_prom(&r, None), format!("{SIM_TEXT}{engine}"));
        assert_eq!(render_prom(&r, Some(Plane::Sim)), SIM_TEXT);
        assert_eq!(r.sim_text(), SIM_TEXT);
    }
}
