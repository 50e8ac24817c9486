//! Minimal SVG rendering for the paper's figures: line plots of
//! [`TimeSeries`] (Figures 1–3) and grouped bar charts (Figure 4).
//! No dependencies; the output opens in any browser.

use std::fmt::Write as _;

use crate::series::TimeSeries;

/// Canvas width in pixels.
const WIDTH: u32 = 720;
/// Canvas height in pixels.
const HEIGHT: u32 = 420;
/// A line plot downsamples each series to at most this many points.
const MAX_POINTS: usize = 2000;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;
const SERIES_COLORS: [&str; 4] = ["#1f6fb2", "#c44f4f", "#3a9a5c", "#8a62b8"];

fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    // NaN bounds must also land here, hence partial_cmp over `<=`.
    if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) || n == 0 {
        return vec![lo];
    }
    let span = hi - lo;
    let raw = span / n as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let step = [1.0, 2.0, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|&s| span / s <= n as f64)
        .unwrap_or(mag * 10.0);
    let start = (lo / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t <= hi + step * 1e-9 {
        ticks.push(t);
        t += step;
    }
    ticks
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

fn svg_header(out: &mut String, title: &str) {
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">
<rect width="{w}" height="{h}" fill="white"/>
<text x="{cx}" y="22" text-anchor="middle" font-size="15" font-weight="bold">{title}</text>
"#,
        w = WIDTH,
        h = HEIGHT,
        cx = WIDTH / 2,
    );
}

fn svg_axes(
    out: &mut String,
    (x_label, y_label): (&str, &str),
    (x_lo, x_hi): (f64, f64),
    (y_lo, y_hi): (f64, f64),
) -> impl Fn(f64, f64) -> (f64, f64) {
    let pw = f64::from(WIDTH) - MARGIN_L - MARGIN_R;
    let ph = f64::from(HEIGHT) - MARGIN_T - MARGIN_B;
    let x_span = (x_hi - x_lo).max(1e-12);
    let y_span = (y_hi - y_lo).max(1e-12);
    let project = move |x: f64, y: f64| {
        (
            MARGIN_L + (x - x_lo) / x_span * pw,
            MARGIN_T + ph - (y - y_lo) / y_span * ph,
        )
    };
    // Frame.
    let _ = writeln!(
        out,
        r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="none" stroke="#444"/>"##,
        x = MARGIN_L,
        y = MARGIN_T,
        w = pw,
        h = ph,
    );
    // Ticks and grid.
    for t in nice_ticks(x_lo, x_hi, 6) {
        let (px, _) = project(t, y_lo);
        let _ = writeln!(
            out,
            r##"<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" stroke="#ddd"/><text x="{px}" y="{ty}" text-anchor="middle" font-size="11">{label}</text>"##,
            y0 = MARGIN_T,
            y1 = MARGIN_T + ph,
            ty = MARGIN_T + ph + 16.0,
            label = fmt_tick(t),
        );
    }
    for t in nice_ticks(y_lo, y_hi, 5) {
        let (_, py) = project(x_lo, t);
        let _ = writeln!(
            out,
            r##"<line x1="{x0}" y1="{py}" x2="{x1}" y2="{py}" stroke="#ddd"/><text x="{tx}" y="{typ}" text-anchor="end" font-size="11">{label}</text>"##,
            x0 = MARGIN_L,
            x1 = MARGIN_L + pw,
            tx = MARGIN_L - 6.0,
            typ = py + 4.0,
            label = fmt_tick(t),
        );
    }
    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{cx}" y="{by}" text-anchor="middle" font-size="12">{x_label}</text>
<text x="14" y="{cy}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {cy})">{y_label}</text>
"#,
        cx = MARGIN_L + pw / 2.0,
        by = f64::from(HEIGHT) - 10.0,
        cy = MARGIN_T + ph / 2.0,
    );
    project
}

/// Renders one or more time series as an SVG line plot titled `title`,
/// its axes labelled `axes` (x, then y). The x axis is the sample index
/// (the figures plot "per packet" series).
pub fn line_plot(title: &str, axes: (&str, &str), series: &[(&str, &TimeSeries)]) -> String {
    let mut out = String::new();
    svg_header(&mut out, title);
    let prepared: Vec<(&str, TimeSeries)> = series
        .iter()
        .map(|&(name, s)| (name, s.downsample(MAX_POINTS)))
        .collect();
    let x_hi = prepared
        .iter()
        .map(|(_, s)| s.len())
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let y_hi = prepared
        .iter()
        .flat_map(|(_, s)| s.values().collect::<Vec<_>>())
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-9);
    let project = svg_axes(&mut out, axes, (0.0, x_hi), (0.0, y_hi * 1.05));
    for (i, (name, s)) in prepared.iter().enumerate() {
        let color = SERIES_COLORS[i % SERIES_COLORS.len()];
        let mut path = String::new();
        for (j, v) in s.values().enumerate() {
            let (px, py) = project(j as f64, v);
            let _ = write!(path, "{}{px:.1},{py:.1} ", if j == 0 { "M" } else { "L" });
        }
        let _ = write!(
            out,
            r#"<path d="{path}" fill="none" stroke="{color}" stroke-width="1.2"/>
<text x="{lx}" y="{ly}" font-size="12" fill="{color}">{name}</text>
"#,
            lx = MARGIN_L + 10.0,
            ly = MARGIN_T + 16.0 + 16.0 * i as f64,
        );
    }
    out.push_str("</svg>\n");
    out
}

/// Renders grouped bars titled `title`, its axes labelled `axes` (x,
/// then y): one group per label, one bar per series.
pub fn bar_chart(
    title: &str,
    axes: (&str, &str),
    labels: &[String],
    series: &[(&str, Vec<f64>)],
) -> String {
    let mut out = String::new();
    svg_header(&mut out, title);
    let y_hi = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-9);
    let y_lo = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.0f64, f64::min);
    let project = svg_axes(
        &mut out,
        axes,
        (0.0, labels.len() as f64),
        (y_lo * 1.1, y_hi * 1.1),
    );
    let group_w = 1.0;
    let bar_w = group_w * 0.7 / series.len().max(1) as f64;
    for (gi, label) in labels.iter().enumerate() {
        for (si, (_, values)) in series.iter().enumerate() {
            let v = values.get(gi).copied().unwrap_or(0.0);
            let x = gi as f64 + 0.15 + si as f64 * bar_w;
            let (px0, py_v) = project(x, v.max(0.0));
            let (px1, py_0) = project(x + bar_w, v.min(0.0));
            let color = SERIES_COLORS[si % SERIES_COLORS.len()];
            let _ = writeln!(
                out,
                r#"<rect x="{px0:.1}" y="{py_v:.1}" width="{w:.1}" height="{h:.1}" fill="{color}"/>"#,
                w = px1 - px0,
                h = (py_0 - py_v).abs().max(0.5),
            );
        }
        let (cx, _) = project(gi as f64 + 0.5, 0.0);
        let _ = writeln!(
            out,
            r#"<text x="{cx:.1}" y="{ty}" text-anchor="middle" font-size="11">{label}</text>"#,
            ty = f64::from(HEIGHT) - MARGIN_B + 30.0,
        );
    }
    for (si, (name, _)) in series.iter().enumerate() {
        let color = SERIES_COLORS[si % SERIES_COLORS.len()];
        let _ = writeln!(
            out,
            r#"<text x="{lx}" y="{ly}" font-size="12" fill="{color}">{name}</text>"#,
            lx = MARGIN_L + 10.0,
            ly = MARGIN_T + 16.0 + 16.0 * si as f64,
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        let mut s = TimeSeries::new();
        for i in 0..n {
            s.record(i as u64, (i as f64 * 0.3).sin().abs() * 10.0);
        }
        s
    }

    #[test]
    fn line_plot_is_wellformed_svg() {
        let s1 = series(500);
        let s2 = series(300);
        let svg = line_plot(
            "Test",
            ("packet", "jitter (ms)"),
            &[("IQ-RUDP", &s1), ("RUDP", &s2)],
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains("IQ-RUDP"));
        assert!(svg.contains("jitter (ms)"));
    }

    #[test]
    fn line_plot_downsamples_large_series() {
        let s = series(10_000);
        let svg = line_plot("T", ("x", "y"), &[("s", &s)]);
        // The path has MAX_POINTS points, not 10k: count coordinate pairs.
        let path = svg.split("d=\"").nth(1).unwrap().split('"').next().unwrap();
        assert_eq!(path.split_whitespace().count(), MAX_POINTS);
    }

    #[test]
    fn bar_chart_draws_all_groups() {
        let svg = bar_chart(
            "Fig 4",
            ("iperf", "%"),
            &["12M".into(), "16M".into(), "18M".into()],
            &[
                ("thpt gain", vec![6.0, 15.0, 25.0]),
                ("jitter red.", vec![20.0, 50.0, 76.0]),
            ],
        );
        assert_eq!(svg.matches("<rect").count(), 1 + 1 + 6); // bg + frame + bars
        assert!(svg.contains("12M") && svg.contains("18M"));
    }

    #[test]
    fn negative_bars_render() {
        let svg = bar_chart("F", ("x", "y"), &["a".into()], &[("v", vec![-5.0])]);
        assert!(svg.contains("<rect"));
    }

    #[test]
    fn ticks_are_nice() {
        let t = nice_ticks(0.0, 100.0, 5);
        assert!(t.contains(&0.0) || t.contains(&20.0));
        assert!(t.len() <= 7);
        let t = nice_ticks(0.0, 0.9, 5);
        assert!(t.len() >= 3);
    }
}
