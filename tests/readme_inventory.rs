//! README's `mega_serial` memory inventory quotes the agents' box sizes;
//! they are read here from the types themselves, so a field added to or
//! taken from an agent fails this test until the row is regenerated.

use std::mem::size_of;

use iq_echo::AdaptiveSourceAgent;
use iq_netsim::BulkSender;
use iq_rudp::{RudpSinkAgent, SenderConn};

/// `n` with a comma every three digits, as README writes counts.
fn grouped(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(d);
    }
    out
}

#[test]
fn the_agents_row_quotes_the_agents_sizes() {
    let readme = include_str!("../README.md");
    // `Scenario::mega(8, 3_200, 4, 1400)`: a sink a flow, three bulk
    // senders to every adaptive source.
    let agents = [
        (25_600, "sinks", size_of::<RudpSinkAgent>()),
        (19_200, "bulk senders", size_of::<BulkSender<SenderConn>>()),
        (6_400, "adaptive sources", size_of::<AdaptiveSourceAgent>()),
    ];
    let total: usize = agents.iter().map(|&(count, _, bytes)| count * bytes).sum();
    let mut quoted: Vec<String> = agents
        .iter()
        .map(|&(count, name, bytes)| format!("{} {name} × {} B", grouped(count), grouped(bytes)))
        .collect();
    quoted.push(format!("| {:.2} MB |", total as f64 / 1e6));
    quoted.push(format!(
        "{}-byte connection",
        grouped(size_of::<SenderConn>())
    ));
    println!("{} ({total} B)", quoted.join("; "));
    for text in &quoted {
        assert!(
            readme.contains(text.as_str()),
            "README's agents row lacks `{text}`"
        );
    }
}

#[test]
fn grouping_puts_a_comma_every_three_digits() {
    assert_eq!(grouped(7), "7");
    assert_eq!(grouped(528), "528");
    assert_eq!(grouped(1_040), "1,040");
    assert_eq!(grouped(25_600), "25,600");
    assert_eq!(grouped(49_019_212), "49,019,212");
}
