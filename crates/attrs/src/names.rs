//! Well-known attribute names from the paper (§2.3.2) plus the network
//! metric IQ-RUDP exports to applications (§2.1). A name is here only
//! while some code reads it.

/// Degree of a frequency adaptation: the factor by which the application
/// reduced its message frequency (`f64` in `(0, 1)`, fraction removed).
pub const ADAPT_FREQ: &str = "ADAPT_FREQ";

/// Degree of a reliability adaptation: the fraction of packets the
/// application is now leaving unmarked (`f64` in `[0, 1]`).
pub const ADAPT_MARK: &str = "ADAPT_MARK";

/// Degree of a resolution adaptation: the fraction by which per-message
/// size was reduced (`rate_chg`, `f64` in `(0, 1)`).
pub const ADAPT_PKTSIZE: &str = "ADAPT_PKTSIZE";

/// Whether/when the application will adapt: `Int` number of messages
/// until the pending adaptation takes effect (0 = now, -1 = will not
/// adapt).
pub const ADAPT_WHEN: &str = "ADAPT_WHEN";

/// Error ratio the application observed when it *decided* to adapt
/// (`f64`); lets IQ-RUDP correct for network drift during a delayed
/// adaptation (§3.5 scheme 3, Eq. 1).
pub const ADAPT_COND_ERATIO: &str = "ADAPT_COND_ERATIO";

/// Exported metric: smoothed loss (error) ratio over the last measuring
/// period (`f64` in `[0, 1]`).
pub const NET_ERROR_RATIO: &str = "NET_ERROR_RATIO";

/// Every attribute name, in slot order: an [`crate::AttrList`] holds
/// `ALL[i]`'s value in its slot `i`.
pub const ALL: [&str; 6] = [
    ADAPT_FREQ,
    ADAPT_MARK,
    ADAPT_PKTSIZE,
    ADAPT_WHEN,
    ADAPT_COND_ERATIO,
    NET_ERROR_RATIO,
];

/// The slot of `name`: its position in [`ALL`].
///
/// Callers that pass the `names::*` constants hit the pointer-equality
/// fast path: the `&'static str`s in `ALL` are the same statics the
/// constants reference, so no bytes are compared on the hot path.
///
/// # Panics
///
/// On any other name, naming it and the six of `ALL`: every attribute
/// name is a constant in code, and one that no mechanism reads is a bug.
pub(crate) fn slot(name: &str) -> usize {
    ALL.iter()
        .position(|known| std::ptr::eq(name, *known))
        .or_else(|| ALL.iter().position(|known| name == *known))
        .unwrap_or_else(|| {
            panic!("unknown attribute name {name:?}: an attribute is one of {ALL:?}")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrips_every_name() {
        for (i, name) in ALL.iter().enumerate() {
            assert_eq!(slot(name), i);
            // A heap copy (different pointer) must find the same slot.
            let heap = String::from(*name);
            assert_eq!(slot(&heap), i);
        }
    }

    #[test]
    #[should_panic(
        expected = "unknown attribute name \"\": an attribute is one of [\"ADAPT_FREQ\""
    )]
    fn slot_rejects_an_unknown_name() {
        slot("");
    }
}
