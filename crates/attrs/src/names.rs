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

/// Every well-known name, in symbol order: `ALL[sym as usize]` recovers
/// the string for an interned symbol.
pub const ALL: [&str; 6] = [
    ADAPT_FREQ,
    ADAPT_MARK,
    ADAPT_PKTSIZE,
    ADAPT_WHEN,
    ADAPT_COND_ERATIO,
    NET_ERROR_RATIO,
];

/// Symbol id meaning "not a well-known name" (fall back to string
/// comparison).
pub const SYM_NONE: u16 = u16::MAX;

/// Interns `name` to a small symbol id, or [`SYM_NONE`] for names not in
/// [`ALL`].
///
/// Callers that pass the `names::*` constants hit the pointer-equality
/// fast path: the `&'static str`s in `ALL` are the same statics the
/// constants reference, so no bytes are compared on the hot path
/// (attribute export runs once per measuring period per connection).
pub fn intern(name: &str) -> u16 {
    for (i, known) in ALL.iter().enumerate() {
        if std::ptr::eq(name as *const str, *known as *const str) {
            return i as u16;
        }
    }
    for (i, known) in ALL.iter().enumerate() {
        if name == *known {
            return i as u16;
        }
    }
    SYM_NONE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrips_every_known_name() {
        for (i, name) in ALL.iter().enumerate() {
            assert_eq!(intern(name), i as u16);
            // A heap copy (different pointer) must intern identically.
            let heap = String::from(*name);
            assert_eq!(intern(&heap), i as u16);
        }
    }

    #[test]
    fn intern_rejects_unknown_names() {
        assert_eq!(intern("NOT_A_REAL_ATTR"), SYM_NONE);
        assert_eq!(intern(""), SYM_NONE);
    }
}
