//! Attribute lists: the parameter bundles passed along `CMwritev_attr`
//! calls and callback returns.

use crate::names::{slot, ALL};
use crate::value::AttrValue;

/// The `<name, value>` tuples of one send or callback return: one slot
/// per name of [`crate::names::ALL`], in that order.
///
/// The last write to a name wins. A name outside `ALL` panics (see
/// [`crate::names`]): every name is a constant in code, so an unknown
/// one is a bug, not a value to carry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AttrList {
    slots: [Option<AttrValue>; ALL.len()],
}

impl AttrList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: &'static str, value: impl Into<AttrValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Inserts or replaces `name`.
    pub fn set(&mut self, name: &str, value: impl Into<AttrValue>) {
        self.slots[slot(name)] = Some(value.into());
    }

    /// Float view of `name`, if present; an `Int` is widened.
    pub fn get_float(&self, name: &str) -> Option<f64> {
        self.slots[slot(name)].map(AttrValue::as_float)
    }

    /// Integer view of `name`, if present; a `Float` is truncated.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.slots[slot(name)].map(AttrValue::as_int)
    }

    /// Removes `name`, returning its value if it was present.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        self.slots[slot(name)].take()
    }

    /// Whether no name holds a value.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn set_get_replace() {
        let mut l = AttrList::new();
        l.set(names::ADAPT_PKTSIZE, 0.25);
        assert_eq!(l.get_float(names::ADAPT_PKTSIZE), Some(0.25));
        l.set(names::ADAPT_PKTSIZE, 0.5);
        assert_eq!(l.get_float(names::ADAPT_PKTSIZE), Some(0.5));
        assert_eq!(l, AttrList::new().with(names::ADAPT_PKTSIZE, 0.5));
    }

    #[test]
    fn builder_and_contains() {
        let l = AttrList::new()
            .with(names::ADAPT_WHEN, 20i64)
            .with(names::ADAPT_COND_ERATIO, 0.3)
            .with(names::ADAPT_MARK, 2.9);
        assert_eq!(l.get_int(names::ADAPT_WHEN), Some(20));
        assert_eq!(l.get_float(names::ADAPT_WHEN), Some(20.0));
        assert_eq!(l.get_float(names::ADAPT_COND_ERATIO), Some(0.3));
        assert_eq!(l.get_int(names::ADAPT_MARK), Some(2));
        assert_eq!(l.get_float(names::ADAPT_FREQ), None);
    }

    #[test]
    fn remove_and_empty() {
        let mut l = AttrList::new().with(names::ADAPT_WHEN, 1i64);
        assert!(!l.is_empty());
        assert_eq!(l.remove(names::ADAPT_WHEN), Some(AttrValue::Int(1)));
        assert_eq!(l.remove(names::ADAPT_WHEN), None);
        assert!(l.is_empty());
    }

    #[test]
    fn lookup_by_heap_copy_of_known_name() {
        let l = AttrList::new().with(names::NET_ERROR_RATIO, 0.1);
        let key = String::from("NET_ERROR_RATIO");
        assert_eq!(l.get_float(&key), Some(0.1));
    }

    #[test]
    #[should_panic(expected = "NOT_A_NAME")]
    fn with_an_unknown_name_panics() {
        let _ = AttrList::new().with("NOT_A_NAME", 1i64);
    }

    #[test]
    #[should_panic(expected = "NOT_A_NAME")]
    fn set_an_unknown_name_panics() {
        AttrList::new().set(&String::from("NOT_A_NAME"), 0.5);
    }

    #[test]
    #[should_panic(expected = "NOT_A_NAME")]
    fn get_an_unknown_name_panics() {
        let _ = AttrList::new().get_float("NOT_A_NAME");
    }

    #[test]
    fn a_list_is_a_copy_of_at_most_96_bytes() {
        assert!(std::mem::size_of::<AttrList>() <= 96);
        let l = AttrList::new().with(names::ADAPT_MARK, 0.5);
        let copy = l;
        assert_eq!(l, copy); // `l` is still usable: the list is `Copy`
    }
}
