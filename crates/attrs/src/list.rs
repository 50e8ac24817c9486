//! Attribute lists: the parameter bundles passed along `CMwritev_attr`
//! calls and callback returns.

use std::borrow::Cow;

use crate::names::{intern, SYM_NONE};
use crate::value::AttrValue;

/// An attribute name; usually one of the constants in [`crate::names`].
pub type AttrName = Cow<'static, str>;

/// An ordered list of `<name, value>` tuples.
///
/// Lists are small (a handful of entries), so lookups are linear; the
/// last write to a name wins. Each entry carries the interned symbol of
/// its name (see [`crate::names::intern`]) so lookups by a well-known
/// name compare one `u16` per entry instead of strings.
#[derive(Debug, Clone, Default)]
pub struct AttrList {
    entries: Vec<(u16, AttrName, AttrValue)>,
}

/// True when an entry tagged `(sym, entry_name)` matches a query
/// `(query_sym, query_name)`: interned symbols decide alone, unknown
/// names fall back to string equality.
#[inline]
fn matches(entry_sym: u16, entry_name: &str, query_sym: u16, query_name: &str) -> bool {
    entry_sym == query_sym && (query_sym != SYM_NONE || entry_name == query_name)
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
    pub fn set(&mut self, name: impl Into<AttrName>, value: impl Into<AttrValue>) {
        let name = name.into();
        let value = value.into();
        let sym = intern(&name);
        for (s, n, v) in &mut self.entries {
            if matches(*s, n, sym, &name) {
                *v = value;
                return;
            }
        }
        self.entries.push((sym, name, value));
    }

    /// Looks up `name`.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        let sym = intern(name);
        self.entries
            .iter()
            .find_map(|(s, n, v)| matches(*s, n, sym, name).then_some(v))
    }

    /// Float view of `name`, if present and numeric.
    pub fn get_float(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(AttrValue::as_float)
    }

    /// Integer view of `name`, if present and numeric.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(AttrValue::as_int)
    }

    /// Boolean view of `name`.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(AttrValue::as_bool)
    }

    /// Removes `name`, returning its value if it was present.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        let sym = intern(name);
        let idx = self
            .entries
            .iter()
            .position(|(s, n, _)| matches(*s, n, sym, name))?;
        Some(self.entries.remove(idx).2)
    }

    /// Whether `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(_, n, v)| (n.as_ref(), v))
    }

    /// Merges `other` into `self`; `other`'s values win on conflict.
    ///
    /// Entries are matched by their already-interned symbols (strings
    /// only when both sides are unknown names) and names are cloned only
    /// when an entry is actually inserted, not once per probe.
    pub fn merge(&mut self, other: &AttrList) {
        self.entries.reserve(other.entries.len());
        'outer: for (sym, name, value) in &other.entries {
            for (s, n, v) in &mut self.entries {
                if matches(*s, n, *sym, name) {
                    *v = value.clone();
                    continue 'outer;
                }
            }
            self.entries.push((*sym, name.clone(), value.clone()));
        }
    }
}

// Symbols are derived from names, so equality is name/value equality.
impl PartialEq for AttrList {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((_, an, av), (_, bn, bv))| an == bn && av == bv)
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
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn builder_and_contains() {
        let l = AttrList::new()
            .with(names::ADAPT_WHEN, 20i64)
            .with(names::ADAPT_COND_ERATIO, 0.3);
        assert!(l.contains(names::ADAPT_WHEN));
        assert_eq!(l.get_int(names::ADAPT_WHEN), Some(20));
        assert_eq!(l.get_float(names::ADAPT_COND_ERATIO), Some(0.3));
        assert!(!l.contains(names::ADAPT_FREQ));
    }

    #[test]
    fn remove_and_empty() {
        let mut l = AttrList::new().with("x", 1i64);
        assert_eq!(l.remove("x"), Some(AttrValue::Int(1)));
        assert_eq!(l.remove("x"), None);
        assert!(l.is_empty());
    }

    #[test]
    fn merge_overrides() {
        let mut a = AttrList::new().with("k", 1i64).with("only-a", 2i64);
        let b = AttrList::new().with("k", 9i64);
        a.merge(&b);
        assert_eq!(a.get_int("k"), Some(9));
        assert_eq!(a.get_int("only-a"), Some(2));
    }

    #[test]
    fn merge_matches_interned_and_unknown_names() {
        let mut a = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.1)
            .with("custom", 1i64);
        let mut b = AttrList::new();
        // Heap-allocated copies of the names: must still match by symbol
        // (well-known) and by string (unknown).
        b.set(names::ADAPT_PKTSIZE.to_string(), 0.25);
        b.set("custom".to_string(), 2i64);
        b.set(names::ADAPT_WHEN, 4i64);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get_float(names::ADAPT_PKTSIZE), Some(0.25));
        assert_eq!(a.get_int("custom"), Some(2));
        assert_eq!(a.get_int(names::ADAPT_WHEN), Some(4));
    }

    #[test]
    fn lookup_by_heap_copy_of_known_name() {
        let l = AttrList::new().with(names::NET_ERROR_RATIO, 0.1);
        let key = String::from("NET_ERROR_RATIO");
        assert_eq!(l.get_float(&key), Some(0.1));
    }

    #[test]
    fn iter_in_insertion_order() {
        let l = AttrList::new().with("a", 1i64).with("b", 2i64);
        let names: Vec<&str> = l.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
