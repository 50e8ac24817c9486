//! The attribute service: a small shared registry through which the
//! application and the transport exchange quality information without a
//! direct call dependency (the paper's "distributed service" for update
//! and query of ECho attributes). Applications learn of changes through
//! the sender's threshold callbacks, not through the registry.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::list::AttrName;
use crate::value::AttrValue;

/// Shared attribute registry. Cheap to clone; clones view the same state.
#[derive(Clone, Default)]
pub struct AttrService {
    entries: Arc<RwLock<HashMap<AttrName, AttrValue>>>,
}

impl AttrService {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers or updates `name`.
    pub fn update(&self, name: impl Into<AttrName>, value: impl Into<AttrValue>) {
        // A panic while the lock was held cannot leave a half-written
        // map entry behind, so a poisoned lock is recovered.
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        entries.insert(name.into(), value.into());
    }

    /// Float view of the current value of `name`.
    pub fn query_float(&self, name: &str) -> Option<f64> {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        entries.get(name).and_then(AttrValue::as_float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn update_and_query() {
        let s = AttrService::new();
        assert!(s.query_float(names::NET_ERROR_RATIO).is_none());
        s.update(names::NET_ERROR_RATIO, 0.12);
        assert_eq!(s.query_float(names::NET_ERROR_RATIO), Some(0.12));
        s.update(names::NET_ERROR_RATIO, 0.2);
        assert_eq!(s.query_float(names::NET_ERROR_RATIO), Some(0.2));
    }

    #[test]
    fn clones_share_state() {
        let a = AttrService::new();
        let b = a.clone();
        a.update("k", 5i64);
        assert_eq!(b.query_float("k"), Some(5.0));
        b.update("k", 6i64);
        assert_eq!(a.query_float("k"), Some(6.0));
    }

    #[test]
    fn concurrent_updates_do_not_lose_writes() {
        let s = AttrService::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        s.update(format!("k{t}"), i as i64);
                    }
                });
            }
        });
        for t in 0..4 {
            assert_eq!(s.query_float(&format!("k{t}")), Some(99.0));
        }
    }
}
