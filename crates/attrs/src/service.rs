//! The attribute service: a small shared registry through which the
//! application and the transport exchange quality information without a
//! direct call dependency (the paper's "distributed service" for update
//! and query of ECho attributes). Applications learn of changes through
//! the sender's threshold callbacks, not through the registry.

use std::sync::{Arc, RwLock};

use crate::list::AttrList;
use crate::value::AttrValue;

/// Shared attribute registry: one [`AttrList`] behind a lock. Cheap to
/// clone; clones view the same state.
#[derive(Clone, Default)]
pub struct AttrService {
    list: Arc<RwLock<AttrList>>,
}

impl AttrService {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers or updates `name`.
    pub fn update(&self, name: &str, value: impl Into<AttrValue>) {
        // A panic while the lock was held cannot leave a half-written
        // slot behind, so a poisoned lock is recovered.
        let mut list = self.list.write().unwrap_or_else(|e| e.into_inner());
        list.set(name, value);
    }

    /// Float view of the current value of `name`.
    pub fn query_float(&self, name: &str) -> Option<f64> {
        let list = self.list.read().unwrap_or_else(|e| e.into_inner());
        list.get_float(name)
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
        a.update(names::NET_ERROR_RATIO, 5i64);
        assert_eq!(b.query_float(names::NET_ERROR_RATIO), Some(5.0));
        b.update(names::NET_ERROR_RATIO, 6i64);
        assert_eq!(a.query_float(names::NET_ERROR_RATIO), Some(6.0));
    }

    #[test]
    fn concurrent_updates_do_not_lose_writes() {
        let s = AttrService::new();
        std::thread::scope(|scope| {
            for name in &names::ALL[..4] {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        s.update(name, i as i64);
                    }
                });
            }
        });
        for name in &names::ALL[..4] {
            assert_eq!(s.query_float(name), Some(99.0));
        }
    }
}
