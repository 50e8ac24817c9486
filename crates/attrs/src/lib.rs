//! # iq-attrs
//!
//! ECho-style **quality attributes**: lightweight `<name, value>` tuples
//! that carry performance information across the application/transport
//! boundary (paper §2.2). Attributes travel two ways:
//!
//! * the application attaches `ADAPT_*` attributes to sends (or callback
//!   returns) to describe its adaptations to IQ-RUDP, and
//! * IQ-RUDP exports network metrics (`NET_ERROR_RATIO`) the
//!   application can query at any time during a connection's lifetime.

#![warn(missing_docs)]

pub mod list;
pub mod names;
pub mod service;
pub mod value;

pub use list::{AttrList, AttrName};
pub use service::AttrService;
pub use value::AttrValue;
