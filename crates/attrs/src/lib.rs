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
//!
//! A name is one of the six of [`names::ALL`], the five `ADAPT_*` names
//! the coordination mechanisms read and `NET_ERROR_RATIO`. An
//! [`AttrList`] is one slot per name, so building one allocates nothing
//! and a lookup is one index; any other name panics, because every name
//! is a constant in code. A value is a number ([`AttrValue`]).

#![warn(missing_docs)]

pub mod list;
pub mod names;
pub mod service;
pub mod value;

pub use list::AttrList;
pub use service::AttrService;
pub use value::AttrValue;
