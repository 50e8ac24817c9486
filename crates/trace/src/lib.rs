//! # iq-trace
//!
//! Workload traces for the IQ-RUDP reproduction: a synthetic MBone-style
//! membership-dynamics generator, standing in for the paper's Figure 1
//! trace.

#![warn(missing_docs)]

pub mod membership;

pub use membership::{MembershipConfig, MembershipTrace};
