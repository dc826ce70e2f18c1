//! `lg-switch` — the packet-level switch model.
//!
//! Models the Tofino constructs LinkGuardian is built from:
//!
//! * [`queue::ByteQueue`] — byte-accounted drop-tail FIFOs with DCTCP-style
//!   ECN marking;
//! * [`port::EgressPort`] — strict-priority scheduling across traffic
//!   classes with PFC-style per-class pause (Figure 5's queue layout);
//! * [`recirc::RecircBuffer`] — recirculation-based packet buffering with
//!   loop/bandwidth accounting (Table 4, Fig 14);
//! * [`counters::PortCounters`] — the MAC counters the activation plane
//!   polls (Appendix C: `lg_guardd::GuardManager`, fed through the link
//!   health estimator);
//! * [`switch::Switch`] — forwarding + ports + counters + pipeline latency;
//! * [`serial::SerialLink`] — an uncontended FIFO hop (host NIC,
//!   host-facing port) computed at hand-over instead of simulated.
//!
//! Queues, recirculation buffers and serial links can all charge a
//! shared `lg_obs::MemBudget` (a per-world byte quota bounding the sum of
//! all participating buffers).

pub mod counters;
pub mod port;
pub mod queue;
pub mod recirc;
pub mod serial;
pub mod switch;

pub use counters::PortCounters;
pub use port::{Class, EgressPort, NUM_CLASSES};
pub use queue::{ByteQueue, EnqueueOutcome};
pub use recirc::{RecircBuffer, RecircStats};
pub use serial::SerialLink;
pub use switch::{PortId, Switch};
