//! `linkguardian` — the paper's primary contribution: link-local
//! retransmission that masks corruption packet losses at sub-RTT
//! timescales (Joshi et al., ACM SIGCOMM 2023).
//!
//! The protocol runs per link between a **sender switch** and a
//! **receiver switch** (Figure 5):
//!
//! * the sender stamps protected packets with a 3-byte header
//!   (16-bit seqNo + era + type), buffers copies in a recirculation Tx
//!   buffer, and retransmits `N` copies (Eq. 2) through a high-priority
//!   queue upon a loss notification — see [`sender::LgSender`];
//! * the receiver detects losses from sequence gaps, notifies the sender,
//!   preserves ordering with a reordering buffer (Algorithm 1), throttles
//!   the sender with pause/resume backpressure (Algorithm 2), and bounds
//!   stalls with the ackNoTimeout — see [`receiver::LgReceiver`];
//! * self-replenishing queues of **dummy** packets (sender) and
//!   **explicit ACK** packets (receiver) ride strictly-lowest priority so
//!   tail losses are detected and ACKs delivered without timeouts even on
//!   an otherwise idle link (§3.1–3.2);
//! * the control-plane monitor that activates the whole machinery when
//!   a link starts corrupting (`corruptd`, Appendix C) lives outside this
//!   crate: `lg_obs::health` estimates the windowed loss rate and
//!   `lg_guardd::GuardManager` under `GuardConfig::oracle()` latches the
//!   activation; [`sender::LgSender::activate`] is what it calls.
//!
//! `LinkGuardianNB` — the out-of-order variant evaluated throughout §4 —
//! is [`config::Mode::NonBlocking`].

pub mod config;
pub mod eq;
pub mod receiver;
pub mod sender;
pub mod seqmap;

pub use config::{LgConfig, Mode};
pub use eq::{effective_loss_rate, retx_copies};
pub use receiver::{LgReceiver, ReceiverAction, ReceiverStats};
pub use sender::{LgSender, SenderAction, SenderStats};
