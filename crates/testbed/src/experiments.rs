//! Experiment drivers: one function per class of experiment in §4.

use crate::world::{App, ProbeRow, World, WorldConfig};
use lg_link::{LinkSpeed, LossModel};
use lg_obs::LogHist;
use lg_sim::{Duration, Time};
use lg_transport::{CcVariant, FlowTrace};
use lg_workload::FctReport;
use linkguardian::LgConfig;
use serde::{Deserialize, Serialize};

/// Which protection runs on the corrupting link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protection {
    /// Nothing: losses reach the transport.
    Off,
    /// Full LinkGuardian (ordered).
    Lg,
    /// LinkGuardianNB (out-of-order recovery).
    LgNb,
    /// Ablation variant (Table 2): plain link-local ReTx plus optional
    /// tail-loss detection and/or ordering.
    Ablation {
        /// Dummy-packet tail-loss detection (§3.2).
        tail: bool,
        /// Reordering buffer + backpressure (§3.3).
        order: bool,
    },
}

impl Protection {
    /// Build the LinkGuardian configuration, or `None` when off.
    pub fn lg_config(self, speed: LinkSpeed, actual_loss: f64) -> Option<LgConfig> {
        let base = LgConfig::for_speed(speed, actual_loss.max(1e-9));
        match self {
            Protection::Off => None,
            Protection::Lg => Some(base),
            Protection::LgNb => Some(base.non_blocking()),
            Protection::Ablation { tail, order } => {
                let mut c = if order { base } else { base.non_blocking() };
                c.dummy_copies = if tail { 1 } else { 0 };
                Some(c)
            }
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Protection::Off => "loss",
            Protection::Lg => "LG",
            Protection::LgNb => "LG_NB",
            Protection::Ablation {
                tail: false,
                order: false,
            } => "ReTx",
            Protection::Ablation {
                tail: false,
                order: true,
            } => "ReTx+Order",
            Protection::Ablation {
                tail: true,
                order: false,
            } => "ReTx+Tail",
            Protection::Ablation {
                tail: true,
                order: true,
            } => "ReTx+Tail+Order",
        }
    }
}

// ------------------------------------------------------------- stress test

/// Result of a Fig 8 / Fig 14 / Table 4 stress run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StressResult {
    /// Frames injected at line rate.
    pub sent: u64,
    /// Frames delivered end-to-end.
    pub delivered: u64,
    /// Frames lost on the wire (corrupted originals + copies).
    pub wire_losses: u64,
    /// Packets LinkGuardian could not recover (timeout-skipped or never
    /// recovered) — the numerator of the measured effective loss rate.
    pub unrecovered: u64,
    /// Effective link speed as a fraction of line rate.
    pub effective_speed: f64,
    /// Measured effective loss rate (unrecovered / sent).
    pub effective_loss_rate: f64,
    /// Expected effective loss rate `actual^(N+1)` (Eq. 1).
    pub expected_loss_rate: f64,
    /// ackNoTimeout firings.
    pub timeouts: u64,
    /// Retransmission copies per lost packet in force (Eq. 2).
    pub n_copies: u32,
    /// Tx buffer high watermark (bytes).
    pub tx_buffer_peak: u64,
    /// Rx (reordering) buffer high watermark (bytes).
    pub rx_buffer_peak: u64,
    /// Sender-side recirculation overhead (fraction of a 1.5 Gpps pipe).
    pub tx_recirc_overhead: f64,
    /// Receiver-side recirculation overhead.
    pub rx_recirc_overhead: f64,
    /// Loss-detection → recovery delay histogram (ps), Fig 19.
    pub retx_delay_ps: LogHist,
    /// Pause frames sent by the backpressure mechanism.
    pub pauses: u64,
}

/// Tofino-class pipeline packet capacity used for the Table 4 overhead
/// percentages.
pub const PIPE_CAPACITY_PPS: f64 = 1.5e9;

/// Run the §4.1 stress test: MTU frames at line rate over a corrupting
/// link for `duration`, protected per `protection`.
pub fn stress_test(
    speed: LinkSpeed,
    loss: LossModel,
    protection: Protection,
    duration: Duration,
    seed: u64,
) -> StressResult {
    let actual = loss.mean_rate();
    let mut cfg = WorldConfig::new(speed, loss);
    cfg.lg = protection.lg_config(speed, actual);
    cfg.seed = seed;
    let mut w = World::new(cfg);
    w.enable_stress(1518);
    w.run_until(Time::ZERO + duration);
    // stop injecting, drain what's in flight
    w.disable_stress();
    w.run_until(Time::ZERO + duration + Duration::from_ms(1));
    w.publish_obs(&format!(
        "stress/{}/{:.2e}/{}/{seed}",
        speed.name(),
        actual,
        protection.label()
    ));

    let injected = if w.lg_tx.is_active() {
        w.lg_tx.stats().protected_sent
    } else {
        w.out.stress_tx_frames
    };
    let delivered = w.stress_delivered();
    let rx = w.lg_rx.stats();
    let unrecovered = injected.saturating_sub(delivered);
    let n_copies = w.lg_tx.n_copies();
    let elapsed = duration;
    let line_bytes = speed.rate().bytes_in(elapsed);
    let delivered_wire = w.hosts[1].stress_rx_wire_bytes;
    StressResult {
        sent: injected,
        delivered,
        wire_losses: w.sw_rx.counters(crate::world::PORT_LINK).frames_rx_all
            - w.sw_rx.counters(crate::world::PORT_LINK).frames_rx_ok,
        unrecovered,
        effective_speed: delivered_wire as f64 / line_bytes as f64,
        effective_loss_rate: if injected == 0 {
            0.0
        } else {
            unrecovered as f64 / injected as f64
        },
        expected_loss_rate: if w.lg_tx.is_active() {
            linkguardian::effective_loss_rate(actual.max(1e-12), n_copies)
        } else {
            actual
        },
        timeouts: rx.timeouts,
        n_copies,
        tx_buffer_peak: w.lg_tx.tx_buffer_stats().high_watermark,
        rx_buffer_peak: w.lg_rx.rx_buffer_stats().high_watermark,
        tx_recirc_overhead: w.lg_tx.tx_buffer_stats().loops as f64
            / elapsed.as_secs_f64()
            / PIPE_CAPACITY_PPS,
        rx_recirc_overhead: w.lg_rx.rx_buffer_stats().loops as f64
            / elapsed.as_secs_f64()
            / PIPE_CAPACITY_PPS,
        retx_delay_ps: w.lg_rx.retx_delay_histogram().clone(),
        pauses: w.lg_rx.stats().pauses_sent,
    }
}

// ----------------------------------------------------------------- FCT

/// Transport under test in an FCT experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FctTransport {
    /// TCP with the given congestion control.
    Tcp(CcVariant),
    /// RDMA WRITE over RC (go-back-N).
    Rdma,
    /// RDMA WRITE with selective repeat (§5).
    RdmaSelectiveRepeat,
}

/// Result of an FCT experiment.
#[derive(Debug, Clone)]
pub struct FctResult {
    /// Percentile report.
    pub report: FctReport,
    /// Top-tail CDF points (µs, cum-prob).
    pub tail_cdf: Vec<(f64, f64)>,
    /// Per-flow TCP traces (empty for RDMA).
    pub traces: Vec<FlowTrace>,
    /// Transport-level retransmissions across all trials.
    pub e2e_retx: u64,
    /// LinkGuardian receiver timeouts across all trials.
    pub lg_timeouts: u64,
}

/// The world [`fct_experiment`] runs (binaries validate it up front).
pub fn fct_config(
    speed: LinkSpeed,
    loss: LossModel,
    protection: Protection,
    transport: FctTransport,
    msg_len: u32,
    trials: u32,
    seed: u64,
) -> WorldConfig {
    let mut cfg = WorldConfig::new(speed, loss.clone());
    cfg.lg = protection.lg_config(speed, loss.mean_rate());
    cfg.seed = seed;
    let gap = Duration::from_us(10);
    cfg.app = match transport {
        FctTransport::Tcp(variant) => App::TcpTrials {
            variant,
            msg_len,
            trials,
            gap,
        },
        FctTransport::Rdma | FctTransport::RdmaSelectiveRepeat => App::RdmaTrials {
            msg_len,
            trials,
            gap,
            selective_repeat: transport == FctTransport::RdmaSelectiveRepeat,
        },
    };
    cfg
}

/// Run serial fixed-size message trials (Figs 10–12, Table 2).
pub fn fct_experiment(
    speed: LinkSpeed,
    loss: LossModel,
    protection: Protection,
    transport: FctTransport,
    msg_len: u32,
    trials: u32,
    seed: u64,
) -> FctResult {
    let actual = loss.mean_rate();
    let cfg = fct_config(speed, loss, protection, transport, msg_len, trials, seed);
    let mut w = World::new(cfg);
    w.run_to_completion();
    w.publish_obs(&format!(
        "fct/{}/{:.2e}/{}/{transport:?}/{msg_len}/{trials}/{seed}",
        speed.name(),
        actual,
        protection.label()
    ));
    assert_eq!(
        w.out.fct.len() as u32,
        trials,
        "every trial must complete ({}/{trials})",
        w.out.fct.len()
    );
    let mut fct = std::mem::take(&mut w.out.fct);
    FctResult {
        report: fct.report(),
        tail_cdf: fct.tail_cdf(0.05),
        traces: w.out.tcp_traces.clone(),
        e2e_retx: w.out.e2e_retx_total
            + w.out
                .rdma_traces
                .iter()
                .map(|t| t.e2e_retx as u64)
                .sum::<u64>(),
        lg_timeouts: w.lg_rx.stats().timeouts,
    }
}

// --------------------------------------------------------- time series

/// Scenario timeline of the Fig 9/21 experiments: a long TCP stream, a
/// corruption onset partway through, LinkGuardian activation later.
#[derive(Debug, Clone)]
pub struct TimeSeriesScenario {
    /// Link speed.
    pub speed: LinkSpeed,
    /// Congestion control under test.
    pub variant: CcVariant,
    /// Corruption model engaged at `corruption_at`.
    pub loss: LossModel,
    /// When the VOA is engaged.
    pub corruption_at: Time,
    /// When LinkGuardian is activated.
    pub lg_at: Time,
    /// Total duration.
    pub end: Time,
    /// Disable the backpressure mechanism (Fig 9b).
    pub disable_backpressure: bool,
    /// Run LinkGuardian in non-blocking (out-of-order) mode.
    pub nb_mode: bool,
    /// Probe interval.
    pub sample_interval: Duration,
    /// Seed.
    pub seed: u64,
}

/// Result: the probe timeline.
#[derive(Debug)]
pub struct TimeSeriesResult {
    /// One row per sample window: goodput at host1, the sender switch's
    /// protected-port queue depth, the LinkGuardian Rx (reordering)
    /// buffer depth and end-to-end retransmissions.
    pub rows: Vec<ProbeRow>,
    /// Rx-buffer overflow drops (Fig 9b's packet losses).
    pub rx_overflow_drops: u64,
}

/// Run the Fig 9 / Fig 21 scenario.
pub fn time_series(s: &TimeSeriesScenario) -> TimeSeriesResult {
    let mut cfg = WorldConfig::new(s.speed, LossModel::None);
    let actual = s.loss.mean_rate();
    let mut lg = LgConfig::for_speed(s.speed, actual.max(1e-9));
    if s.nb_mode {
        lg = lg.non_blocking();
    }
    if s.disable_backpressure {
        lg.pause_threshold = u64::MAX;
        lg.resume_threshold = 0;
    }
    cfg.lg = Some(lg);
    cfg.lg_active_from_start = false;
    cfg.ecn_threshold = Some(100 * 1024); // paper: 100 KB DCTCP marking
    cfg.sample_interval = Some(s.sample_interval);
    cfg.seed = s.seed;
    cfg.app = App::TcpStream {
        variant: s.variant,
        chunk: 64 * 1024 * 1024,
        end: s.end,
    };
    let mut w = World::new(cfg);
    w.q.schedule_at(
        s.corruption_at,
        crate::world::Ev::SetLoss(Box::new(s.loss.clone())),
    );
    w.q.schedule_at(s.lg_at, crate::world::Ev::ActivateLg);
    w.run_until(s.end);
    w.publish_obs(&format!(
        "ts/{}/{:?}/{:.2e}/nb={}/bp={}/{}",
        s.speed.name(),
        s.variant,
        actual,
        s.nb_mode,
        !s.disable_backpressure,
        s.seed
    ));
    TimeSeriesResult {
        rows: std::mem::take(&mut w.probes),
        rx_overflow_drops: w.lg_rx.stats().rx_overflow_drops,
    }
}

// -------------------------------------------------- Fig 13 classification

/// The four groups of Fig 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fig13Group {
    /// ≤ 2 MSS SACK'd, not a tail loss: no cwnd reduction.
    A,
    /// ≤ 2 MSS SACK'd, tail loss.
    B,
    /// > 2 MSS SACK'd but nothing left to send: reduction without FCT harm.
    C,
    /// > 2 MSS SACK'd with bytes pending: the only group with FCT impact.
    D,
}

/// Classify the *affected* flows (those that saw any SACK while recovery
/// happened) into the paper's groups A–D.
pub fn classify_fig13(traces: &[FlowTrace], mss: u32) -> Vec<(Fig13Group, usize)> {
    use std::collections::HashMap;
    let mut counts: HashMap<Fig13Group, usize> = HashMap::new();
    for t in traces {
        if t.max_sacked_bytes == 0 {
            continue; // unaffected
        }
        let group = if t.max_sacked_bytes <= 2 * mss {
            if t.tail_loss {
                Fig13Group::B
            } else {
                Fig13Group::A
            }
        } else if t.pending_bytes_at_big_sack == 0 || t.pending_bytes_at_big_sack == u32::MAX {
            Fig13Group::C
        } else {
            Fig13Group::D
        };
        *counts.entry(group).or_insert(0) += 1;
    }
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by_key(|(g, _)| format!("{g:?}"));
    v
}
