//! Layer kernels: fixed op scripts through each layer's public
//! functions, reported as host nanoseconds per op.
//!
//! Every kernel runs its script [`ROUNDS`] times and reports the fastest
//! round: a kernel's job is to expose the layer's own cost, and the
//! minimum is the estimate least disturbed by the sandbox's neighbours.

use std::hint::black_box;
use std::time::Instant;

use lg_fabric::{
    partition, CapacityConstraint, CorrOpt, Fabric, FctStream, LinkId, LinkState, PodGeom,
};
use lg_link::{LinkSpeed, LossModel, LossProcess};
use lg_obs::trace::TraceRing;
use lg_obs::{Comp, HealthConfig, HealthEstimator, Kind, SeriesBank, TraceRecord};
use lg_packet::{FlowId, NodeId, Packet, PacketPool, Payload, PktId, UdpDatagram};
use lg_sim::{run_sharded, Duration, EventQueue, Rng, ShardMsg, ShardWorld, Time};
use lg_switch::recirc::DEFAULT_CAPACITY;
use lg_switch::{ByteQueue, Class, EgressPort, RecircBuffer};
use lg_transport::{
    CcVariant, RdmaConfig, RdmaRequester, RdmaResponder, TcpConfig, TcpReceiver, TcpSender,
    TransportAction,
};
use lg_workload::FctCollector;
use linkguardian::{LgConfig, LgReceiver, LgSender, ReceiverAction, SenderAction};

const ROUNDS: usize = 3;
const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

/// Fastest of [`ROUNDS`] runs of `script`, which returns (elapsed ns,
/// ops performed).
fn best(mut script: impl FnMut() -> (u64, u64)) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let (ns, ops) = script();
            ns as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time `ops` iterations of `op`.
fn timed(ops: u64, mut op: impl FnMut(u64)) -> (u64, u64) {
    let t0 = Instant::now();
    for i in 0..ops {
        op(i);
    }
    (t0.elapsed().as_nanos() as u64, ops)
}

fn mtu_frame(seq: u64, now: Time) -> Packet {
    let dg = UdpDatagram {
        flow: FlowId(0),
        payload_len: 1518 - 46,
        seq,
    };
    Packet::udp(A, B, dg, now)
}

// ------------------------------------------------------------- packet

/// One pool cycle: insert, retain (mirror), two releases.
pub fn pool_cycle_ns() -> f64 {
    best(|| {
        let mut pool = PacketPool::new();
        let live: Vec<PktId> = (0..32)
            .map(|i| pool.insert(mtu_frame(i, Time::ZERO)))
            .collect();
        let r = timed(400_000, |i| {
            let id = pool.insert(mtu_frame(i, Time::ZERO));
            pool.retain(id);
            black_box(pool.get(id).frame_len());
            pool.release(id);
            pool.release(id);
        });
        black_box(&live);
        r
    })
}

// --------------------------------------------------------------- link

fn loss_ns(model: LossModel) -> f64 {
    best(|| {
        let mut p = LossProcess::new(model.clone(), Rng::new(1));
        timed(2_000_000, |_| {
            black_box(p.should_drop());
        })
    })
}

/// One iid loss draw.
pub fn loss_iid_ns(rate: f64) -> f64 {
    loss_ns(LossModel::Iid { rate })
}

/// One Gilbert–Elliott loss draw (mean burst 3 frames).
pub fn loss_ge_ns(rate: f64) -> f64 {
    loss_ns(LossModel::bursty(rate, 3.0))
}

// ------------------------------------------------------------- switch

/// `ByteQueue` push + pop at a standing depth of four frames.
pub fn queue_push_pop_ns() -> f64 {
    best(|| {
        let mut pool = PacketPool::new();
        let ids: Vec<PktId> = (0..8)
            .map(|i| pool.insert(mtu_frame(i, Time::ZERO)))
            .collect();
        let mut q = ByteQueue::new(lg_switch::port::DEFAULT_QUEUE_CAP);
        for id in &ids[..4] {
            q.push(*id, &mut pool);
        }
        timed(1_000_000, |i| {
            q.push(ids[(i % 8) as usize], &mut pool);
            black_box(q.pop());
        })
    })
}

/// `EgressPort` enqueue + strict-priority dequeue.
pub fn port_enq_deq_ns() -> f64 {
    best(|| {
        let mut pool = PacketPool::new();
        let ids: Vec<PktId> = (0..8)
            .map(|i| pool.insert(mtu_frame(i, Time::ZERO)))
            .collect();
        let mut port = EgressPort::new();
        for id in &ids[..4] {
            port.enqueue(Class::Normal, *id, &mut pool);
        }
        timed(1_000_000, |i| {
            port.enqueue(Class::Normal, ids[(i % 8) as usize], &mut pool);
            black_box(port.dequeue());
        })
    })
}

/// `RecircBuffer` insert + in-order remove at a standing depth of eight.
pub fn recirc_ins_rm_ns() -> f64 {
    best(|| {
        let mut pool = PacketPool::new();
        let id = pool.insert(mtu_frame(0, Time::ZERO));
        let mut buf = RecircBuffer::new(DEFAULT_CAPACITY);
        timed(1_000_000, |i| {
            let now = Time::from_ns(i * 123);
            buf.insert(i + 8, id, now, &pool)
                .expect("standing depth fits");
            if i >= 8 {
                black_box(buf.remove(i, now));
            }
        })
    })
}

// --------------------------------------------------------------- core

/// Drive an `LgSender`/`LgReceiver` pair back to back in blocks of 32
/// frames, every other block losing its eighth frame on the wire.
/// Returns ns per protected frame at the sender (`on_transmit` plus its
/// share of ACK processing), ns per frame at the receiver in loss-free
/// blocks, and the extra ns one loss adds to its block (buffering the
/// stalled run, the notification at the sender, the retransmitted
/// copies and the release of the run at the receiver).
pub fn lg_pair_ns(speed: LinkSpeed, loss: f64) -> (f64, f64, f64) {
    const BLOCK: usize = 32;
    const BLOCKS: u64 = 4_000;
    let mut bests = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let cfg = LgConfig::for_speed(speed, loss);
        let mut pool = PacketPool::new();
        let mut tx = LgSender::new(cfg.clone(), NodeId(100), NodeId(101));
        let mut rx = LgReceiver::new(cfg, NodeId(101), NodeId(100));
        tx.activate(loss);
        rx.activate();
        let (mut ractions, mut sactions) = (Vec::new(), Vec::new());
        let (mut acks, mut reverse) = (Vec::new(), Vec::new());
        let mut ids = Vec::with_capacity(BLOCK);
        let (mut tx_ns, mut clean_ns, mut lossy_ns) = (0u64, 0u64, 0u64);
        let (mut frames, mut clean_blocks, mut lossy_blocks) = (0u64, 0u64, 0u64);
        let mut now = Time::ZERO;
        for b in 0..BLOCKS {
            let lost = (b % 2 == 1).then_some(7);
            ids.clear();
            let t = Instant::now();
            for _ in 0..BLOCK {
                now += Duration::from_ns(123);
                let id = pool.insert(mtu_frame(frames, now));
                ids.push(tx.on_transmit(id, now, &mut pool));
                frames += 1;
            }
            tx_ns += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            for (i, id) in ids.iter().enumerate() {
                if lost == Some(i) {
                    pool.release(*id);
                    continue;
                }
                rx.on_protected_rx(*id, now, &mut pool, &mut ractions);
                for a in ractions.drain(..) {
                    match a {
                        ReceiverAction::Deliver(id) => pool.release(id),
                        ReceiverAction::SendReverse { id, .. } => reverse.push(id),
                        ReceiverAction::ArmTimeout { .. } | ReceiverAction::ArmBpTimer { .. } => {}
                    }
                }
            }
            // Loss notifications reach the sender; its retransmitted
            // copies reach the receiver, which releases the stalled run.
            for id in reverse.drain(..) {
                let onward = tx.on_reverse_rx(id, now, &mut pool, &mut sactions);
                assert!(onward.is_none(), "LinkGuardian control is absorbed");
                for a in sactions.drain(..) {
                    let SenderAction::Emit { id, .. } = a else {
                        continue;
                    };
                    rx.on_protected_rx(id, now, &mut pool, &mut ractions);
                    for a in ractions.drain(..) {
                        match a {
                            ReceiverAction::Deliver(id)
                            | ReceiverAction::SendReverse { id, .. } => pool.release(id),
                            _ => {}
                        }
                    }
                }
            }
            let ns = t.elapsed().as_nanos() as u64;
            if lost.is_some() {
                lossy_ns += ns;
                lossy_blocks += 1;
            } else {
                clean_ns += ns;
                clean_blocks += 1;
            }

            let t = Instant::now();
            rx.make_explicit_acks(now, &mut pool, &mut acks);
            for id in acks.drain(..) {
                let onward = tx.on_reverse_rx(id, now, &mut pool, &mut sactions);
                assert!(onward.is_none(), "explicit ACKs are absorbed");
                sactions.clear();
            }
            tx_ns += t.elapsed().as_nanos() as u64;
        }
        assert_eq!(rx.stats().timeouts, 0, "kernel losses are all recovered");
        assert_eq!(rx.stats().recovered, lossy_blocks);
        assert!(pool.live() <= 2 * BLOCK, "kernel leaks pool slots");
        let clean_block = clean_ns as f64 / clean_blocks as f64;
        let lossy_block = lossy_ns as f64 / lossy_blocks as f64;
        bests.0 = bests.0.min(tx_ns as f64 / frames as f64);
        bests.1 = bests.1.min(clean_block / BLOCK as f64);
        bests.2 = bests.2.min((lossy_block - clean_block).max(0.0));
    }
    bests
}

// ---------------------------------------------------------------- sim

/// Dense wheel use: pop the earliest event and schedule a successor
/// within 2 µs, at a standing population of `pending` events.
pub fn wheel_dense_ns(pending: usize) -> f64 {
    best(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(7);
        for i in 0..pending as u64 {
            q.schedule_after(Duration::from_ps(rng.range(1, 2_000_000)), i);
        }
        timed(1_000_000, |_| {
            let (_, ev) = q.pop().expect("standing population");
            q.schedule_after(Duration::from_ps(rng.range(1, 2_000_000)), ev);
        })
    })
}

/// Timer-style wheel use: arm a 1 ms timeout, schedule and pop one near
/// event, cancel the timeout — the RTO pattern of a serial FCT trial.
pub fn wheel_timer_ns(pending: usize) -> f64 {
    best(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(7);
        for i in 1..pending as u64 {
            q.schedule_after(Duration::from_ps(rng.range(1, 5_000_000)), i);
        }
        timed(500_000, |i| {
            let rto = q.schedule_after(Duration::from_ms(1), u64::MAX);
            q.schedule_after(Duration::from_ps(rng.range(100_000, 5_000_000)), i);
            let (_, ev) = q.pop().expect("standing population");
            if ev == u64::MAX {
                // A 1 ms timer can only surface if cancellation broke.
                unreachable!("cancelled timers never fire");
            }
            assert!(q.cancel(rto));
        })
    })
}

/// A shard world that executes one local event per window and sends
/// `fanout` messages to the next shard.
struct PingShard {
    id: u32,
    n: u32,
    fanout: u32,
    q: EventQueue<()>,
    period: Duration,
    windows_left: u64,
}

impl ShardWorld for PingShard {
    type Msg = u32;

    fn next_time(&mut self) -> Option<Time> {
        self.q.peek_time()
    }

    fn run_window(&mut self, until: Time, out: &mut Vec<ShardMsg<u32>>) -> u64 {
        let mut ran = 0;
        while let Some((now, ())) = self.q.pop_if_before(until) {
            ran += 1;
            if self.windows_left == 0 {
                continue;
            }
            self.windows_left -= 1;
            self.q.schedule_at(now + self.period, ());
            for k in 0..self.fanout {
                out.push(ShardMsg {
                    at: now + self.period,
                    seq: out.len() as u64,
                    src_shard: self.id,
                    dst_shard: (self.id + 1) % self.n,
                    payload: k,
                });
            }
        }
        ran
    }

    fn inject(&mut self, msg: ShardMsg<u32>) {
        black_box(msg.payload);
    }
}

fn ping_run(fanout: u32, windows: u64) -> u64 {
    const SHARDS: u32 = 8;
    let period = Duration::from_ns(600);
    let mut shards: Vec<PingShard> = (0..SHARDS)
        .map(|id| {
            let mut q = EventQueue::new();
            q.schedule_at(Time::ZERO + period, ());
            PingShard {
                id,
                n: SHARDS,
                fanout,
                q,
                period,
                windows_left: windows,
            }
        })
        .collect();
    let t0 = Instant::now();
    let stats = run_sharded(&mut shards, period, Time::MAX, 1);
    let ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(stats.messages, windows * u64::from(SHARDS * fanout));
    ns
}

/// Cost of the shard runner itself on the serial path with eight
/// shards: ns per window (one trivial event per shard, no messages) and
/// ns per exchanged message on top of that.
pub fn shard_runner_ns() -> (f64, f64) {
    const WINDOWS: u64 = 20_000;
    const FANOUT: u32 = 128;
    let mut bests = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let idle = ping_run(0, WINDOWS) as f64 / WINDOWS as f64;
        let busy = ping_run(FANOUT, WINDOWS / 10) as f64 / (WINDOWS / 10) as f64;
        bests.0 = bests.0.min(idle);
        bests.1 = bests.1.min((busy - idle).max(0.0) / f64::from(8 * FANOUT));
    }
    bests
}

// ---------------------------------------------------------- transport

/// Serial TCP messages through a `TcpSender`/`TcpReceiver` pair with no
/// network between them. Returns ns per data segment (send, receive,
/// ACK) and ns per `TcpSender::renew`.
pub fn tcp_loopback_ns(msg_len: u32) -> (f64, f64) {
    const TRIALS: u64 = 4_000;
    let mut bests = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let (mut seg_ns, mut renew_ns, mut segs) = (0u64, 0u64, 0u64);
        let mut spent = None;
        let (mut actions, mut pending) = (Vec::new(), Vec::new());
        let mut now = Time::ZERO;
        for trial in 0..TRIALS {
            let flow = FlowId(trial + 1);
            let t = Instant::now();
            let mut tx = TcpSender::renew(
                spent.take(),
                TcpConfig::default(),
                CcVariant::Dctcp,
                flow,
                A,
                B,
                msg_len,
            );
            renew_ns += t.elapsed().as_nanos() as u64;
            let mut rx = TcpReceiver::new(flow, B, A);
            let t = Instant::now();
            tx.start_into(now, &mut actions);
            while !tx.is_complete() {
                pending.append(&mut actions);
                assert!(!pending.is_empty(), "loopback transfer stalled");
                for a in pending.drain(..) {
                    let TransportAction::Send(pkt) = a else {
                        continue;
                    };
                    let Payload::Tcp(seg) = &pkt.payload else {
                        unreachable!("TCP sender emits TCP segments");
                    };
                    segs += 1;
                    now += Duration::from_us(1);
                    let ack = rx.on_data(seg, pkt.ecn, now);
                    let Payload::Tcp(ack_seg) = &ack.payload else {
                        unreachable!("TCP receiver emits TCP ACKs");
                    };
                    tx.on_ack_into(ack_seg, now, &mut actions);
                }
            }
            actions.clear();
            seg_ns += t.elapsed().as_nanos() as u64;
            spent = Some(tx);
        }
        bests.0 = bests.0.min(seg_ns as f64 / segs as f64);
        bests.1 = bests.1.min(renew_ns as f64 / TRIALS as f64);
    }
    bests
}

/// Serial RDMA WRITEs through a requester/responder pair with no
/// network between them: ns per data packet (send, receive, ACK).
pub fn rdma_loopback_ns(msg_len: u32) -> f64 {
    const TRIALS: u64 = 4_000;
    best(|| {
        let mut pkts = 0u64;
        let (mut actions, mut pending) = (Vec::new(), Vec::new());
        let mut now = Time::ZERO;
        let t = Instant::now();
        for trial in 0..TRIALS {
            let flow = FlowId(trial + 1);
            let mut tx = RdmaRequester::new(RdmaConfig::default(), flow, A, B, msg_len);
            let mut rx = RdmaResponder::new(flow, B, A, false);
            tx.start_into(now, &mut actions);
            while !tx.is_complete() {
                pending.append(&mut actions);
                assert!(!pending.is_empty(), "loopback WRITE stalled");
                for a in pending.drain(..) {
                    let TransportAction::Send(pkt) = a else {
                        continue;
                    };
                    let Payload::Rdma(seg) = &pkt.payload else {
                        unreachable!("requester emits RDMA data");
                    };
                    pkts += 1;
                    now += Duration::from_us(1);
                    if let Some(ack) = rx.on_data(seg, now) {
                        let Payload::RdmaAck(ack) = &ack.payload else {
                            unreachable!("responder emits RDMA ACKs");
                        };
                        tx.on_ack_into(ack, now, &mut actions);
                    }
                }
            }
            actions.clear();
        }
        (t.elapsed().as_nanos() as u64, pkts)
    })
}

// ----------------------------------------------------------- workload

/// `FctCollector::record`, once per trial.
pub fn fct_record_ns() -> f64 {
    best(|| {
        let mut c = FctCollector::new();
        let r = timed(1_000_000, |i| c.record(Duration::from_ns(30_000 + i % 977)));
        black_box(c.len());
        r
    })
}

// ------------------------------------------------------------- fabric

/// `FctStream::record`, once per completed packet-fabric flow.
pub fn fabric_fct_record_ns() -> f64 {
    best(|| {
        let mut s = FctStream::new(65_536);
        let mut rng = Rng::new(3);
        let r = timed(1_000_000, |_| s.record(rng.range(1_000_000, 400_000_000)));
        black_box(s.len());
        r
    })
}

/// `partition()` of `geom` into `shards`, in milliseconds.
pub fn partition_ms(geom: &PodGeom, shards: u32) -> f64 {
    best(|| {
        let t0 = Instant::now();
        black_box(partition(geom, shards).cut_edges);
        (t0.elapsed().as_nanos() as u64, 1)
    }) / 1e6
}

/// CorrOpt and topology kernels on a paper-scale fabric with two
/// corrupting links in every pod: µs per optimizer pass over all of
/// them, ns per fast-checker `try_disable`, µs per per-pod path count.
pub fn corropt_kernels(pods: u32) -> (f64, f64, f64) {
    let mut fabric = Fabric::new(pods);
    let corropt = CorrOpt::new(CapacityConstraint(0.75));
    let mut rng = Rng::new(11);
    let mut corrupting: Vec<(LinkId, f64)> = Vec::new();
    for pod in 0..pods {
        let ids: Vec<LinkId> = fabric.pod_link_ids(pod).collect();
        for _ in 0..2 {
            let id = *rng.choose(&ids);
            let loss_rate = 10f64.powf(-(3.0 + 4.0 * rng.f64()));
            fabric.set_state(
                id,
                LinkState::Corrupting {
                    loss_rate,
                    lg_active: true,
                },
            );
            corrupting.push((id, loss_rate));
        }
    }
    let restore = |fabric: &mut Fabric, id: LinkId| {
        let loss_rate = corrupting
            .iter()
            .find(|(l, _)| *l == id)
            .map(|(_, r)| *r)
            .expect("only corrupting links get disabled");
        fabric.set_state(
            id,
            LinkState::Corrupting {
                loss_rate,
                lg_active: true,
            },
        );
    };

    let paths = best(|| {
        timed(u64::from(pods) * 20, |i| {
            black_box(fabric.least_paths_fraction_in_pod((i % u64::from(pods)) as u32));
        })
    }) / 1e3;
    let try_disable = best(|| {
        let t0 = Instant::now();
        let mut ops = 0;
        for _ in 0..10 {
            for (id, _) in &corrupting {
                ops += 1;
                if corropt.try_disable(&mut fabric, *id) {
                    restore(&mut fabric, *id);
                }
            }
        }
        (t0.elapsed().as_nanos() as u64, ops)
    });
    let optimize = best(|| {
        let t0 = Instant::now();
        let disabled = corropt.optimize(&mut fabric, &corrupting);
        let ns = t0.elapsed().as_nanos() as u64;
        for id in disabled {
            restore(&mut fabric, id);
        }
        (ns, 1)
    }) / 1e3;
    (optimize, try_disable, paths)
}

// ---------------------------------------------------------------- obs

/// `SeriesBank::sample_at` over six interned series (the per-tick set a
/// World samples).
pub fn series_sample_ns() -> f64 {
    best(|| {
        let mut bank = SeriesBank::new(64, 16.0);
        let keys: Vec<usize> = (0..6)
            .map(|i| bank.key("port", "sw_tx:0", &format!("s{i}")))
            .collect();
        let r = timed(300_000, |i| {
            let window = i / 6 + 1;
            bank.sample_at(
                keys[(i % 6) as usize],
                window * 500_000_000,
                window,
                i as f64,
            );
        });
        black_box(bank.len());
        r
    })
}

/// `HealthEstimator::observe` on a link losing one frame in a thousand.
pub fn health_observe_ns() -> f64 {
    best(|| {
        let mut est = HealthEstimator::new(HealthConfig::default());
        timed(1_000_000, |i| {
            black_box(est.observe(i * 500_000_000, 4_000, 4));
        })
    })
}

/// `TraceRing::push` into a ring of the default capacity.
pub fn trace_record_ns() -> f64 {
    best(|| {
        let mut ring = TraceRing::new(lg_obs::trace::DEFAULT_RING_CAP);
        let r = timed(2_000_000, |i| {
            ring.push(TraceRecord {
                t_ps: i,
                uid: i,
                seq: i,
                aux: 0,
                inst: 0,
                comp: Comp::Link,
                kind: Kind::CorruptDrop,
            });
        });
        black_box(ring.len());
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel runs its script to completion (its internal
    /// assertions hold) and reports a finite, positive cost.
    #[test]
    fn kernels_report_positive_costs() {
        let (tx, inorder, recover) = lg_pair_ns(LinkSpeed::G100, 1e-3);
        let (window, msg) = shard_runner_ns();
        let (seg, renew) = tcp_loopback_ns(24_387);
        let (optimize, try_disable, paths) = corropt_kernels(8);
        for (name, v) in [
            ("pool", pool_cycle_ns()),
            ("iid", loss_iid_ns(1e-3)),
            ("ge", loss_ge_ns(1e-3)),
            ("queue", queue_push_pop_ns()),
            ("port", port_enq_deq_ns()),
            ("recirc", recirc_ins_rm_ns()),
            ("lg.tx", tx),
            ("lg.inorder", inorder),
            ("lg.recover", recover),
            ("dense", wheel_dense_ns(16)),
            ("timer", wheel_timer_ns(4)),
            ("window", window),
            ("msg", msg),
            ("tcp.seg", seg),
            ("tcp.renew", renew),
            ("rdma", rdma_loopback_ns(24_387)),
            ("fct", fct_record_ns()),
            ("fabric.fct", fabric_fct_record_ns()),
            ("partition", partition_ms(&PodGeom::paper_scale(), 8)),
            ("optimize", optimize),
            ("try_disable", try_disable),
            ("paths", paths),
            ("series", series_sample_ns()),
            ("health", health_observe_ns()),
            ("trace", trace_record_ns()),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
