//! The switch: forwarding table, egress ports, per-port counters and
//! pipeline latency. Event scheduling (serialization completion, pipeline
//! traversal) is interpreted by the testbed crate; this struct holds the
//! state machines.

use crate::counters::PortCounters;
use crate::port::{Class, EgressPort};
use crate::queue::EnqueueOutcome;
use lg_packet::{NodeId, PacketPool, PktId};
use lg_sim::Duration;

/// Index of a switch port.
pub type PortId = usize;

/// Tofino-class ingress+egress pipeline latency.
pub const DEFAULT_PIPELINE_LATENCY: Duration = Duration(400_000); // 400 ns

/// A switch with `n` egress ports.
#[derive(Debug)]
pub struct Switch {
    /// Human-readable name for traces.
    pub name: String,
    ports: Vec<EgressPort>,
    counters: Vec<PortCounters>,
    /// Forwarding table, sorted by destination. Topologies install a
    /// handful of routes once and look one up per forwarded packet, so a
    /// sorted vec's branch-light binary search beats hashing the key on
    /// every packet (`route` sits on the per-hop hot path).
    fib: Vec<(NodeId, PortId)>,
    /// One-way pipeline traversal latency.
    pub pipeline_latency: Duration,
}

impl Switch {
    /// A switch with `n_ports` default ports.
    pub fn new(name: impl Into<String>, n_ports: usize) -> Switch {
        Switch {
            name: name.into(),
            ports: (0..n_ports).map(|_| EgressPort::new()).collect(),
            counters: vec![PortCounters::default(); n_ports],
            fib: Vec::new(),
            pipeline_latency: DEFAULT_PIPELINE_LATENCY,
        }
    }

    /// Install a forwarding entry: traffic to `dst` leaves via `port`.
    /// Re-adding a destination replaces its route.
    pub fn add_route(&mut self, dst: NodeId, port: PortId) {
        assert!(port < self.ports.len());
        match self.fib.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => self.fib[i].1 = port,
            Err(i) => self.fib.insert(i, (dst, port)),
        }
    }

    /// Look up the egress port for a destination.
    #[inline]
    pub fn route(&self, dst: NodeId) -> Option<PortId> {
        self.fib
            .binary_search_by_key(&dst, |&(d, _)| d)
            .ok()
            .map(|i| self.fib[i].1)
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Mutable access to a port.
    pub fn port_mut(&mut self, p: PortId) -> &mut EgressPort {
        &mut self.ports[p]
    }

    /// Shared access to a port.
    pub fn port(&self, p: PortId) -> &EgressPort {
        &self.ports[p]
    }

    /// Replace a port's configuration (capacities/ECN) wholesale.
    pub fn set_port(&mut self, p: PortId, port: EgressPort) {
        self.ports[p] = port;
    }

    /// Charge every port's queues against a shared memory budget. Call
    /// after all [`Switch::set_port`] reconfiguration, while idle.
    pub fn attach_budget(&mut self, budget: &lg_obs::MemBudget) {
        for p in &mut self.ports {
            p.set_budget(budget);
        }
    }

    /// Enqueue a packet for egress on `port` in `class`, counting TX on
    /// eventual dequeue (see [`Switch::tx_complete`]).
    pub fn enqueue(
        &mut self,
        port: PortId,
        class: Class,
        id: PktId,
        pool: &mut PacketPool,
    ) -> EnqueueOutcome {
        let outcome = self.ports[port].enqueue(class, id, pool);
        if !matches!(outcome, EnqueueOutcome::Dropped) {
            let depth = self.ports[port].total_bytes();
            self.counters[port].note_queue_depth(depth);
        }
        outcome
    }

    /// Dequeue the next eligible packet from `port`.
    pub fn dequeue(&mut self, port: PortId) -> Option<(Class, PktId)> {
        self.ports[port].dequeue()
    }

    /// Record a completed transmission on `port`.
    pub fn tx_complete(&mut self, port: PortId, frame_len: u32) {
        self.counters[port].tx(frame_len);
    }

    /// Record that the frame just transmitted on `port` was a
    /// LinkGuardian retransmission copy (call alongside
    /// [`Switch::tx_complete`]).
    pub fn note_lg_retx(&mut self, port: PortId) {
        self.counters[port].tx_lg_retx();
    }

    /// Record a pause/resume frame transmitted out of `port`.
    pub fn note_pause_tx(&mut self, port: PortId) {
        self.counters[port].tx_pause();
    }

    /// Record a pause/resume frame absorbed at `port`.
    pub fn note_pause_rx(&mut self, port: PortId) {
        self.counters[port].rx_pause();
    }

    /// Record a good reception on `port`.
    pub fn rx_ok(&mut self, port: PortId, frame_len: u32) {
        self.counters[port].rx_ok(frame_len);
    }

    /// Record a corrupted (MAC-dropped) reception on `port`.
    pub fn rx_corrupt(&mut self, port: PortId) {
        self.counters[port].rx_corrupt();
    }

    /// Counter snapshot for `port`.
    pub fn counters(&self, port: PortId) -> PortCounters {
        self.counters[port]
    }

    /// The counters of a port served by a [`crate::SerialLink`].
    pub fn counters_mut(&mut self, port: PortId) -> &mut PortCounters {
        &mut self.counters[port]
    }

    /// Instantaneous occupancy of one egress queue in bytes (the
    /// "qdepth" the telemetry plane samples into its time series).
    pub fn queue_bytes(&self, port: PortId, class: Class) -> u64 {
        self.ports[port].queue(class).bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_packet::Packet;
    use lg_sim::Time;

    fn pkt(pool: &mut PacketPool, dst: u32) -> PktId {
        pool.insert(Packet::raw(NodeId(0), NodeId(dst), 100, Time::ZERO))
    }

    #[test]
    fn routing() {
        let mut sw = Switch::new("sw1", 4);
        sw.add_route(NodeId(7), 2);
        sw.add_route(NodeId(8), 3);
        assert_eq!(sw.route(NodeId(7)), Some(2));
        assert_eq!(sw.route(NodeId(8)), Some(3));
        assert_eq!(sw.route(NodeId(9)), None);
    }

    #[test]
    fn enqueue_dequeue_and_counters() {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new("sw1", 2);
        let id = pkt(&mut pool, 1);
        sw.enqueue(0, Class::Normal, id, &mut pool);
        let (class, p) = sw.dequeue(0).unwrap();
        assert_eq!(class, Class::Normal);
        sw.tx_complete(0, pool.get(p).frame_len());
        assert_eq!(sw.counters(0).frames_tx, 1);
        assert_eq!(sw.counters(0).bytes_tx, 100);
        assert!(sw.dequeue(0).is_none());
    }

    #[test]
    fn rx_counters_distinguish_corruption() {
        let mut sw = Switch::new("sw1", 1);
        sw.rx_ok(0, 1518);
        sw.rx_corrupt(0);
        let c = sw.counters(0);
        assert_eq!(c.frames_rx_all, 2);
        assert_eq!(c.frames_rx_ok, 1);
    }

    #[test]
    #[should_panic]
    fn route_to_invalid_port_panics() {
        let mut sw = Switch::new("sw1", 1);
        sw.add_route(NodeId(1), 5);
    }
}
