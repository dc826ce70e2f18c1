//! The periodic-state seam of both testbed loops: the one mark, the one
//! comparison and the one advance that compute a run's clean periods
//! (DESIGN.md §23). A period's unit is a forward departure under
//! line-rate stress (a computed stretch) or a `TrialStart` in a serial
//! trial series (a computed batch of trials); the code is the same for
//! both.
//!
//! A loop lists what a period moves through [`Periodic`]: its
//! LinkGuardian pairs, switches, link directions, host ports and extra
//! counters, and, under stress, the hooks of host1's leg, which drains a
//! backlog at its own rate and is computed as a train. Everything else —
//! the event walk, which instants a batch may keep, how `K` is bounded,
//! what a batch advances — is the same for every unit and topology.

use lg_link::LinkDirection;
use lg_obs::Counters;
use lg_packet::{FlowId, Packet, Payload, PktId};
use lg_sim::{Duration, Time};
use lg_switch::{PortId, Switch};
use lg_transport::{FlowTrace, RdmaTrace};
use linkguardian::{LgReceiver, LgSender};

use crate::host;
use crate::port::{self, Ev, PortLoop};

/// A testbed loop as a computed period sees it: what a period moves.
pub(crate) trait Periodic: PortLoop {
    /// The loop's marks, census and event count.
    fn cycle(&mut self) -> &mut Cycle;
    /// Whether the period at hand may be marked at all, beyond the
    /// refusals every loop shares. A batch runs no handler, so a loop
    /// refuses while a trace would miss the rows its periods write.
    fn batches(&self) -> bool;
    /// LinkGuardian pairs (one per protected or protectable link).
    fn pairs(&self) -> usize;
    /// Pair `i`'s sender and receiver, and the sender's dummy-refresh flag.
    fn pair(&mut self, i: usize) -> (&mut LgSender, &mut LgReceiver, &mut bool);
    /// The pair whose sequences a frame at port `port` of switch `sw`
    /// carries (a data header it sends, an ACK it returns).
    fn pair_at(sw: usize, port: PortId) -> usize;
    /// The switch and port a loop port names.
    fn locate(at: Self::Port) -> (usize, PortId);
    /// Switches.
    fn switches(&self) -> usize;
    /// Switch `i`.
    fn switch(&mut self, i: usize) -> &mut Switch;
    /// Whether a period steps the counters of `port` (every port unless
    /// a train computes them).
    fn moves_counters(&self, _port: PortId) -> bool {
        true
    }
    /// Link directions.
    fn directions(&self) -> usize;
    /// The link direction labelled `label` (see [`PortLoop::link`]).
    fn direction(&mut self, label: usize) -> &mut LinkDirection;
    /// The per-trial TCP and RDMA traces the loop keeps, if any.
    fn traces(&mut self) -> Option<(&mut Vec<FlowTrace>, &mut Vec<RdmaTrace>)> {
        None
    }
    /// Visit the loop's own counters a period moves by a fixed step.
    fn extras(&mut self, _f: &mut dyn FnMut(&mut u64)) {}
    /// The sequence the next stress datagram carries.
    fn udp_seq(&self) -> u64 {
        0
    }
    /// Whether a batch computes host1's leg itself, as a train (`admit`,
    /// `land`): the host-facing ports, the hosts' counters and the frames
    /// bound for a host (consumed at the batch's end, not moved), and the
    /// receivers' drain. The mark then leaves them out, and the batch
    /// counts no events.
    fn trains(&self) -> bool {
        false
    }
    /// A train of `k` clean periods from `now` is about to run, with
    /// host1's leg as the mark's event walk saw it: false refuses it,
    /// changing nothing.
    fn admit(&mut self, _now: Time, _k: u64, _period: Duration, _feed: &Feed) -> bool {
        true
    }
    /// The batch moved the world `k` periods on, to `end`, each the step
    /// from `prev` to `cur`: the train's part of it.
    fn land(&mut self, _prev: &Mark, _cur: &Mark, _k: u64, _end: Time) {}
}

/// What a mark's event walk saw of host1's leg, for a loop that
/// computes it as a train (see [`Periodic::admit`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Feed {
    /// The latest pending arrival at host1, if any.
    pub last: Option<Time>,
    /// The first pending link arrival at host1's switch (the last one),
    /// in filing order, and its frame.
    pub next: Option<(Time, PktId)>,
}

/// How a loop's `run_until` spent a run: the census of the stretches
/// of a stress run and the batches of a trial series it computed
/// (DESIGN.md §23).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StretchCensus {
    /// Stretches computed.
    pub stretches: u64,
    /// Frame periods they computed instead of simulating.
    pub periods: u64,
    /// Marks taken at forward departures.
    pub marks: u64,
    /// Marks of either kind refused outright (a recovery under way, or
    /// a world a stretch or batch does not compute).
    pub refused: u64,
    /// Marks (of either kind) that did not repeat the one before.
    pub unequal: u64,
    /// Marks taken at trial starts.
    pub trial_marks: u64,
    /// Trials computed instead of simulated.
    pub trials: u64,
    /// Batches of trials computed.
    pub batches: u64,
    /// Stretches and batches that took the step of the last one before
    /// them: their mark repeated its, not the mark a period before.
    pub resumed: u64,
    /// The unequal marks, by what first differed.
    pub causes: Causes,
}

/// The marks that did not repeat the one a period before, by the first
/// thing found to differ, in the order the comparison looks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Causes {
    /// A link lost a frame between the two marks (or more than one
    /// trial completed).
    pub lost: u64,
    /// The shape of a LinkGuardian pair: sequences in flight, refresh
    /// flag, sender and receiver state.
    pub pair: u64,
    /// The shape of a switch port: queues, pause state, buffered frames.
    pub switch: u64,
    /// The pending events: their kinds and places.
    pub events: u64,
    /// The shape of a host: transports in place, NIC.
    pub host: u64,
    /// The shape of a host-facing switch port.
    pub host_port: u64,
    /// The pool: live packets, their reference counts or contents.
    pub packets: u64,
    /// An instant a period moves, not a period on.
    pub moved: u64,
    /// An instant that may stay, neither where it was nor a period on.
    pub kept: u64,
}

/// What [`repeats`] found first to differ.
#[derive(Debug, Clone, Copy)]
enum Cause {
    Lost,
    /// The shape section ([`Mark::ends`]) it differs in.
    Shape(usize),
    Packets,
    Moved,
    Kept,
}

impl Causes {
    fn count(&mut self, cause: Cause) {
        *match cause {
            Cause::Lost => &mut self.lost,
            Cause::Shape(0) => &mut self.pair,
            Cause::Shape(1) => &mut self.switch,
            Cause::Shape(2) => &mut self.events,
            Cause::Shape(3) => &mut self.host,
            Cause::Shape(_) => &mut self.host_port,
            Cause::Packets => &mut self.packets,
            Cause::Moved => &mut self.moved,
            Cause::Kept => &mut self.kept,
        } += 1;
    }
}

/// A loop's periodic-state bookkeeping.
#[derive(Default)]
pub(crate) struct Cycle {
    /// The world at the last mark, if the next one compares with it.
    pub mark: Option<Mark>,
    /// Marks done with, whose buffers the next ones reuse.
    pub spare: Vec<Mark>,
    /// The last batch's marks and what it repeated: a later mark that
    /// matches them batches with their step. Kept across `run_until`
    /// calls, since its step was measured inside one.
    template: Option<Template>,
    /// Which instants of a mark a batch keeps in place (a buffer).
    kept: Vec<bool>,
    /// The frames a batch consumed, with their hosts (a buffer).
    consumed: Vec<(usize, PktId)>,
    pub census: StretchCensus,
    /// Events `run_until` handled, and those the computed trials stand
    /// for.
    pub events: u64,
    /// The horizon of the `run_until` under way: only that loop computes.
    until: Option<Time>,
}

impl Cycle {
    /// A `run_until` to `until` starts: events handled since (a mark
    /// from before counted none of what ran in between) are counted
    /// from the returned base.
    pub fn begin(&mut self, until: Time) -> u64 {
        self.spare.extend(self.mark.take());
        self.until = Some(until);
        self.events
    }

    /// The `run_until` that began at `start` is over: the events it
    /// handled or computed.
    pub fn end(&mut self, start: u64) -> u64 {
        self.until = None;
        self.events - start
    }

    /// Drop the mark: the next one compares with none.
    pub fn forget(&mut self) {
        self.spare.extend(self.mark.take());
    }
}

/// Indices into [`Mark::refs`]: the uid counter, the instant, the next
/// stress datagram's sequence and the next flow id; then each pair's
/// sender and receiver sequences ([`Mark::data`], [`Mark::ack`]), then
/// each link direction's frame count ([`Mark::frames`]).
const UID: usize = 0;
pub(crate) const NOW: usize = 1;
const UDP: usize = 2;
const FLOW: usize = 3;

/// The world at a period's start, made relative to the instant, the
/// sequences, the uid counter and the next flow id, so two marks a
/// period apart compare equal exactly when the world repeats (DESIGN.md
/// §23).
#[derive(Default)]
pub(crate) struct Mark {
    /// Everything compared that is not a packet.
    shape: Vec<u64>,
    /// Where the shape of the pairs, the switches, the pending events,
    /// the hosts and the host-facing ports ends (the pool's follows).
    ends: [usize; 5],
    pkts: Vec<Packet>,
    /// The frames `pkts` normalizes (a buffer, not compared), and the
    /// pair whose sequences each carries.
    ids: Vec<PktId>,
    owners: Vec<usize>,
    /// The live pool slots the mark holds, in index order, each with its
    /// pair.
    slots: Vec<(u32, usize)>,
    /// The loop's scalars, in visiting order.
    scalars: Vec<u64>,
    /// What [`shift`] moves packets by (see [`UID`]).
    refs: Vec<u64>,
    pairs: usize,
    /// The instants a batch moves or keeps in place: the first `pending`
    /// are the pending events in filing order, then each host's.
    instants: Vec<(Time, Hold)>,
    pending: usize,
    /// Host1's leg, when a train computes it.
    feed: Feed,
    /// FCT samples, TCP and RDMA traces recorded, and frames the links
    /// lost, so far.
    done: [u64; 4],
}

impl Mark {
    /// The reference of pair `pair`'s sender sequence.
    fn data(pair: usize) -> usize {
        FLOW + 1 + 2 * pair
    }

    /// The reference of pair `pair`'s receiver sequence.
    fn ack(pair: usize) -> usize {
        Mark::data(pair) + 1
    }

    /// The reference of link direction `label`'s frame count.
    fn frames(&self, label: usize) -> usize {
        Mark::data(self.pairs) + label
    }

    /// Empty every buffer for a new mark, keeping its capacity.
    fn clear(&mut self) {
        self.shape.clear();
        self.pkts.clear();
        self.ids.clear();
        self.owners.clear();
        self.slots.clear();
        self.scalars.clear();
        self.refs.clear();
        self.instants.clear();
        self.feed = Feed::default();
    }

    /// Hold frame `id`, whose LinkGuardian sequences are pair `pair`'s.
    fn hold(&mut self, id: PktId, pair: usize) {
        self.ids.push(id);
        self.owners.push(pair);
    }
}

/// What `k` steps from `prev` to `cur` move reference `i` by (wrapping).
pub(crate) fn steps<'a>(
    prev: &'a Mark,
    cur: &'a Mark,
    k: u64,
) -> impl Fn(usize) -> u64 + Copy + 'a {
    move |i| k.wrapping_mul(cur.refs[i].wrapping_sub(prev.refs[i]))
}

/// Whether a batch moves an instant of its mark with the clock or keeps
/// it in place: whichever the mark a period earlier shows, where a rule
/// allows both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    /// Repeats a period later.
    Moves,
    /// Stays where it is: a control event or a recovery's timer, never
    /// part of a period.
    Stays,
    /// Moves, or stays if already past: a latest deadline, which stays
    /// only while no trial asks for a later one.
    Lapsed,
}

/// Move the fields of `p` a period moves by `by` of each reference:
/// uid, creation instant (ps), UDP sequence, the flow id of a transport
/// frame, and the data and ACK sequences of LinkGuardian pair `pair`,
/// wrapping (so negated references make them relative).
pub(crate) fn shift(p: &mut Packet, by: impl Fn(usize) -> u64, pair: usize) {
    p.uid = p.uid.wrapping_add(by(UID));
    p.created_at = Time(p.created_at.as_ps().wrapping_add(by(NOW)));
    let flow = |f: &mut FlowId| f.0 = f.0.wrapping_add(by(FLOW));
    match &mut p.payload {
        Payload::Udp(u) => u.seq = u.seq.wrapping_add(by(UDP)),
        Payload::Tcp(t) => flow(&mut t.flow),
        Payload::Rdma(r) => flow(&mut r.flow),
        Payload::RdmaAck(a) => flow(&mut a.flow),
        Payload::Raw | Payload::Lg(_) => {}
    }
    let wire = |n: u64| (n % (2 * 65_536)) as u32;
    if let Some(h) = &mut p.lg_data {
        h.seq = h.seq.advance(wire(by(Mark::data(pair))));
    }
    if let Some(a) = &mut p.lg_ack {
        a.latest_rx = a.latest_rx.advance(wire(by(Mark::ack(pair))));
    }
}

/// The world as [`Mark`] compares it at `now`, a period's start: a
/// forward departure just handled, or a trial start before its event
/// runs. `None` while a recovery is under way, while a receiver drains
/// that no train computes, while a transport wake is pending, or if a
/// live packet is held where the mark does not look.
pub(crate) fn mark<L: Periodic>(w: &mut L, now: Time) -> Option<Mark> {
    let mut m = w.cycle().spare.pop().unwrap_or_default();
    if fill(w, now, &mut m).is_some() {
        return Some(m);
    }
    w.cycle().spare.push(m);
    None
}

fn fill<L: Periodic>(w: &mut L, now: Time, m: &mut Mark) -> Option<()> {
    m.clear();
    m.pairs = w.pairs();
    let trains = w.trains();
    let next_flow = w.parts().trials.next_flow();
    m.refs.extend([
        lg_packet::peek_next_uid(),
        now.as_ps(),
        w.udp_seq(),
        next_flow,
    ]);
    for i in 0..m.pairs {
        let (tx, rx, armed) = w.pair(i);
        let (tx_seq, rx_seq) = (tx.last_sent(), rx.latest_rx());
        m.shape
            .extend([tx_seq.wrapping_sub(rx_seq), u64::from(*armed)]);
        rx.forget_drained(now);
        if !rx.shape(now, &mut m.shape) || !trains && rx.is_draining(now) {
            return None;
        }
        tx.shape(now, &mut m.shape, &mut m.ids);
        m.refs.extend([tx_seq, rx_seq]);
        m.owners.resize(m.ids.len(), i);
    }
    m.ends[0] = m.shape.len();
    for s in 0..w.switches() {
        let sw = w.switch(s);
        for p in 0..sw.n_ports() {
            sw.port(p).shape(&mut m.shape, &mut m.ids);
            m.owners
                .resize(m.ids.len(), L::pair_at(s, p).min(m.pairs - 1));
        }
    }
    m.ends[1] = m.shape.len();
    let consumed = events(w, trains, m)?;
    m.ends[2] = m.shape.len();
    let p = w.parts();
    for h in p.hosts.iter() {
        h.shape(now, &mut m.shape, &mut m.instants);
    }
    m.ends[3] = m.shape.len();
    if !trains {
        // Count the frames already finished, so that no port holds a
        // past completion: what a port shapes is then what a later event
        // reads.
        port::settle_host_ports(w, Time(now.as_ps().saturating_sub(1)));
        for host in 0..2 {
            w.host_port(host).2.shape(now, &mut m.shape);
        }
    }
    m.ends[4] = m.shape.len();
    m.slots.extend(
        m.ids
            .iter()
            .zip(&m.owners)
            .map(|(id, &pair)| (id.index(), pair)),
    );
    m.slots.sort_unstable();
    m.slots.dedup();
    let mut drops = 0;
    for l in 0..w.directions() {
        let loss = w.direction(l).loss();
        m.refs.push(loss.frames());
        drops += loss.drops();
    }
    let p = w.parts();
    let (pool, fct) = (&*p.pool, p.fct.len() as u64);
    let held = pool.live() as u64 - consumed;
    if m.slots.len() as u64 != held {
        return None;
    }
    m.shape.push(held);
    m.shape
        .extend(m.ids.iter().map(|&id| u64::from(pool.refcount(id))));
    let refs = &m.refs;
    let to_relative = |i: usize| refs[i].wrapping_neg();
    m.pkts
        .extend(m.ids.iter().zip(&m.owners).map(|(&id, &pair)| {
            let mut p = pool.get(id).clone();
            shift(&mut p, to_relative, pair);
            p
        }));
    let traced = w.traces().map_or([0, 0], |(t, r)| [t.len(), r.len()]);
    m.done = [fct, traced[0] as u64, traced[1] as u64, drops];
    let scalars = &mut m.scalars;
    visit_scalars(w, &mut |x| scalars.push(*x));
    Some(())
}

/// The one event walk: each pending event, in filing order, gives its
/// kind and place to the shape, its frame to the ids, and its instant
/// with what a batch may do with it. A frame bound for a host that a
/// train computes is consumed instead, and the walk notes what the
/// train's admission reads ([`Feed`]): returns how many are consumed,
/// or `None` if a transport wake is pending (a finished trial retires
/// its own, so no trial start holds one; DESIGN.md §19).
fn events<L: Periodic>(w: &mut L, trains: bool, m: &mut Mark) -> Option<u64> {
    let last = m.pairs - 1;
    let host1_switch = w.switches() - 1;
    let port = |at: L::Port| {
        let (sw, port) = L::locate(at);
        ((sw * 2 + port) as u64, L::pair_at(sw, port).min(last))
    };
    let (mut consumed, mut woken) = (0, false);
    w.parts().q.for_each_pending(|at, ev| {
        let (place, hold) = match *ev {
            Ev::PortEnqueue { at, class, id } => {
                let (place, pair) = port(at);
                m.hold(id, pair);
                ([place, class as u64], Hold::Moves)
            }
            Ev::PortTxDone { at, id } | Ev::WireArrive { at, id } => {
                let (place, pair) = port(at);
                m.hold(id, pair);
                ([place, 0], Hold::Moves)
            }
            Ev::HostArrive { host, .. } if trains => {
                consumed += 1;
                if host == 1 {
                    m.feed.last = m.feed.last.max(Some(at));
                }
                return;
            }
            Ev::HostArrive { host, id } => {
                // A frame for a host carries no LinkGuardian header.
                m.hold(id, 0);
                ([host as u64, 0], Hold::Moves)
            }
            Ev::HostWake { .. } => {
                woken = true;
                return;
            }
            Ev::DummyRefresh { at } => ([port(at).0, 0], Hold::Moves),
            // A control event or a recovery's timer.
            _ => ([0, 0], Hold::Stays),
        };
        m.shape.extend([ev.kind_idx() as u64, place[0], place[1]]);
        m.instants.push((at, hold));
        if let Ev::WireArrive { at: port, id } = *ev {
            if trains && m.feed.next.is_none() && L::locate(port).0 == host1_switch {
                m.feed.next = Some((at, id));
            }
        }
    });
    m.pending = m.instants.len();
    (!woken).then_some(consumed)
}

/// Visit every counter and sequence field a period moves by a fixed
/// step.
fn visit_scalars<L: Periodic>(w: &mut L, f: &mut dyn FnMut(&mut u64)) {
    for i in 0..w.pairs() {
        let (tx, rx, _) = w.pair(i);
        tx.scalars(f);
        rx.scalars(f);
    }
    for s in 0..w.switches() {
        for p in 0..w.switch(s).n_ports() {
            if w.moves_counters(p) {
                w.switch(s).counters_mut(p).each_counter(f);
            }
        }
    }
    w.extras(f);
    if !w.trains() {
        let p = w.parts();
        for h in p.hosts.iter_mut() {
            h.counters().into_iter().for_each(&mut *f);
        }
        f(p.e2e_retx);
        f(&mut w.cycle().events);
    }
}

/// Move every scalar `k` steps of its change from `prev` to `cur`, the
/// scalars of two marks a period apart.
fn advance_scalars<L: Periodic>(w: &mut L, prev: &Mark, cur: &Mark, k: u64) {
    let mut i = 0;
    visit_scalars(w, &mut |x| {
        let step = cur.scalars[i].wrapping_sub(prev.scalars[i]);
        *x = x.wrapping_add(k.wrapping_mul(step));
        i += 1;
    });
}

/// Whether the world at `cur` repeats the one at `prev` a period later:
/// equal shapes and frames; at most one trial completed, with no frame
/// lost; and each instant either a period on (it moves) or, where its
/// rule allows, where it was (it is kept, as `kept` records in order).
/// Otherwise the first thing found to differ.
fn repeats(prev: &Mark, cur: &Mark, kept: &mut Vec<bool>) -> Result<(), Cause> {
    let (p, c) = (prev.refs[NOW], cur.refs[NOW]);
    let done: [u64; 4] = std::array::from_fn(|i| cur.done[i] - prev.done[i]);
    if done[0] > 1 || done[3] != 0 {
        return Err(Cause::Lost);
    }
    if prev.shape != cur.shape {
        let (a, b) = (&prev.shape, &cur.shape);
        let at = a.iter().zip(b).position(|(x, y)| x != y);
        let at = at.unwrap_or(a.len().min(b.len()));
        let section = (0..5).find(|&s| at < prev.ends[s].max(cur.ends[s]));
        return Err(section.map_or(Cause::Packets, Cause::Shape));
    }
    if prev.pkts != cur.pkts {
        return Err(Cause::Packets);
    }
    kept.clear();
    for (&(a, hold), &(b, _)) in prev.instants.iter().zip(&cur.instants) {
        let moves = b.as_ps().wrapping_sub(c) == a.as_ps().wrapping_sub(p);
        let stays = a == b
            && match hold {
                Hold::Moves => false,
                Hold::Stays => true,
                Hold::Lapsed => b.as_ps() <= c,
            };
        if !(moves && hold != Hold::Stays || stays) {
            return Err(if hold == Hold::Moves {
                Cause::Moved
            } else {
                Cause::Kept
            });
        }
        kept.push(stays);
    }
    Ok(())
}

/// The last batch's step: the two marks it was taken between, which of
/// their instants it kept, and what the marked period recorded.
struct Template {
    prev: Mark,
    cur: Mark,
    kept: Vec<bool>,
    /// The marked trial's FCT sample (µs), and its TCP and RDMA traces
    /// where the loop keeps them; none for a stress period.
    fct_us: Option<f64>,
    tcp: Option<FlowTrace>,
    rdma: Option<RdmaTrace>,
}

impl Template {
    /// `prev` repeats as `cur` a period later, keeping the instants
    /// `kept` says: the step, with the sample and traces the period
    /// between them recorded.
    fn new<L: Periodic>(w: &mut L, prev: Mark, cur: Mark, kept: Vec<bool>) -> Template {
        let recorded = |i: usize| cur.done[i] > prev.done[i];
        let fct_us = recorded(0).then(|| w.parts().fct.last_us());
        let (tcp, rdma) = match w.traces() {
            Some((tcp, rdma)) => (
                tcp.last().copied().filter(|_| recorded(1)),
                rdma.last().copied().filter(|_| recorded(2)),
            ),
            None => (None, None),
        };
        Template {
            prev,
            cur,
            kept,
            fct_us,
            tcp,
            rdma,
        }
    }

    /// Whether the world at `m`, a mark that did not repeat the one
    /// before, repeats this template's: a batch may then take its step.
    /// Equal shapes and frames; every instant the template moved at its
    /// offset into the period; and every one it kept where it kept it,
    /// or a deadline already past.
    fn resumes(&self, m: &Mark) -> bool {
        if (&self.cur.shape, &self.cur.pkts) != (&m.shape, &m.pkts) {
            return false;
        }
        let now = m.refs[NOW];
        let into = |at: Time, from: u64| at.as_ps().wrapping_sub(from);
        let pairs = self.cur.instants.iter().zip(&m.instants);
        pairs.zip(&self.kept).all(|((&(a, hold), &(b, _)), &kept)| {
            if !kept {
                return into(b, now) == into(a, self.cur.refs[NOW]);
            }
            b == a || hold == Hold::Lapsed && b.as_ps() <= now
        })
    }
}

/// How far [`period`] reached from a period's start.
pub(crate) struct Reach {
    /// Periods computed (0: none), and the instant the world is at
    /// afterwards.
    pub k: u64,
    pub end: Time,
    /// Whether the mark missed (refused, or repeating neither the mark
    /// before it nor the template) or a lost frame cut the batch short.
    pub missed: bool,
    /// Whole periods from the mark to the first kept instant or `until`
    /// (0 where no batch was sized).
    pub to_kept: u64,
}

/// A period's unit is due at `now` inside `run_until`: mark the world;
/// if it repeats the mark a period before, or else the last batch's
/// template, advance it by the whole periods that end before the next
/// lost frame, the first pending event kept in place and `until`, in one
/// step (DESIGN.md §23). A mark that does not repeat, and has no template
/// to resume, is what the next one compares with.
pub(crate) fn period<L: Periodic>(w: &mut L, now: Time) -> Reach {
    let until = w.cycle().until.expect("a period inside run_until");
    let none = |missed| Reach {
        k: 0,
        end: now,
        missed,
        to_kept: 0,
    };
    let marked = w.batches().then(|| mark(w, now)).flatten();
    let Some(cur) = marked else {
        let c = w.cycle();
        c.census.refused += 1;
        c.forget();
        return none(true);
    };
    let c = w.cycle();
    let mut kept = std::mem::take(&mut c.kept);
    let prev = c.mark.take();
    let repeat = prev.as_ref().map(|prev| repeats(prev, &cur, &mut kept));
    // The step the batch takes, and the world's own mark if that step is
    // the template's.
    let (t, own) = match (prev, repeat) {
        (Some(prev), Some(Ok(()))) => (Template::new(w, prev, cur, kept), None),
        (prev, repeat) => {
            c.kept = kept;
            c.spare.extend(prev);
            if let Some(Err(cause)) = repeat {
                c.census.unequal += 1;
                c.census.causes.count(cause);
            }
            match c.template.take() {
                Some(t) if t.resumes(&cur) => (t, Some(cur)),
                t => {
                    c.template = t;
                    c.mark = Some(cur);
                    return none(repeat.is_some());
                }
            }
        }
    };
    let reach = batch(w, &t, own.as_ref().unwrap_or(&t.cur), until);
    let c = w.cycle();
    match own {
        Some(own) if reach.k > 0 => {
            c.census.resumed += 1;
            c.template = Some(t);
            c.spare.push(own);
        }
        Some(own) => {
            c.template = Some(t);
            c.mark = Some(own);
        }
        None if reach.k > 0 => {
            if let Some(old) = c.template.replace(t) {
                c.spare.extend([old.prev, old.cur]);
                c.kept = old.kept;
            }
        }
        None => {
            c.spare.push(t.prev);
            c.mark = Some(t.cur);
            c.kept = t.kept;
        }
    }
    reach
}

/// A trial is due at `now`: inside `run_until`, compute the clean
/// trials from it (see [`period`]) and mark the world at the trial start
/// a batch ends on, which the next compares with. Returns the instant the
/// trial at hand starts at. Kept out of line: inlined into the
/// dispatcher, it grew it past what the run loop inlines, and every
/// event paid a call.
#[inline(never)]
pub(crate) fn trial_start<L: Periodic>(w: &mut L, now: Time) -> Time {
    if w.cycle().until.is_none() || !w.parts().trials.is_series() {
        return now;
    }
    w.cycle().census.trial_marks += 1;
    let Reach { k, end, .. } = period(w, now);
    if k > 0 {
        let c = &mut w.cycle().census;
        c.batches += 1;
        c.trials += k;
        let next = mark(w, end);
        w.cycle().mark = next;
    }
    end
}

/// The world at `at` repeats the template's marks: compute the periods
/// that follow, each a step of the template's, unless the loop refuses
/// them.
fn batch<L: Periodic>(w: &mut L, t: &Template, at: &Mark, until: Time) -> Reach {
    let (prev, cur) = (&t.prev, &t.cur);
    let step = steps(prev, cur, 1);
    let (now, period) = (Time(at.refs[NOW]), step(NOW));
    // Moved events must all land before a kept one: no tie to order.
    let (mut horizon, mut lead) = (Time::MAX, 0);
    for (&(at, _), &kept) in at.instants[..at.pending].iter().zip(&t.kept) {
        if kept {
            horizon = horizon.min(at);
        } else {
            lead = lead.max((at - now).as_ps());
        }
    }
    let before_kept = horizon.saturating_since(now).as_ps();
    let mut clear = (before_kept.saturating_sub(lead + 1) / period)
        .min(until.saturating_since(now).as_ps() / period);
    // The last trial runs as events, so the run ends on its clock.
    let left = u64::from(w.parts().trials.left().saturating_sub(1));
    clear = clear.min(left.checked_div(step(FLOW)).unwrap_or(u64::MAX));
    // Every frame of the periods must cross its link.
    let mut k = clear;
    for l in 0..w.directions() {
        let per = step(cur.frames(l));
        if per > 0 && k > 0 {
            k = k.min(w.direction(l).loss().clean_ahead(k * per) / per);
        }
    }
    let mut reach = Reach {
        k: 0,
        end: now,
        missed: k < clear,
        to_kept: horizon.min(until).saturating_since(now).as_ps() / period,
    };
    let trains = w.trains();
    if k == 0 || trains && !w.admit(now, k, Duration::from_ps(period), &at.feed) {
        return reach;
    }
    for l in 0..w.directions() {
        w.direction(l)
            .loss_mut()
            .skip_clean(k * step(cur.frames(l)));
    }
    let by = steps(prev, cur, k);
    let dt = Duration::from_ps(by(NOW));
    (reach.k, reach.end) = (k, now + dt);
    advance_scalars(w, prev, cur, k);
    lg_packet::skip_uids(by(UID));
    let mut consumed = std::mem::take(&mut w.cycle().consumed);
    let p = w.parts();
    p.trials
        .skip(u32::try_from(by(FLOW)).expect("fewer than the trials left"));
    let mut kept = t.kept.iter();
    p.q.translate(dt, |ev| match ev {
        Ev::HostArrive { host, id } if trains => {
            consumed.push((host, id));
            None
        }
        ev => Some((ev, !kept.next().expect("marked"))),
    });
    for h in p.hosts.iter_mut() {
        h.advance(dt, &mut kept);
    }
    // The frames a train computes all arrive inside the batch.
    for (host, id) in consumed.drain(..) {
        host::arrive(w, host, id, reach.end);
    }
    w.cycle().consumed = consumed;
    let p = w.parts();
    let mut slots = at.slots.iter();
    p.pool.for_each_indexed_mut(|slot, pkt| {
        let &(marked, pair) = slots.next().expect("every live packet marked");
        debug_assert_eq!(marked, slot, "a live packet the mark missed");
        shift(pkt, by, pair);
    });
    // Each trial records the marked one's sample and trace.
    if let Some(us) = t.fct_us {
        p.fct.repeat_us(us, k as usize);
    }
    if !trains {
        for host in 0..2 {
            w.host_port(host).2.advance(dt);
        }
    }
    for i in 0..w.pairs() {
        w.pair(i).0.advance(by(Mark::data(i)), dt);
    }
    if let Some((tcp, rdma)) = w.traces() {
        if let Some(f) = t.tcp {
            tcp.extend(std::iter::repeat_n(f, k as usize));
        }
        if let Some(r) = t.rdma {
            rdma.extend(std::iter::repeat_n(r, k as usize));
        }
    }
    if trains {
        w.land(prev, cur, k, reach.end);
    }
    reach
}
