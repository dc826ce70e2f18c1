//! The periodic-state seam of both testbed loops: the mark, the
//! comparison and the advance that compute the clean trials of a serial
//! trial series (DESIGN.md §23, "Computed trials"), and the [`Mark`] and
//! [`shift`] that [`crate::World`]'s stress stretch builds on.
//!
//! A loop lists what a trial moves through [`Periodic`]: its
//! LinkGuardian pairs, switches, link directions, host ports and extra
//! counters. Everything else — which instants a batch may keep, how `K`
//! is bounded, what a batch advances — is the same for every topology.

use lg_link::LinkDirection;
use lg_obs::trace::Level;
use lg_obs::Counters;
use lg_packet::{FlowId, Packet, Payload, PktId};
use lg_sim::{Duration, Time};
use lg_switch::{PortId, Switch};
use lg_transport::{FlowTrace, RdmaTrace};
use linkguardian::{LgReceiver, LgSender};

use crate::port::{self, Ev, PortLoop};

/// A testbed loop as a computed trial batch sees it: what a trial moves.
pub(crate) trait Periodic: PortLoop {
    /// The loop's marks, census and event count.
    fn cycle(&mut self) -> &mut Cycle;
    /// Whether a trial start may be marked at all, beyond the refusals
    /// every loop shares.
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
    /// Whether a period moves the counters of `port` (every port unless
    /// a stress period computes them otherwise).
    fn moves_counters(_port: PortId, _trial: bool) -> bool {
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
    /// Visit the loop's own counters a period, or if `trial` a trial,
    /// moves by a fixed step.
    fn extras(&mut self, _trial: bool, _f: &mut dyn FnMut(&mut u64)) {}
    /// The sequence the next stress datagram carries.
    fn udp_seq(&self) -> u64 {
        0
    }
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
    /// Batches that took the step of the last batch before them: their
    /// trial mark repeated that batch's, not the mark a trial before.
    pub resumed: u64,
    /// The unequal trial marks, by what first differed.
    pub causes: Causes,
}

/// The trial marks that did not repeat the one a trial before, by the
/// first thing found to differ, in the order the comparison looks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Causes {
    /// A link lost a frame between the two marks (or not exactly one
    /// trial completed).
    pub lost: u64,
    /// The shape of a LinkGuardian pair: sequences in flight, refresh
    /// flag, sender and receiver state.
    pub pair: u64,
    /// The shape of a switch port: queues, pause state, buffered frames.
    pub switch: u64,
    /// The pending events: their kinds and places.
    pub events: u64,
    /// The shape of a host: transports in place, pending wake, NIC.
    pub host: u64,
    /// The shape of a host-facing switch port.
    pub host_port: u64,
    /// The pool: live packets, their reference counts or contents.
    pub packets: u64,
    /// An instant a trial moves, not a trial on.
    pub moved: u64,
    /// An instant that may stay, neither where it was nor a trial on.
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
    /// The last batch's marks and what it repeated: a later trial mark
    /// that matches them batches with their step. Kept across `run_until`
    /// calls, since its step was measured inside one.
    template: Option<Template>,
    /// Which instants of a trial mark a batch keeps in place (a buffer).
    kept: Vec<bool>,
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
pub(crate) const UID: usize = 0;
pub(crate) const NOW: usize = 1;
const UDP: usize = 2;
const FLOW: usize = 3;

/// The world at a forward departure or at a trial start, made relative
/// to the instant, the sequences, the uid counter and the next flow id,
/// so two marks a period or a trial apart compare equal exactly when the
/// world repeats (DESIGN.md §23). A stress mark leaves host1's port and
/// arrivals out: that port drains a backlog at its own rate, so a
/// stretch computes it frame by frame.
#[derive(Default)]
pub(crate) struct Mark {
    /// Everything compared that is not a packet.
    pub shape: Vec<u64>,
    /// Where a trial mark's shape of the pairs, the switches, the
    /// pending events, the hosts and the host-facing ports ends (the
    /// pool's follows).
    ends: [usize; 5],
    pkts: Vec<Packet>,
    /// The frames `pkts` normalizes (a buffer, not compared), and the
    /// pair whose sequences each carries.
    ids: Vec<PktId>,
    owners: Vec<usize>,
    /// A trial mark's live pool slots in index order, each with its pair.
    slots: Vec<(u32, usize)>,
    /// The loop's scalars, in visiting order.
    scalars: Vec<u64>,
    /// What [`shift`] moves packets by (see [`UID`]).
    refs: Vec<u64>,
    pairs: usize,
    /// A trial mark's instants, which a batch moves or keeps in place:
    /// the first `pending` are the pending events in filing order, then
    /// each host's.
    instants: Vec<(Time, Hold)>,
    pending: usize,
    /// FCT samples, TCP and RDMA traces recorded, and frames the links
    /// lost, so far.
    done: [u64; 4],
    /// The first pending event a stretch keeps in place, the latest one
    /// it moves falls, and the last pending host1 arrival.
    pub horizon: Time,
    pub lead: Duration,
    pub host_last: Time,
    /// The next frame to reach the receiver switch, and when (its
    /// receiver files link arrivals in time order).
    pub next_rx: Option<(Time, PktId)>,
}

impl Mark {
    /// The reference of pair `pair`'s sender sequence.
    pub fn data(pair: usize) -> usize {
        FLOW + 1 + 2 * pair
    }

    /// The reference of pair `pair`'s receiver sequence.
    fn ack(pair: usize) -> usize {
        Mark::data(pair) + 1
    }

    /// The reference of link direction `label`'s frame count.
    pub fn frames(&self, label: usize) -> usize {
        Mark::data(self.pairs) + label
    }

    /// Empty every buffer for a new mark, keeping its capacity.
    fn clear(&mut self) {
        self.shape.clear();
        self.pkts.clear();
        self.ids.clear();
        self.owners.clear();
        self.scalars.clear();
        self.refs.clear();
        self.instants.clear();
    }

    /// Hold frame `id`, whose LinkGuardian sequences are pair `pair`'s.
    pub fn hold(&mut self, id: PktId, pair: usize) {
        self.ids.push(id);
        self.owners.push(pair);
    }

    /// Equal shapes and normalized frames.
    pub fn same(&self, other: &Mark) -> bool {
        (&self.shape, &self.pkts) == (&other.shape, &other.pkts)
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

/// Whether a batch of trials moves an instant of its mark with the
/// clock or keeps it in place: whichever the mark a trial earlier
/// shows, where a rule allows both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    /// Repeats a trial later.
    Moves,
    /// Stays where it is: a control event, never part of a trial.
    Stays,
    /// Either: a transport wake an earlier trial may have armed.
    Either,
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

/// The world as [`Mark`] compares it at `now`, a forward departure or, if
/// `trial`, a trial start before the trial's event runs; `events` marks
/// the pending events (and whatever else the kind of mark holds) and
/// returns how many live packets it leaves out. `None` while a recovery
/// is under way, and for a trial also while a receiver still drains.
pub(crate) fn mark<L: Periodic>(
    w: &mut L,
    now: Time,
    trial: bool,
    events: impl FnOnce(&mut L, &mut Mark) -> Option<u64>,
) -> Option<Mark> {
    let mut m = w.cycle().spare.pop().unwrap_or_default();
    if fill(w, now, trial, &mut m, events).is_some() {
        return Some(m);
    }
    w.cycle().spare.push(m);
    None
}

fn fill<L: Periodic>(
    w: &mut L,
    now: Time,
    trial: bool,
    m: &mut Mark,
    events: impl FnOnce(&mut L, &mut Mark) -> Option<u64>,
) -> Option<()> {
    m.clear();
    m.pairs = w.pairs();
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
        if !rx.shape(now, &mut m.shape) || trial && rx.is_draining(now) {
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
    let hosted = events(w, m)?;
    let mut drops = 0;
    for l in 0..w.directions() {
        let loss = w.direction(l).loss();
        m.refs.push(loss.frames());
        drops += loss.drops();
    }
    let p = w.parts();
    let (pool, fct) = (&*p.pool, p.fct.len() as u64);
    m.shape.push(pool.live() as u64 - hosted);
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
    visit_scalars(w, trial, &mut |x| scalars.push(*x));
    Some(())
}

/// Visit every counter and sequence field a stress period, or if `trial`
/// a trial, moves by a fixed step.
fn visit_scalars<L: Periodic>(w: &mut L, trial: bool, f: &mut dyn FnMut(&mut u64)) {
    for i in 0..w.pairs() {
        let (tx, rx, _) = w.pair(i);
        tx.scalars(f);
        rx.scalars(f);
    }
    for s in 0..w.switches() {
        let sw = w.switch(s);
        for p in (0..sw.n_ports()).filter(|&p| L::moves_counters(p, trial)) {
            sw.counters_mut(p).each_counter(f);
        }
    }
    w.extras(trial, f);
    if trial {
        let p = w.parts();
        for h in p.hosts.iter_mut() {
            h.counters().into_iter().for_each(&mut *f);
        }
        f(p.e2e_retx);
        f(&mut w.cycle().events);
    }
}

/// Move every scalar `k` steps of its change from `prev` to `cur`, the
/// scalars of two marks a period or a trial apart.
pub(crate) fn advance_scalars<L: Periodic>(
    w: &mut L,
    trial: bool,
    prev: &Mark,
    cur: &Mark,
    k: u64,
) {
    let mut i = 0;
    visit_scalars(w, trial, &mut |x| {
        let step = cur.scalars[i].wrapping_sub(prev.scalars[i]);
        *x = x.wrapping_add(k.wrapping_mul(step));
        i += 1;
    });
}

/// A trial mark's pending events, in filing order: kind and place into
/// its shape, frames into its ids, and each instant with what a batch
/// may do with it; then each host and host port, and the live pool
/// slots. `None` if a receiver timer or a pause is pending (they belong
/// to a recovery), or if a live packet is held where the mark does not
/// look.
fn trial_events<L: Periodic>(w: &mut L, now: Time, m: &mut Mark) -> Option<u64> {
    let mut recovering = false;
    let last = m.pairs - 1;
    let port = |at: L::Port| {
        let (sw, port) = L::locate(at);
        ((sw * 2 + port) as u64, L::pair_at(sw, port).min(last))
    };
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
            Ev::HostArrive { host, id } => {
                // A frame for a host carries no LinkGuardian header.
                m.hold(id, 0);
                ([host as u64, 0], Hold::Moves)
            }
            Ev::HostWake { host } => ([host as u64, 0], Hold::Either),
            Ev::DummyRefresh { at } => ([port(at).0, 0], Hold::Moves),
            Ev::ActivateLg | Ev::SetLoss(_) | Ev::Sample | Ev::TrialStart => ([0, 0], Hold::Stays),
            Ev::LgTimeout { .. } | Ev::LgBpTimer { .. } | Ev::PauseApply { .. } => {
                recovering = true;
                ([0, 0], Hold::Stays)
            }
        };
        m.shape.extend([ev.kind_idx() as u64, place[0], place[1]]);
        m.instants.push((at, hold));
    });
    if recovering {
        return None;
    }
    m.pending = m.instants.len();
    m.ends[2] = m.shape.len();
    let p = w.parts();
    for h in p.hosts.iter() {
        h.shape(now, &mut m.shape, &mut m.instants);
    }
    m.ends[3] = m.shape.len();
    let live = p.pool.live();
    // Count the frames already finished, so that no port holds a past
    // completion: what a port shapes is then what a later event reads.
    port::settle_host_ports(w, Time(now.as_ps().saturating_sub(1)));
    for host in 0..2 {
        w.host_port(host).2.shape(now, &mut m.shape);
    }
    m.ends[4] = m.shape.len();
    m.slots.clear();
    m.slots.extend(
        m.ids
            .iter()
            .zip(&m.owners)
            .map(|(id, &pair)| (id.index(), pair)),
    );
    m.slots.sort_unstable();
    m.slots.dedup();
    (m.slots.len() == live).then_some(0)
}

/// Whether the world at `cur` repeats the one at `prev` a trial later:
/// equal shapes and frames; one trial completed, with no frame lost;
/// and each instant either a trial on (it moves) or, where its rule
/// allows, where it was (it is kept, as `kept` records in order).
/// Otherwise the first thing found to differ.
fn repeats(prev: &Mark, cur: &Mark, kept: &mut Vec<bool>) -> Result<(), Cause> {
    let (p, c) = (prev.refs[NOW], cur.refs[NOW]);
    let done: [u64; 4] = std::array::from_fn(|i| cur.done[i] - prev.done[i]);
    if done[0] != 1 || done[3] != 0 {
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
                Hold::Stays | Hold::Either => true,
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

/// The last batch's step: the two trial marks it was taken between,
/// which of their instants it kept, and what the marked trial recorded.
struct Template {
    prev: Mark,
    cur: Mark,
    kept: Vec<bool>,
    /// The marked trial's FCT sample (µs), and its TCP and RDMA traces
    /// where the loop keeps them.
    fct_us: f64,
    tcp: Option<FlowTrace>,
    rdma: Option<RdmaTrace>,
}

impl Template {
    /// `prev` repeats as `cur` a trial later, keeping the instants
    /// `kept` says: the step, with the sample and traces the trial
    /// between them recorded.
    fn new<L: Periodic>(w: &mut L, prev: Mark, cur: Mark, kept: Vec<bool>) -> Template {
        let fct_us = w.parts().fct.last_us();
        let traced = |i: usize| cur.done[i] > prev.done[i];
        let (tcp, rdma) = match w.traces() {
            Some((tcp, rdma)) => (
                tcp.last().copied().filter(|_| traced(1)),
                rdma.last().copied().filter(|_| traced(2)),
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

    /// Whether the world at `m`, a trial start that did not repeat the
    /// one before, repeats this template's: a batch may then take its
    /// step. Equal shapes and frames; every instant the template moved
    /// at its offset into the trial; and every one it kept where it kept
    /// it, or a deadline already past, or a wake no later into the trial
    /// than the template's marked trial found its own. That trial filed
    /// no request before its wake, and each later trial repeats its
    /// requests at the same offsets, so none files one before `m`'s.
    fn resumes(&self, m: &Mark) -> bool {
        if !self.cur.same(m) {
            return false;
        }
        let (start, now) = (self.prev.refs[NOW], m.refs[NOW]);
        let into = |at: Time, from: u64| at.as_ps().wrapping_sub(from);
        let pairs = self.cur.instants.iter().zip(&m.instants);
        pairs.zip(&self.kept).all(|((&(a, hold), &(b, _)), &kept)| {
            if !kept {
                return into(b, now) == into(a, self.cur.refs[NOW]);
            }
            b == a
                || match hold {
                    Hold::Lapsed => b.as_ps() <= now,
                    Hold::Either => into(b, now) <= into(a, start),
                    Hold::Moves | Hold::Stays => false,
                }
        })
    }
}

/// A trial is due at `now`: inside `run_until`, mark the world before it
/// starts; if it repeats the mark of the trial start before, or else the
/// last batch's template, advance it by the whole trials that end before
/// the next lost frame, the first pending event kept in place and
/// `until`, in one step, leaving the last trial to the event path
/// (DESIGN.md §23). Returns the instant the trial at hand starts at. The
/// mark is refused while a trace is on: a batch runs no handler, so it
/// would leave control-level rows out.
pub(crate) fn trial_start<L: Periodic>(w: &mut L, now: Time) -> Time {
    let Some(until) = w.cycle().until else {
        return now;
    };
    if !w.parts().trials.is_series() {
        return now;
    }
    w.cycle().census.trial_marks += 1;
    let marked = (w.batches() && !lg_obs::trace::enabled(Level::Ctl))
        .then(|| mark(w, now, true, |w, m| trial_events(w, now, m)))
        .flatten();
    let Some(cur) = marked else {
        let c = w.cycle();
        c.census.refused += 1;
        c.forget();
        return now;
    };
    let c = w.cycle();
    let mut kept = std::mem::take(&mut c.kept);
    let prev = c.mark.take();
    let repeat = prev.as_ref().map(|prev| repeats(prev, &cur, &mut kept));
    let start = match (prev, repeat) {
        (Some(prev), Some(Ok(()))) => {
            let t = Template::new(w, prev, cur, kept);
            match batch(w, &t, &t.cur, until) {
                Some(start) => {
                    let c = w.cycle();
                    if let Some(old) = c.template.replace(t) {
                        c.spare.extend([old.prev, old.cur]);
                        c.kept = old.kept;
                    }
                    start
                }
                None => {
                    let c = w.cycle();
                    c.spare.push(t.prev);
                    c.mark = Some(t.cur);
                    c.kept = t.kept;
                    return now;
                }
            }
        }
        (prev, repeat) => {
            let c = w.cycle();
            c.kept = kept;
            c.spare.extend(prev);
            if let Some(Err(cause)) = repeat {
                c.census.unequal += 1;
                c.census.causes.count(cause);
            }
            let t = c.template.take();
            let resumed = t.as_ref().filter(|t| t.resumes(&cur));
            let start = resumed.and_then(|t| batch(w, t, &cur, until));
            let c = w.cycle();
            c.template = t;
            let Some(start) = start else {
                c.mark = Some(cur);
                return now;
            };
            c.census.resumed += 1;
            c.spare.push(cur);
            start
        }
    };
    // The world at the trial start the batch ends on: what the next
    // trial start compares with.
    let next = mark(w, start, true, |w, m| trial_events(w, start, m));
    w.cycle().mark = next;
    start
}

/// The world at `at` repeats the template's marks: compute the trials
/// that follow, each a step of the template's, and return the instant
/// the first trial not computed starts at, or `None` if none is.
fn batch<L: Periodic>(w: &mut L, t: &Template, at: &Mark, until: Time) -> Option<Time> {
    let (prev, cur) = (&t.prev, &t.cur);
    let step = steps(prev, cur, 1);
    let (now, trial) = (Time(at.refs[NOW]), step(NOW));
    // The last trial runs as events, so the run ends on its clock.
    let mut k = u64::from(w.parts().trials.left().saturating_sub(1));
    k = k.min(until.saturating_since(now).as_ps() / trial);
    // Moved events must all land before a kept one: no tie to order.
    let (mut horizon, mut lead) = (Time::MAX, 0);
    for (&(at, _), &kept) in at.instants[..at.pending].iter().zip(&t.kept) {
        if kept {
            horizon = horizon.min(at);
        } else {
            lead = lead.max((at - now).as_ps());
        }
    }
    let before_kept = horizon
        .saturating_since(now)
        .as_ps()
        .saturating_sub(lead + 1);
    k = k.min(before_kept / trial);
    // Every frame of the `k` trials must cross its link.
    for l in 0..w.directions() {
        let per = step(cur.frames(l));
        if per > 0 && k > 0 {
            k = k.min(w.direction(l).loss().clone().skip_clean(k * per) / per);
        }
    }
    if k == 0 {
        return None;
    }
    let c = &mut w.cycle().census;
    c.batches += 1;
    c.trials += k;
    for l in 0..w.directions() {
        w.direction(l)
            .loss_mut()
            .skip_clean(k * step(cur.frames(l)));
    }
    let by = steps(prev, cur, k);
    let dt = Duration::from_ps(by(NOW));
    advance_scalars(w, true, prev, cur, k);
    lg_packet::skip_uids(by(UID));
    let p = w.parts();
    p.trials
        .skip(u32::try_from(k).expect("fewer than the trials left"));
    let mut kept = t.kept.iter();
    p.q.translate(dt, |ev| Some((ev, !kept.next().expect("marked"))));
    for h in p.hosts.iter_mut() {
        h.advance(dt, &mut kept);
    }
    let mut slots = at.slots.iter();
    p.pool.for_each_indexed_mut(|slot, pkt| {
        let &(marked, pair) = slots.next().expect("every live packet marked");
        debug_assert_eq!(marked, slot, "a live packet the mark missed");
        shift(pkt, by, pair);
    });
    // Each trial records the marked one's sample and trace.
    p.fct.repeat_us(t.fct_us, k as usize);
    for host in 0..2 {
        w.host_port(host).2.advance(dt);
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
    Some(now + dt)
}
