//! The SPMD world: ranks, mailboxes, point-to-point messages and
//! collectives — plus the reliable transport that recovers injected
//! message faults (see [`crate::fault`]).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::fault::{Action, ChannelRng, FaultSpec};
use crate::metrics::TransportMetrics;

/// Message tag (as in MPI, distinguishes concurrent exchanges).
pub type Tag = u32;

/// First tag of the band reserved for collectives; fault injection
/// never touches these.
const RESERVED_TAG_FLOOR: Tag = u32::MAX - 7;

/// Polls of its inbox a plain-world [`Rank::recv`] makes before it blocks:
/// parpool's spin budget. With a `try_recv` and a `spin_loop` hint each,
/// the budget measures ≈105 µs on an empty inbox (median of 200 timed
/// budgets, idle 2-vCPU Xeon VM). A blocked receive sleeps on a futex, and
/// on that VM waking it costs more than the sender's work between small
/// messages traded back to back (the streamed carries of a reduction).
const SPIN_ITERS: u32 = 4096;

#[derive(Clone)]
enum MsgKind {
    /// Ordinary payload, carrying its per-channel sequence number and
    /// an end-to-end payload checksum stamped at send time.
    Data { seq: u64, sum: u64 },
    /// Control: "my next expected sequence from you is `expected` —
    /// retransmit from there". Bypasses injection and sequencing.
    Nack { expected: u64 },
    /// Control: cumulative acknowledgement — "I have accepted every
    /// sequence below `upto` from you; prune your retransmit history".
    /// Bypasses injection and sequencing, and is idempotent: duplicate
    /// or stale acks are ignored.
    Ack { upto: u64 },
}

/// FNV-1a over the payload's `f64` bit patterns: the per-message
/// checksum every data envelope carries. Stamped once at send time
/// (the retransmit history keeps the clean payload, so a re-sent copy
/// carries the original sum) and verified before sequencing on
/// receive.
fn checksum(payload: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in payload {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Why an arriving data envelope was rejected before it reached the
/// in-order acceptance path — the typed corruption/sequencing errors
/// that feed the NACK/retry machinery instead of surfacing a wrong
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFault {
    /// The payload checksum did not match the envelope's stamp: the
    /// message was corrupted in flight. Rejected without advancing the
    /// channel, so the receiver starves and NACKs the clean copy back
    /// out of the sender's history.
    ChecksumMismatch { expected: u64, got: u64 },
    /// A duplicate of an already-accepted sequence number.
    Stale { seq: u64 },
    /// An early (out-of-order) arrival, stashed until its turn.
    Early { seq: u64 },
}

/// Classify one arriving data envelope against the channel's expected
/// sequence. `Ok(())` means "accept now".
fn classify_data(payload: &[f64], seq: u64, sum: u64, expected: u64) -> Result<(), DataFault> {
    let got = checksum(payload);
    if got != sum {
        return Err(DataFault::ChecksumMismatch { expected: sum, got });
    }
    if seq < expected {
        return Err(DataFault::Stale { seq });
    }
    if seq > expected {
        return Err(DataFault::Early { seq });
    }
    Ok(())
}

#[derive(Clone)]
struct Message {
    from: usize,
    tag: Tag,
    payload: Vec<f64>,
    kind: MsgKind,
}

/// Structured description of a fault-injected run that could not make
/// progress: which rank gave up, what it was waiting for, and where the
/// channel stream had stalled. The loud-failure half of the transport's
/// "bit-identical or loud, never silently wrong" contract.
#[derive(Debug, Clone)]
pub struct FaultDiagnostic {
    /// Rank that aborted.
    pub rank: usize,
    /// Peer the aborting receive was addressed to.
    pub waiting_on: usize,
    /// Tag the aborting receive was addressed to.
    pub tag: Tag,
    /// Next sequence number the rank still expected from that peer.
    pub expected_seq: u64,
    /// How long the receive waited before giving up.
    pub waited: Duration,
    /// Human-readable cause.
    pub note: String,
}

impl std::fmt::Display for FaultDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} gave up after {:?} waiting for (rank {}, tag {}) at seq {}: {}",
            self.rank, self.waited, self.waiting_on, self.tag, self.expected_seq, self.note
        )
    }
}

impl std::error::Error for FaultDiagnostic {}

/// Per-rank reliable-transport state (go-back-N over the faulty links).
///
/// Senders number every data message per destination channel and keep
/// the full send history; receivers accept each channel strictly in
/// sequence order, stashing early arrivals and discarding duplicates,
/// so the accepted stream is exactly the sent stream — which is what
/// makes a recovered faulty run bit-identical to a clean one. A receive
/// that stays quiet too long NACKs the sender it is starving on
/// (triggering a history retransmit) and, past the deadline, aborts
/// with a [`FaultDiagnostic`].
struct Transport {
    spec: FaultSpec,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Everything sent, per destination, for NACK retransmission.
    history: Vec<Vec<(u64, Tag, Vec<f64>)>>,
    /// Messages held back by reorder/delay faults, per destination,
    /// with the number of subsequent sends they stay held behind.
    held: Vec<Vec<(u32, Message)>>,
    /// Per-destination fault decision stream.
    rng: Vec<ChannelRng>,
    /// Next sequence number to accept, per source.
    expected: Vec<u64>,
    /// Early (out-of-order) arrivals, per source, keyed by sequence.
    stash: Vec<HashMap<u64, Message>>,
    /// Highest cumulative ack received per destination (history below
    /// this is pruned and can never be re-requested).
    acked_in: Vec<u64>,
    /// Messages accepted per source since the last ack we sent it.
    since_ack: Vec<u64>,
    /// Total data sends this rank has issued (drives [`KillSpec`]).
    sent_total: u64,
    /// Running tally of sends, faults and recovery traffic.
    metrics: TransportMetrics,
}

impl Transport {
    fn new(spec: FaultSpec, id: usize, size: usize) -> Self {
        Transport {
            spec,
            next_seq: vec![0; size],
            history: vec![Vec::new(); size],
            held: vec![Vec::new(); size],
            rng: (0..size)
                .map(|to| ChannelRng::new(spec.seed, id, to))
                .collect(),
            expected: vec![0; size],
            stash: vec![HashMap::new(); size],
            acked_in: vec![0; size],
            since_ack: vec![0; size],
            sent_total: 0,
            metrics: TransportMetrics::default(),
        }
    }

    /// Apply a cumulative ack from `peer`: prune the retransmit history
    /// below `upto`. Stale or duplicate acks (control traffic may race)
    /// are no-ops, so ack application is idempotent. Safe against the
    /// NACK path because a peer only acks what it has *accepted*, and
    /// only ever NACKs from its `expected` — which is ≥ every acked
    /// sequence, so pruned entries can never be re-requested.
    fn handle_ack(&mut self, peer: usize, upto: u64) -> bool {
        if upto <= self.acked_in[peer] {
            return false;
        }
        self.acked_in[peer] = upto;
        self.history[peer].retain(|(seq, _, _)| *seq >= upto);
        true
    }
}

/// One rank's handle on the world: its identity, every peer's mailbox,
/// and its own inbox.
pub struct Rank {
    id: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    inbox: Receiver<Message>,
    /// Out-of-order messages parked until a matching `recv`.
    parked: std::cell::RefCell<VecDeque<Message>>,
    /// Reliable-transport state; `None` in a fault-free world.
    transport: Option<RefCell<Transport>>,
    /// Whether [`Rank::recv`] spins before it blocks: only in a plain
    /// world with no more ranks than the host has hardware threads, so a
    /// spinning rank never holds the core its sender needs.
    spin: bool,
}

impl Rank {
    /// This rank's id (`MPI_Comm_rank`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of this rank's transport counters; `None` in a
    /// fault-free world (no transport, nothing to count).
    pub fn transport_metrics(&self) -> Option<TransportMetrics> {
        self.transport.as_ref().map(|cell| cell.borrow().metrics)
    }

    /// Blocking send of `payload` to rank `to` with `tag` (`MPI_Send`;
    /// buffered, so it never deadlocks against a matching exchange). In a
    /// faulty world the message passes through the injector and the
    /// reliable transport.
    pub fn send(&self, to: usize, tag: Tag, payload: Vec<f64>) {
        assert!(to < self.size, "rank {to} out of range");
        match &self.transport {
            None => {
                let sum = checksum(&payload);
                self.senders[to]
                    .send(Message {
                        from: self.id,
                        tag,
                        payload,
                        kind: MsgKind::Data { seq: 0, sum },
                    })
                    .expect("receiving rank has hung up");
            }
            Some(cell) => {
                let mut deliver_now: Vec<Message> = Vec::new();
                let mut hold: Option<(u32, Message)> = None;
                {
                    let mut t = cell.borrow_mut();
                    if let Some(kill) = t.spec.kill_rank {
                        if kill.rank == self.id && t.sent_total >= kill.after_sends {
                            // Injected node loss: this rank dies right
                            // here, deterministically placed in its own
                            // send schedule. Peers starve, time out, and
                            // surface their own diagnostics.
                            std::panic::panic_any(FaultDiagnostic {
                                rank: self.id,
                                waiting_on: to,
                                tag,
                                expected_seq: t.next_seq[to],
                                waited: Duration::ZERO,
                                note: format!(
                                    "rank {} lost (injected kill after {} sends)",
                                    self.id, kill.after_sends
                                ),
                            });
                        }
                    }
                    let sent_before = t.sent_total;
                    t.sent_total += 1;
                    t.metrics.sends += 1;
                    let seq = t.next_seq[to];
                    t.next_seq[to] += 1;
                    t.history[to].push((seq, tag, payload.clone()));
                    let sum = checksum(&payload);
                    let msg = Message {
                        from: self.id,
                        tag,
                        payload,
                        kind: MsgKind::Data { seq, sum },
                    };
                    let partitioned = tag < RESERVED_TAG_FLOOR
                        && t.spec
                            .partition
                            .is_some_and(|p| p.blocks(self.id, to, sent_before));
                    if partitioned {
                        // The link to/from the isolated rank is down for
                        // this window: swallow the first transmission.
                        // The receiver's NACK path re-fetches it from
                        // history once the window closes.
                        t.metrics.partition_drops += 1;
                    } else {
                        let action = if tag >= RESERVED_TAG_FLOOR || t.spec.is_clean() {
                            Action::Deliver
                        } else {
                            let spec = t.spec;
                            t.rng[to].decide(&spec)
                        };
                        match action {
                            Action::Deliver => deliver_now.push(msg),
                            Action::Drop => t.metrics.dropped += 1, // the receiver's NACK recovers it
                            Action::Duplicate => {
                                t.metrics.duplicated += 1;
                                deliver_now.push(msg.clone());
                                deliver_now.push(msg);
                            }
                            Action::Reorder => {
                                t.metrics.reordered += 1;
                                hold = Some((1, msg));
                            }
                            Action::Delay => {
                                t.metrics.delayed += 1;
                                hold = Some((2, msg));
                            }
                            Action::Corrupt => {
                                let mut bad = msg;
                                if bad.payload.is_empty() {
                                    deliver_now.push(bad); // nothing to flip
                                } else {
                                    let draw = t.rng[to].draw();
                                    let elem = (draw as usize) % bad.payload.len();
                                    let bit = (draw >> 32) % 64;
                                    bad.payload[elem] =
                                        f64::from_bits(bad.payload[elem].to_bits() ^ (1u64 << bit));
                                    t.metrics.corrupted += 1;
                                    deliver_now.push(bad);
                                }
                            }
                        }
                    }
                    // Age messages held behind earlier sends; the due ones
                    // go out *after* this send's own message (that is the
                    // reorder). New holds are registered after aging so a
                    // reorder survives at least one subsequent send.
                    let held = &mut t.held[to];
                    for h in held.iter_mut() {
                        h.0 -= 1;
                    }
                    let mut i = 0;
                    while i < held.len() {
                        if held[i].0 == 0 {
                            deliver_now.push(held.remove(i).1);
                        } else {
                            i += 1;
                        }
                    }
                    if let Some(h) = hold {
                        t.held[to].push(h);
                    }
                }
                for m in deliver_now {
                    self.deliver(to, m);
                }
            }
        }
    }

    /// Physically hand a message to `to`'s inbox. In a faulty world the
    /// peer may already have finished; such sends are quietly lost and
    /// either recovered (NACK) or diagnosed (deadline) by the receiver.
    fn deliver(&self, to: usize, msg: Message) {
        if self.transport.is_some() {
            let _ = self.senders[to].send(msg);
        } else {
            self.senders[to]
                .send(msg)
                .expect("receiving rank has hung up");
        }
    }

    /// Blocking receive of the next message from `from` with `tag`
    /// (`MPI_Recv`). Messages from other (from, tag) pairs arriving in the
    /// meantime are parked, preserving per-sender ordering. In a plain
    /// world of no more ranks than the host's hardware threads, each wait
    /// for the inbox polls it 4096 times (`SPIN_ITERS`) before it blocks.
    pub fn recv(&self, from: usize, tag: Tag) -> Vec<f64> {
        if self.transport.is_some() {
            return self.recv_reliable(from, tag);
        }
        // first scan parked messages
        {
            let mut parked = self.parked.borrow_mut();
            if let Some(pos) = parked.iter().position(|m| m.from == from && m.tag == tag) {
                return parked.remove(pos).expect("position just found").payload;
            }
        }
        loop {
            let msg = self.next_message();
            if msg.from == from && msg.tag == tag {
                return msg.payload;
            }
            self.parked.borrow_mut().push_back(msg);
        }
    }

    /// The next message in the plain-world inbox: polled for the spin
    /// budget when `spin` allows, then waited for.
    fn next_message(&self) -> Message {
        if self.spin {
            for _ in 0..SPIN_ITERS {
                if let Some(msg) = self.inbox.try_recv() {
                    return msg;
                }
                std::hint::spin_loop();
            }
        }
        self.inbox.recv().expect("world torn down while receiving")
    }

    /// Fault-tolerant receive: accept each source channel strictly in
    /// sequence order (stashing early arrivals, discarding duplicates),
    /// answer NACKs from starving peers, apply and emit cumulative acks,
    /// NACK the peer *we* are starving on after each (exponentially
    /// backed-off) quiet period, and abort with a [`FaultDiagnostic`]
    /// once the deadline passes or the retry cap is reached.
    fn recv_reliable(&self, from: usize, tag: Tag) -> Vec<f64> {
        let cell = self
            .transport
            .as_ref()
            .expect("reliable recv needs transport");
        let spec = cell.borrow().spec;
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            // Anything already accepted and parked?
            {
                let mut parked = self.parked.borrow_mut();
                if let Some(pos) = parked.iter().position(|m| m.from == from && m.tag == tag) {
                    return parked.remove(pos).expect("position just found").payload;
                }
            }
            match self.inbox.recv_timeout(spec.backoff_schedule(attempt)) {
                Ok(msg) => match msg.kind {
                    MsgKind::Nack { expected } => {
                        cell.borrow_mut().metrics.nacks_received += 1;
                        self.retransmit(msg.from, expected);
                    }
                    MsgKind::Ack { upto } => {
                        let mut t = cell.borrow_mut();
                        t.metrics.acks_received += 1;
                        t.handle_ack(msg.from, upto);
                    }
                    MsgKind::Data { seq, sum } => {
                        // Verify, then accept in order; stash the
                        // future; drop the past; reject the corrupt.
                        let src = msg.from;
                        let mut accepted: Vec<Message> = Vec::new();
                        let mut ack_due: Option<u64> = None;
                        {
                            let mut t = cell.borrow_mut();
                            match classify_data(&msg.payload, seq, sum, t.expected[src]) {
                                Err(DataFault::ChecksumMismatch { .. }) => {
                                    // Corrupted in flight: never let it
                                    // near the solver. The channel does
                                    // not advance, so the starved
                                    // receive NACKs the clean copy back
                                    // out of the sender's history.
                                    t.metrics.checksum_rejects += 1;
                                    continue;
                                }
                                Err(DataFault::Stale { .. }) => {
                                    t.metrics.dup_discards += 1;
                                    continue; // duplicate of an accepted message
                                }
                                Err(DataFault::Early { .. }) => {
                                    t.metrics.stashed += 1;
                                    t.stash[src].insert(seq, msg);
                                    continue;
                                }
                                Ok(()) => {}
                            }
                            t.expected[src] += 1;
                            accepted.push(msg);
                            while let Some(next) = {
                                let e = t.expected[src];
                                t.stash[src].remove(&e)
                            } {
                                t.expected[src] += 1;
                                accepted.push(next);
                            }
                            // Cumulative ack every `ack_interval` accepted
                            // messages, so the sender can prune history.
                            if t.spec.ack_interval > 0 {
                                t.since_ack[src] += accepted.len() as u64;
                                if t.since_ack[src] >= t.spec.ack_interval {
                                    t.since_ack[src] = 0;
                                    ack_due = Some(t.expected[src]);
                                }
                            }
                        }
                        if let Some(upto) = ack_due {
                            cell.borrow_mut().metrics.acks_sent += 1;
                            self.deliver(
                                src,
                                Message {
                                    from: self.id,
                                    tag: 0,
                                    payload: Vec::new(),
                                    kind: MsgKind::Ack { upto },
                                },
                            );
                        }
                        let mut hit = None;
                        {
                            let mut parked = self.parked.borrow_mut();
                            for m in accepted {
                                if hit.is_none() && m.from == from && m.tag == tag {
                                    hit = Some(m.payload);
                                } else {
                                    parked.push_back(m);
                                }
                            }
                        }
                        if let Some(payload) = hit {
                            return payload;
                        }
                    }
                },
                Err(RecvTimeoutError::Timeout) => {
                    let expected_seq = {
                        let mut t = cell.borrow_mut();
                        t.metrics.backoff_waits += 1;
                        t.expected[from]
                    };
                    // Straggler self-repair: while this rank starves,
                    // any sends it is still holding back (reorder/delay
                    // injection) are overdue for its peers too — re-post
                    // them now, before a starving peer burns through its
                    // own deadline and declares this rank dead. Receiver
                    // sequencing restores order, so flushing early never
                    // perturbs the accepted stream.
                    let overdue: Vec<(usize, Message)> = {
                        let mut t = cell.borrow_mut();
                        let mut out = Vec::new();
                        for to in 0..self.size {
                            for (_, m) in t.held[to].drain(..) {
                                out.push((to, m));
                            }
                        }
                        t.metrics.straggler_flushes += out.len() as u64;
                        out
                    };
                    for (to, m) in overdue {
                        self.deliver(to, m);
                    }
                    if start.elapsed() >= spec.deadline {
                        std::panic::panic_any(FaultDiagnostic {
                            rank: self.id,
                            waiting_on: from,
                            tag,
                            expected_seq,
                            waited: start.elapsed(),
                            note: "recovery deadline exceeded; channel too lossy or peer gone"
                                .to_string(),
                        });
                    }
                    if attempt >= spec.max_retries {
                        std::panic::panic_any(FaultDiagnostic {
                            rank: self.id,
                            waiting_on: from,
                            tag,
                            expected_seq,
                            waited: start.elapsed(),
                            note: format!(
                                "retry cap reached ({} NACKs unanswered)",
                                spec.max_retries
                            ),
                        });
                    }
                    // Ask the peer we are starving on to retransmit.
                    cell.borrow_mut().metrics.nacks_sent += 1;
                    self.deliver(
                        from,
                        Message {
                            from: self.id,
                            tag,
                            payload: Vec::new(),
                            kind: MsgKind::Nack {
                                expected: expected_seq,
                            },
                        },
                    );
                    attempt += 1;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let expected_seq = cell.borrow().expected[from];
                    std::panic::panic_any(FaultDiagnostic {
                        rank: self.id,
                        waiting_on: from,
                        tag,
                        expected_seq,
                        waited: start.elapsed(),
                        note: "world torn down while receiving".to_string(),
                    });
                }
            }
        }
    }

    /// Resend everything `to` has not yet accepted (its `expected`
    /// onwards), flushing any messages still held back by reorder/delay
    /// faults — the peer is starving, so holding longer only stalls.
    fn retransmit(&self, to: usize, expected: u64) {
        let cell = self.transport.as_ref().expect("retransmit needs transport");
        let resend: Vec<Message> = {
            let mut t = cell.borrow_mut();
            let held: Vec<Message> = t.held[to].drain(..).map(|(_, m)| m).collect();
            let mut out: Vec<Message> = t.history[to]
                .iter()
                .filter(|(seq, _, _)| *seq >= expected)
                .map(|(seq, tag, payload)| Message {
                    from: self.id,
                    tag: *tag,
                    payload: payload.clone(),
                    kind: MsgKind::Data {
                        seq: *seq,
                        sum: checksum(payload),
                    },
                })
                .collect();
            // `held` entries are a subset of history ≥ expected, so the
            // history pass already re-covers them; drain merely stops
            // them from being delivered again later.
            drop(held);
            t.metrics.retransmits += out.len() as u64;
            t.metrics.retransmit_elements +=
                out.iter().map(|m| m.payload.len() as u64).sum::<u64>();
            out.sort_by_key(|m| match m.kind {
                MsgKind::Data { seq, .. } => seq,
                MsgKind::Nack { .. } | MsgKind::Ack { .. } => u64::MAX,
            });
            out
        };
        for m in resend {
            self.deliver(to, m);
        }
    }

    /// Exchange payloads with a neighbour (send then receive; buffered
    /// sends make the symmetric call deadlock-free) — the halo-exchange
    /// primitive.
    pub fn sendrecv(&self, peer: usize, tag: Tag, payload: Vec<f64>) -> Vec<f64> {
        self.send(peer, tag, payload);
        self.recv(peer, tag)
    }

    /// Deterministic `MPI_Allreduce(…, MPI_SUM)`: rank 0 gathers
    /// contributions and adds them **in rank order**, then broadcasts the
    /// result.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        const REDUCE_TAG: Tag = u32::MAX;
        const BCAST_TAG: Tag = u32::MAX - 1;
        if self.size == 1 {
            return value;
        }
        if self.id == 0 {
            let mut acc = value;
            for from in 1..self.size {
                let contribution = self.recv(from, REDUCE_TAG);
                acc += contribution[0];
            }
            for to in 1..self.size {
                self.send(to, BCAST_TAG, vec![acc]);
            }
            acc
        } else {
            self.send(0, REDUCE_TAG, vec![value]);
            self.recv(0, BCAST_TAG)[0]
        }
    }

    /// Component-wise deterministic allreduce for small fixed-size vectors
    /// (field summaries).
    pub fn allreduce_sum_vec(&self, values: &[f64]) -> Vec<f64> {
        const REDUCE_TAG: Tag = u32::MAX - 2;
        const BCAST_TAG: Tag = u32::MAX - 3;
        if self.size == 1 {
            return values.to_vec();
        }
        if self.id == 0 {
            let mut acc = values.to_vec();
            for from in 1..self.size {
                let contribution = self.recv(from, REDUCE_TAG);
                assert_eq!(contribution.len(), acc.len(), "allreduce length mismatch");
                for (a, c) in acc.iter_mut().zip(&contribution) {
                    *a += c;
                }
            }
            for to in 1..self.size {
                self.send(to, BCAST_TAG, acc.clone());
            }
            acc
        } else {
            self.send(0, REDUCE_TAG, values.to_vec());
            self.recv(0, BCAST_TAG)
        }
    }

    /// `MPI_Barrier` via an all-to-root/root-to-all round.
    pub fn barrier(&self) {
        let _ = self.allreduce_sum(0.0);
    }

    /// Exactly-ordered allreduce: every rank contributes a *vector of
    /// partials* (e.g. one per owned mesh row); rank 0 concatenates the
    /// vectors in rank order and sums the concatenation **sequentially**,
    /// so the result has the same floating-point association as a single
    /// process summing all partials in global order. This is the fixed-
    /// order reduction mode reproducible-MPI implementations offer.
    pub fn allreduce_ordered(&self, parts: &[f64]) -> f64 {
        const REDUCE_TAG: Tag = u32::MAX - 4;
        const BCAST_TAG: Tag = u32::MAX - 5;
        if self.id != 0 {
            self.send(0, REDUCE_TAG, parts.to_vec());
            return self.recv(0, BCAST_TAG)[0];
        }
        // One fold from +0.0 at any world size (`Iterator::sum` starts
        // from −0.0, so a lone rank would return −0.0 for all-−0.0 parts).
        let mut acc = 0.0;
        for p in parts {
            acc += p;
        }
        for from in 1..self.size {
            for p in self.recv(from, REDUCE_TAG) {
                acc += p;
            }
        }
        for to in 1..self.size {
            self.send(to, BCAST_TAG, vec![acc]);
        }
        acc
    }

    /// Component-wise exactly-ordered allreduce over `K`-tuples of
    /// partials (the 4-component field summary).
    pub fn allreduce_ordered_components<const K: usize>(&self, parts: &[[f64; K]]) -> [f64; K] {
        const REDUCE_TAG: Tag = u32::MAX - 6;
        const BCAST_TAG: Tag = u32::MAX - 7;
        let fold = |acc: &mut [f64; K], flat: &[f64]| {
            for chunk in flat.chunks_exact(K) {
                for q in 0..K {
                    acc[q] += chunk[q];
                }
            }
        };
        let flatten = |parts: &[[f64; K]]| -> Vec<f64> {
            parts.iter().flat_map(|p| p.iter().copied()).collect()
        };
        if self.size == 1 {
            let mut acc = [0.0; K];
            fold(&mut acc, &flatten(parts));
            return acc;
        }
        if self.id == 0 {
            let mut acc = [0.0; K];
            fold(&mut acc, &flatten(parts));
            for from in 1..self.size {
                let flat = self.recv(from, REDUCE_TAG);
                fold(&mut acc, &flat);
            }
            for to in 1..self.size {
                self.send(to, BCAST_TAG, acc.to_vec());
            }
            acc
        } else {
            self.send(0, REDUCE_TAG, flatten(parts));
            let flat = self.recv(0, BCAST_TAG);
            let mut out = [0.0; K];
            out.copy_from_slice(&flat);
            out
        }
    }
}

/// Launch `size` ranks, each running `body` on its own thread, and return
/// their results in rank order (`mpirun -np size`).
///
/// # Panics
/// Propagates a panic from any rank after the world is torn down.
pub fn run_spmd<R, F>(size: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    assert!(size > 0, "world needs at least one rank");
    let mut ranks = build_ranks(size, None);
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .drain(..)
            .map(|rank| scope.spawn(move || body(&rank)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank panicked"))
            .collect()
    })
}

/// [`run_spmd`] over a fault-injected network: every point-to-point
/// message passes through the seeded injector of `spec`, and the
/// reliable transport either recovers the faults — yielding results
/// bit-identical to the fault-free world — or some rank aborts with a
/// [`FaultDiagnostic`], returned as `Err`. Never a silently wrong
/// answer.
pub fn run_spmd_faulty<R, F>(
    size: usize,
    spec: FaultSpec,
    body: F,
) -> Result<Vec<R>, FaultDiagnostic>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    assert!(size > 0, "world needs at least one rank");
    let mut ranks = build_ranks(size, Some(spec));
    let body = &body;
    let results: Vec<Result<R, FaultDiagnostic>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .drain(..)
            .map(|rank| {
                let id = rank.id;
                (id, scope.spawn(move || body(&rank)))
            })
            .collect();
        handles
            .into_iter()
            .map(|(id, h)| {
                h.join()
                    .map_err(|payload| match payload.downcast::<FaultDiagnostic>() {
                        Ok(diag) => *diag,
                        Err(other) => {
                            let note = other
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| other.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "rank panicked".to_string());
                            FaultDiagnostic {
                                rank: id,
                                waiting_on: id,
                                tag: 0,
                                expected_seq: 0,
                                waited: Duration::ZERO,
                                note,
                            }
                        }
                    })
            })
            .collect()
    });
    results.into_iter().collect()
}

/// Whether a world of `size` ranks has a hardware thread for each rank.
fn fits_the_host(size: usize) -> bool {
    size <= std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn build_ranks(size: usize, spec: Option<FaultSpec>) -> Vec<Rank> {
    let mut senders = Vec::with_capacity(size);
    let mut inboxes = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded();
        senders.push(tx);
        inboxes.push(rx);
    }
    let spin = spec.is_none() && fits_the_host(size);
    inboxes
        .into_iter()
        .enumerate()
        .map(|(id, inbox)| Rank {
            id,
            size,
            senders: senders.clone(),
            inbox,
            parked: std::cell::RefCell::new(VecDeque::new()),
            transport: spec.map(|s| RefCell::new(Transport::new(s, id, size))),
            spin,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_of_one() {
        let out = run_spmd(1, |rank| {
            assert_eq!(rank.id(), 0);
            assert_eq!(rank.size(), 1);
            rank.allreduce_sum(42.0)
        });
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    fn ring_pass() {
        let n = 5;
        let out = run_spmd(n, |rank| {
            // each rank sends its id to the next and receives from the
            // previous
            let next = (rank.id() + 1) % rank.size();
            let prev = (rank.id() + rank.size() - 1) % rank.size();
            rank.send(next, 7, vec![rank.id() as f64]);
            rank.recv(prev, 7)[0]
        });
        assert_eq!(out, vec![4.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn allreduce_matches_serial_sum_bitwise() {
        let values = [0.1, 0.7, -3.3, 2.25, 9.125, -0.875];
        let expect: f64 = values.iter().sum(); // rank order == slice order
        let out = run_spmd(values.len(), |rank| rank.allreduce_sum(values[rank.id()]));
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn vector_allreduce() {
        let out = run_spmd(3, |rank| {
            let local = vec![rank.id() as f64, 1.0];
            rank.allreduce_sum_vec(&local)
        });
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn sendrecv_is_symmetric_and_deadlock_free() {
        let out = run_spmd(2, |rank| {
            let peer = 1 - rank.id();
            rank.sendrecv(peer, 3, vec![rank.id() as f64 * 10.0])[0]
        });
        assert_eq!(out, vec![10.0, 0.0]);
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let out = run_spmd(2, |rank| {
            if rank.id() == 0 {
                // send tag 2 first, then tag 1
                rank.send(1, 2, vec![2.0]);
                rank.send(1, 1, vec![1.0]);
                0.0
            } else {
                // receive tag 1 first: the tag-2 message must be parked
                let first = rank.recv(0, 1)[0];
                let second = rank.recv(0, 2)[0];
                first * 10.0 + second
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn message_sent_after_the_spin_budget_is_still_received() {
        let out = run_spmd(2, |rank| {
            assert_eq!(rank.spin, fits_the_host(2));
            if rank.id() == 0 {
                // Far longer than 4096 polls: the receiver has blocked.
                std::thread::sleep(Duration::from_millis(50));
                rank.send(1, 4, vec![4.5]);
                0.0
            } else {
                rank.recv(0, 4)[0]
            }
        });
        assert_eq!(out[1], 4.5);
    }

    #[test]
    fn wrong_tag_during_the_spin_is_parked_for_a_later_recv() {
        let out = run_spmd(2, |rank| {
            if rank.id() == 0 {
                rank.recv(1, 9);
                // Rank 1 is now in (or about to enter) `recv(0, 1)`: the
                // tag-2 message lands while it polls, and tag 1 later.
                rank.send(1, 2, vec![2.0]);
                std::thread::sleep(Duration::from_millis(5));
                rank.send(1, 1, vec![1.0]);
                0.0
            } else {
                rank.send(0, 9, Vec::new());
                let first = rank.recv(0, 1)[0];
                assert_eq!(rank.parked.borrow().len(), 1, "tag 2 parked");
                let second = rank.recv(0, 2)[0];
                assert!(rank.parked.borrow().is_empty());
                first * 10.0 + second
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn oversubscribed_ring_blocks_without_spinning_and_completes() {
        let n = 4;
        let out = run_spmd(n, |rank| {
            assert_eq!(rank.spin, fits_the_host(n));
            let next = (rank.id() + 1) % n;
            let prev = (rank.id() + n - 1) % n;
            let mut token = rank.id() as f64;
            for _ in 0..50 {
                rank.send(next, 7, vec![token]);
                token = rank.recv(prev, 7)[0];
            }
            token
        });
        // Fifty hops round a ring of four: two laps and two steps back.
        assert_eq!(out, vec![2.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn faulty_worlds_never_spin() {
        let out = run_spmd_faulty(2, FaultSpec::clean(0), |rank| rank.spin).expect("clean world");
        assert_eq!(out, vec![false, false]);
    }

    #[test]
    fn barrier_completes() {
        let out = run_spmd(4, |rank| {
            rank.barrier();
            rank.id()
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ordered_allreduce_of_negative_zeros_is_positive_zero() {
        for size in [1, 2] {
            let out = run_spmd(size, |rank| rank.allreduce_ordered(&[-0.0, -0.0]));
            for v in out {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{size} ranks");
            }
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    /// A small message-heavy workload: ring passes with repeated tags,
    /// a symmetric both-direction exchange (the halo pattern), and an
    /// ordered reduction — every primitive the distributed driver uses.
    fn workload(rank: &Rank) -> Vec<f64> {
        let next = (rank.id() + 1) % rank.size();
        let prev = (rank.id() + rank.size() - 1) % rank.size();
        let mut got = Vec::new();
        for round in 0..6 {
            // Same tag every round: FIFO order per channel is load-bearing.
            rank.send(next, 5, vec![rank.id() as f64 * 100.0 + round as f64]);
            got.push(rank.recv(prev, 5)[0]);
            // Halo-style exchange: send both ways, then receive both ways.
            rank.send(next, 9, vec![round as f64 + rank.id() as f64]);
            rank.send(prev, 11, vec![round as f64 - rank.id() as f64]);
            got.push(rank.recv(prev, 9)[0]);
            got.push(rank.recv(next, 11)[0]);
            let parts: Vec<f64> = (0..3).map(|k| (rank.id() * 3 + k) as f64 * 0.1).collect();
            got.push(rank.allreduce_ordered(&parts));
        }
        got
    }

    #[test]
    fn clean_faulty_world_matches_plain_world() {
        let plain = run_spmd(3, workload);
        let faulty = run_spmd_faulty(3, FaultSpec::clean(1), workload).expect("clean world");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn lossy_worlds_recover_bit_identically() {
        let plain = run_spmd(4, workload);
        let mut spec = FaultSpec::lossy(0);
        spec.quiet = Duration::from_millis(5);
        for seed in 0..8u64 {
            spec.seed = seed;
            let faulty = run_spmd_faulty(4, spec, workload)
                .unwrap_or_else(|d| panic!("seed {seed} failed to recover: {d}"));
            assert_eq!(plain, faulty, "seed {seed}: recovered run diverged");
        }
    }

    #[test]
    fn pure_drop_channel_recovers_via_nack() {
        let mut spec = FaultSpec::clean(7);
        spec.drop = 0.35;
        spec.quiet = Duration::from_millis(5);
        let plain = run_spmd(2, workload);
        let faulty = run_spmd_faulty(2, spec, workload).expect("NACK retransmit must recover");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn duplicate_storm_is_deduplicated() {
        let mut spec = FaultSpec::clean(11);
        spec.duplicate = 0.9;
        let plain = run_spmd(3, workload);
        let faulty = run_spmd_faulty(3, spec, workload).expect("dedup must absorb duplicates");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn reorder_and_delay_preserve_fifo_semantics() {
        let mut spec = FaultSpec::clean(13);
        spec.reorder = 0.4;
        spec.delay = 0.3;
        spec.quiet = Duration::from_millis(5);
        let plain = run_spmd(3, workload);
        let faulty = run_spmd_faulty(3, spec, workload).expect("sequencing must restore order");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn hopeless_network_fails_loudly_with_diagnostic() {
        // Deadline shorter than the quiet period: the first starved
        // receive must abort with a structured diagnostic instead of
        // retrying forever (or inventing an answer).
        let mut spec = FaultSpec::clean(3);
        spec.drop = 1.0;
        spec.quiet = Duration::from_millis(20);
        spec.deadline = Duration::from_millis(10);
        let err = run_spmd_faulty(2, spec, workload).expect_err("total loss cannot succeed");
        assert!(err.rank < 2);
        assert!(
            err.note.contains("deadline"),
            "unexpected note: {}",
            err.note
        );
        let rendered = err.to_string();
        assert!(rendered.contains("gave up"), "{rendered}");
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut t = Transport::new(FaultSpec::clean(0), 0, 2);
        for seq in 0..6u64 {
            t.history[1].push((seq, 7, vec![seq as f64]));
        }
        assert!(t.handle_ack(1, 3), "first ack prunes");
        assert_eq!(t.history[1].len(), 3);
        assert_eq!(t.acked_in[1], 3);
        // The duplicate is a no-op: same state after as before.
        assert!(!t.handle_ack(1, 3), "duplicate ack is a no-op");
        assert_eq!(t.history[1].len(), 3);
        assert_eq!(t.acked_in[1], 3);
        // A stale (lower) ack arriving late is also a no-op.
        assert!(!t.handle_ack(1, 2), "stale ack is a no-op");
        assert_eq!(t.history[1].len(), 3);
        assert_eq!(t.acked_in[1], 3);
        // A newer ack advances normally.
        assert!(t.handle_ack(1, 6));
        assert!(t.history[1].is_empty());
    }

    #[test]
    fn retries_are_capped_with_a_loud_diagnostic() {
        // A peer that exits without sending never answers NACKs; with the
        // deadline far away, the retry cap (not the deadline) must end
        // the starved receive.
        let mut spec = FaultSpec::clean(17);
        spec.quiet = Duration::from_millis(2);
        spec.deadline = Duration::from_secs(30);
        spec.max_retries = 3;
        let err = run_spmd_faulty(2, spec, |rank| {
            if rank.id() == 0 {
                rank.recv(1, 4)[0]
            } else {
                0.0 // exits immediately, sending nothing
            }
        })
        .expect_err("a silent peer cannot satisfy the receive");
        assert!(
            err.note.contains("retry cap"),
            "unexpected note: {}",
            err.note
        );
        assert!(err.note.contains('3'), "cap value in note: {}", err.note);
    }

    #[test]
    fn ack_pruning_preserves_bit_identical_recovery() {
        // An aggressive ack cadence (prune after every 2 accepted
        // messages) must not break NACK recovery on a lossy channel:
        // acked history is by definition never re-requested.
        let plain = run_spmd(3, workload);
        let mut spec = FaultSpec::lossy(21);
        spec.quiet = Duration::from_millis(5);
        spec.ack_interval = 2;
        let faulty = run_spmd_faulty(3, spec, workload).expect("must recover");
        assert_eq!(plain, faulty);
    }

    #[test]
    fn clean_transport_counts_sends_and_stays_quiet() {
        let out = run_spmd_faulty(3, FaultSpec::clean(1), |rank| {
            let m0 = rank
                .transport_metrics()
                .expect("faulty world has transport");
            assert_eq!(m0, TransportMetrics::default());
            workload(rank);
            rank.transport_metrics().expect("still present")
        })
        .expect("clean world");
        for m in out {
            assert!(m.sends > 0, "workload sends data");
            assert!(m.is_quiet(), "clean channels need no recovery: {m:?}");
        }
    }

    #[test]
    fn lossy_transport_accounts_for_drops_and_recovery() {
        let mut spec = FaultSpec::lossy(5);
        spec.quiet = Duration::from_millis(5);
        let out = run_spmd_faulty(4, spec, |rank| {
            workload(rank);
            rank.transport_metrics()
                .expect("faulty world has transport")
        })
        .expect("must recover");
        let total: u64 = out.iter().map(|m| m.dropped).sum();
        assert!(total > 0, "lossy spec must drop something across 4 ranks");
        // Every drop starves some receiver into the NACK path eventually.
        assert!(
            out.iter().any(|m| m.nacks_sent > 0),
            "drops without NACKs cannot have recovered: {out:?}"
        );
        assert!(
            out.iter().any(|m| m.retransmits > 0),
            "NACKs must trigger retransmissions: {out:?}"
        );
    }

    #[test]
    fn plain_world_has_no_transport_metrics() {
        let out = run_spmd(2, |rank| rank.transport_metrics().is_none());
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn injected_rank_loss_surfaces_as_diagnostic() {
        let mut spec = FaultSpec::clean(23);
        spec.quiet = Duration::from_millis(5);
        spec.deadline = Duration::from_millis(250);
        spec.kill_rank = Some(crate::fault::KillSpec::transient(1, 4));
        let err = run_spmd_faulty(3, spec, workload).expect_err("a dead rank cannot finish");
        assert!(
            err.note.contains("lost") || err.note.contains("deadline"),
            "unexpected note: {}",
            err.note
        );
    }

    #[test]
    fn corrupted_payloads_are_rejected_and_recovered_bit_identically() {
        let plain = run_spmd(3, workload);
        let mut spec = FaultSpec::clean(31);
        spec.corrupt = 0.25;
        spec.quiet = Duration::from_millis(5);
        let out = run_spmd_faulty(3, spec, |rank| {
            let got = workload(rank);
            (got, rank.transport_metrics().expect("transport present"))
        })
        .expect("checksum rejection must feed the NACK path, not abort");
        let (values, metrics): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(plain, values, "a flipped bit leaked into the answer");
        let corrupted: u64 = metrics.iter().map(|m| m.corrupted).sum();
        let rejected: u64 = metrics.iter().map(|m| m.checksum_rejects).sum();
        assert!(corrupted > 0, "corrupt=0.25 must flip something");
        assert!(
            rejected >= corrupted,
            "every injected corruption must be caught by a checksum \
             (corrupted {corrupted}, rejected {rejected})"
        );
        assert!(
            metrics.iter().any(|m| m.retransmit_elements > 0),
            "recovery must have replayed payload elements"
        );
    }

    #[test]
    fn checksum_classifier_types_the_rejection() {
        let payload = vec![1.0, -2.5, 3.25];
        let sum = checksum(&payload);
        assert_eq!(classify_data(&payload, 4, sum, 4), Ok(()));
        assert_eq!(
            classify_data(&payload, 3, sum, 4),
            Err(DataFault::Stale { seq: 3 })
        );
        assert_eq!(
            classify_data(&payload, 9, sum, 4),
            Err(DataFault::Early { seq: 9 })
        );
        let mut bad = payload.clone();
        bad[1] = f64::from_bits(bad[1].to_bits() ^ (1 << 17));
        let got = checksum(&bad);
        assert_eq!(
            classify_data(&bad, 4, sum, 4),
            Err(DataFault::ChecksumMismatch { expected: sum, got })
        );
        // Corruption outranks sequencing: a corrupt duplicate is a
        // corruption, never a silent dup-discard of garbage.
        assert_eq!(
            classify_data(&bad, 3, sum, 4),
            Err(DataFault::ChecksumMismatch { expected: sum, got })
        );
    }

    #[test]
    fn transient_partition_heals_via_retransmission() {
        use crate::fault::PartitionSpec;
        let plain = run_spmd(3, workload);
        let mut spec = FaultSpec::clean(37);
        spec.quiet = Duration::from_millis(5);
        spec.partition = Some(PartitionSpec {
            rank: 1,
            from_send: 6,
            until_send: 14,
        });
        let out = run_spmd_faulty(3, spec, |rank| {
            let got = workload(rank);
            (got, rank.transport_metrics().expect("transport present"))
        })
        .expect("a transient partition must heal through the NACK path");
        let (values, metrics): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(plain, values, "partition recovery diverged");
        let swallowed: u64 = metrics.iter().map(|m| m.partition_drops).sum();
        assert!(swallowed > 0, "the window must have swallowed traffic");
        assert!(
            metrics.iter().any(|m| m.retransmits > 0),
            "healing a partition requires retransmission: {metrics:?}"
        );
    }

    #[test]
    fn starving_rank_flushes_its_own_stragglers() {
        // A delay-heavy channel makes every rank hold sends back; the
        // first starved receive must flush this rank's own overdue
        // messages (counted) rather than sit on them while peers starve.
        let plain = run_spmd(3, workload);
        let mut spec = FaultSpec::clean(41);
        spec.delay = 0.5;
        spec.reorder = 0.2;
        spec.quiet = Duration::from_millis(5);
        let out = run_spmd_faulty(3, spec, |rank| {
            let got = workload(rank);
            (got, rank.transport_metrics().expect("transport present"))
        })
        .expect("delays must be survivable");
        let (values, metrics): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(plain, values, "straggler flush perturbed the answer");
        let held: u64 = metrics.iter().map(|m| m.delayed + m.reordered).sum();
        assert!(held > 0, "delay=0.5 must hold something back");
    }

    #[test]
    fn rank_panic_surfaces_as_diagnostic_not_hang() {
        let mut spec = FaultSpec::clean(5);
        spec.quiet = Duration::from_millis(5);
        spec.deadline = Duration::from_millis(200);
        let err = run_spmd_faulty(2, spec, |rank| {
            if rank.id() == 1 {
                panic!("rank 1 exploded");
            }
            // rank 0 waits on rank 1 forever; the deadline must free it
            rank.recv(1, 4)[0]
        })
        .expect_err("must not hang");
        assert!(
            err.note.contains("exploded") || err.note.contains("deadline"),
            "{err}"
        );
    }
}

#[cfg(test)]
mod ordered_tests {
    use super::*;

    #[test]
    fn ordered_allreduce_matches_sequential_association() {
        // the concatenated per-part sum must be bitwise what one process
        // summing all parts in order computes
        let parts: Vec<Vec<f64>> = vec![
            vec![0.1, 0.2, 0.30000000001],
            vec![-0.7, 1.0e-18],
            vec![123456.789, -123456.789, 3.5],
        ];
        let mut expect = 0.0;
        for p in parts.iter().flatten() {
            expect += p;
        }
        let out = run_spmd(parts.len(), |rank| {
            rank.allreduce_ordered(&parts[rank.id()])
        });
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn ordered_components_allreduce() {
        let parts: Vec<Vec<[f64; 2]>> =
            vec![vec![[1.0, 10.0], [2.0, 20.0]], vec![[3.0, 30.0]], vec![]];
        let out = run_spmd(3, |rank| {
            rank.allreduce_ordered_components(&parts[rank.id()])
        });
        for v in out {
            assert_eq!(v, [6.0, 60.0]);
        }
    }

    #[test]
    fn ordered_allreduce_world_of_one() {
        let out = run_spmd(1, |rank| rank.allreduce_ordered(&[1.5, 2.5]));
        assert_eq!(out, vec![4.0]);
    }
}
