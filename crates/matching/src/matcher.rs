//! The matcher: sequence validation plus PRQ/UMQ queue matching.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use fairmpi_fabric::{CommId, Envelope, Packet, Rank, SeqNo, Tag};
use fairmpi_spc::{Counter, Histogram, SpcSet, Watermark};
use fairmpi_trace as trace;

use crate::{MatchEvent, MatchWork, PostOutcome, PostedRecv};

/// Per-source in-order reassembly state.
#[derive(Debug, Default)]
struct SourceState {
    /// Next sequence number this source is allowed to match.
    expected: SeqNo,
    /// Early arrivals parked until their turn (paper §II-C: "the
    /// implementation has to allocate the necessary memory to store the
    /// out-of-sequence messages, making this operation more costly").
    out_of_sequence: BTreeMap<SeqNo, Packet>,
}

/// One matching domain: the state behind one matching lock.
///
/// Instantiated per communicator for OB1-style concurrent matching, or once
/// per process for MPICH/UCX-style single-queue designs; entries always
/// compare communicator ids, so both configurations are correct.
///
/// The matcher performs no locking itself — exclusion is the caller's
/// responsibility (which is exactly the design axis the paper studies).
#[derive(Debug)]
pub struct Matcher {
    /// Skip sequence validation (`mpi_assert_allow_overtaking`).
    allow_overtaking: bool,
    /// Reassembly state per (communicator, source).
    sources: HashMap<(CommId, Rank), SourceState>,
    /// Messages parked out of sequence, summed over `sources`.
    out_of_sequence: usize,
    /// Posted-receive queue, in post order.
    prq: VecDeque<PostedRecv>,
    /// Unexpected-message queue, in arrival (match-admission) order.
    umq: VecDeque<Packet>,
    /// Counter sink.
    spc: Arc<SpcSet>,
}

impl Matcher {
    /// Create a matcher. `allow_overtaking` disables sequence validation for
    /// every message handled by this matcher.
    pub fn new(spc: Arc<SpcSet>, allow_overtaking: bool) -> Self {
        Self {
            allow_overtaking,
            sources: HashMap::new(),
            out_of_sequence: 0,
            prq: VecDeque::new(),
            umq: VecDeque::new(),
            spc,
        }
    }

    /// Whether sequence validation is disabled.
    pub fn allows_overtaking(&self) -> bool {
        self.allow_overtaking
    }

    /// Deliver one incoming two-sided packet (eager or rendezvous-RTS).
    ///
    /// Matches produced by this call — including replays of previously
    /// buffered out-of-sequence packets that became admissible — are pushed
    /// onto `out`. Returns the work receipt for time accounting.
    pub fn deliver(&mut self, packet: Packet, out: &mut Vec<MatchEvent>) -> MatchWork {
        let _span = trace::span("match.deliver");
        let mut work = MatchWork::default();
        if self.allow_overtaking {
            self.spc.inc(Counter::OvertakenMessages);
            self.admit(packet, out, &mut work);
            return work;
        }

        let key = (packet.envelope.comm, packet.envelope.src);
        work.seq_checks += 1;
        let state = self.sources.entry(key).or_default();
        let seq = packet.envelope.seq;
        if seq == state.expected {
            state.expected += 1;
            self.admit(packet, out, &mut work);
            // Replaying the out-of-sequence chain that just became ready.
            loop {
                let state = self.sources.get_mut(&key).expect("state exists");
                match state.out_of_sequence.remove(&state.expected) {
                    Some(parked) => {
                        state.expected += 1;
                        self.out_of_sequence -= 1;
                        work.oos_drained += 1;
                        self.admit(parked, out, &mut work);
                    }
                    None => break,
                }
            }
            self.spc
                .record_hist(Histogram::OosReplayChain, work.oos_drained as u64);
            if work.oos_drained > 0 {
                trace::counter("match.oos_flush", work.oos_drained as u64);
            }
        } else if seq > state.expected {
            if state.out_of_sequence.insert(seq, packet).is_none() {
                self.out_of_sequence += 1;
            }
            work.oos_buffered += 1;
            trace::instant("match.oos_insert");
            self.spc.inc(Counter::OutOfSequenceMessages);
            let buffered = self.out_of_sequence as u64;
            self.spc
                .record_max(Counter::MaxOutOfSequenceBuffered, buffered);
            self.spc
                .record_level(Watermark::OutOfSequenceBuffered, buffered);
        } else {
            // A sequence number below `expected` means the fabric delivered
            // a duplicate — the wire never does that, so this is a bug.
            debug_assert!(false, "duplicate sequence number {seq} < expected");
        }
        work
    }

    /// Admit one in-sequence (or overtaking) packet to queue matching.
    fn admit(&mut self, packet: Packet, out: &mut Vec<MatchEvent>, work: &mut MatchWork) {
        let mut inspected = 0usize;
        let hit = self.prq.iter().position(|r| {
            inspected += 1;
            r.matches(&packet.envelope)
        });
        work.traversed += inspected;
        trace::counter("match.search_len", inspected as u64);
        self.spc
            .add(Counter::MatchQueueTraversals, inspected as u64);
        self.spc
            .record_hist(Histogram::MatchDeliverAttempts, inspected as u64);
        match hit {
            Some(pos) => {
                let recv = self.prq.remove(pos).expect("position valid");
                work.matches += 1;
                self.spc.inc(Counter::ExpectedMessages);
                self.spc.inc(Counter::MessagesReceived);
                self.spc
                    .record_level(Watermark::PostedRecvQueueDepth, self.prq.len() as u64);
                out.push(MatchEvent {
                    token: recv.token,
                    packet,
                });
            }
            None => {
                self.umq.push_back(packet);
                work.unexpected += 1;
                self.spc.inc(Counter::UnexpectedMessages);
                self.spc
                    .record_max(Counter::MaxUnexpectedQueueLen, self.umq.len() as u64);
                self.spc
                    .record_level(Watermark::UnexpectedQueueDepth, self.umq.len() as u64);
            }
        }
    }

    /// Post a receive: search the unexpected queue first, then append to the
    /// posted-receive queue.
    pub fn post_recv(&mut self, recv: PostedRecv) -> (PostOutcome, MatchWork) {
        let _span = trace::span("match.post");
        let mut work = MatchWork::default();
        let mut inspected = 0usize;
        let hit = self.umq.iter().position(|p| {
            inspected += 1;
            recv.matches(&p.envelope)
        });
        work.traversed += inspected;
        trace::counter("match.search_len", inspected as u64);
        self.spc
            .add(Counter::MatchQueueTraversals, inspected as u64);
        self.spc
            .record_hist(Histogram::MatchPostAttempts, inspected as u64);
        match hit {
            Some(pos) => {
                let packet = self.umq.remove(pos).expect("position valid");
                work.matches += 1;
                self.spc.inc(Counter::MessagesReceived);
                self.spc
                    .record_level(Watermark::UnexpectedQueueDepth, self.umq.len() as u64);
                (PostOutcome::Matched(packet), work)
            }
            None => {
                self.prq.push_back(recv);
                self.spc
                    .record_max(Counter::MaxPostedRecvQueueLen, self.prq.len() as u64);
                self.spc
                    .record_level(Watermark::PostedRecvQueueDepth, self.prq.len() as u64);
                (PostOutcome::Posted, work)
            }
        }
    }

    /// Non-destructively check for an unexpected message matching
    /// `(comm, src, tag)` — the engine behind `MPI_Iprobe`.
    pub fn iprobe(&self, comm: CommId, src: i32, tag: Tag) -> Option<&Envelope> {
        let probe = PostedRecv {
            token: 0,
            comm,
            src,
            tag,
        };
        self.umq
            .iter()
            .find(|p| probe.matches(&p.envelope))
            .map(|p| &p.envelope)
    }

    /// Remove a posted receive by token (the engine behind `MPI_Cancel`).
    /// Returns true if the receive was still queued.
    pub fn cancel(&mut self, token: u64) -> bool {
        match self.prq.iter().position(|r| r.token == token) {
            Some(pos) => {
                self.prq.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Posted receives currently queued.
    pub fn posted_len(&self) -> usize {
        self.prq.len()
    }

    /// Unexpected messages currently queued.
    pub fn unexpected_len(&self) -> usize {
        self.umq.len()
    }

    /// Messages currently parked out of sequence, across all sources.
    pub fn out_of_sequence_len(&self) -> usize {
        self.out_of_sequence
    }

    /// The next sequence number expected from `(comm, src)`.
    pub fn expected_seq(&self, comm: CommId, src: Rank) -> SeqNo {
        self.sources
            .get(&(comm, src))
            .map(|s| s.expected)
            .unwrap_or(0)
    }

    /// The counter sink this matcher reports into.
    pub fn spc(&self) -> &Arc<SpcSet> {
        &self.spc
    }
}
