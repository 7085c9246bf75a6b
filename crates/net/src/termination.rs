//! Safra/Dijkstra-style termination detection (the EWD998 token ring).
//!
//! Quiescence of an asynchronous transducer network is a *global*
//! property — no worker can observe it locally, because a message may
//! always be in flight toward it. The classical solution (Dijkstra,
//! Feijen, van Gasteren; Safra's refinement for non-FIFO message
//! counting) circulates a token around a ring of workers:
//!
//! * every worker keeps a **counter** (basic messages sent − received)
//!   and a **color** — it turns *black* when it receives a basic
//!   message, because that receipt may have reactivated it after the
//!   token already passed by;
//! * worker 0 initiates a **probe** when it is passive: a white token
//!   with count 0 sent around the ring `0 → 1 → … → W−1 → 0`;
//! * a worker only forwards the token when it is **passive** (no
//!   undelivered inbox facts, every local node at fixpoint), adding its
//!   counter, OR-ing in its color, and whitening itself;
//! * when the token returns, worker 0 declares termination iff the
//!   token is white, worker 0 itself is white, and the token's count
//!   plus worker 0's counter is zero (no message in flight anywhere).
//!   Otherwise the probe is inconclusive and a fresh one starts.
//!
//! The irony is worth savoring: the paper's hierarchy is about
//! computing *without* coordination, and here is the harness running a
//! textbook coordination protocol. The two live at different levels.
//! The *program* (the transducer strategy) never waits on any other
//! node — its output facts are emitted monotonically, correct under
//! every interleaving, which is exactly what the equivalence tests
//! check. The *harness* coordinates only to answer a meta-question the
//! program never asks: "has the fixpoint been reached, so the process
//! can exit?" — the same role the sequential simulator's
//! quiescence-detection sweep plays, and precisely the `Ω`-style
//! eventual-detection oracle the paper allows outside the model.
//! Detection of termination is not coordination *for output*: remove
//! the ring and every output fact still appears; only the exit does
//! not.
//!
//! ## Crashes and the ring
//!
//! The classical algorithm assumes stable membership: a passive worker
//! stays passive until it *receives a basic message*. Fault injection
//! ([`crate::faults`]) breaks that assumption in two ways, and each
//! needs a rule to keep detection sound:
//!
//! * **Crash rollback re-activates silently.** When a node crashes and
//!   restores an older snapshot, its worker becomes active again — but
//!   no message receipt announced that, so a white token already past
//!   the worker could conclude on stale evidence. The rule: *a crash
//!   blackens its worker*, exactly as a basic-message receipt would.
//!   This matters even for a node with zero outstanding messages — the
//!   rollback itself (re-deriving and re-sending from older state) is
//!   the hidden activity the probe must be told about.
//! * **Reliability obligations are invisible to the counters.** A
//!   dropped wire never decrements any counter, so Safra's `count == 0`
//!   test alone would see a network with unacked sends as quiet. The
//!   rule: a worker with standing obligations — unacked outbox entries,
//!   wires in the delay buffer, nodes inside a recovery window —
//!   *withholds the token* (it is not passive), so retransmission
//!   timers keep firing until the substrate drains or a retry budget
//!   gives up (which forfeits the quiescence claim instead).

/// The probe token circulating `0 → 1 → … → W−1 → 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token {
    /// Sum of the counters (messages sent − received) of the workers
    /// the token has passed, this probe.
    pub count: i64,
    /// Whether any passed worker was black (received a basic message
    /// since it last forwarded a token).
    pub black: bool,
    /// Total ring hops across all probes — a cost metric, not part of
    /// the algorithm.
    pub passes: u64,
    /// Ring epoch the token was minted in. A worker crash can lose a
    /// token written to the dead worker's socket; the coordinator
    /// bumps the epoch on every recovery event (respawn or shard
    /// re-assignment) and broadcasts a reset, after which every worker
    /// drops tokens from older epochs and the initiator mints a fresh
    /// probe. Without the fence, a stale token resurfacing from a
    /// respawned worker's backlog could race a fresh probe and
    /// double-count a round.
    pub epoch: u64,
}

crate::codec::wire_struct!(Token: count, black, passes, epoch);

impl Token {
    /// A fresh white probe token for ring epoch `epoch`.
    pub(crate) fn probe(epoch: u64) -> Token {
        Token {
            count: 0,
            black: false,
            passes: 0,
            epoch,
        }
    }

    /// A passive worker forwards the token: add its counter, OR in its
    /// color, count the hop. (The worker whitens itself afterwards;
    /// that is its own state, not the token's.)
    pub(crate) fn absorb(&mut self, counter: i64, black: bool) {
        self.count += counter;
        self.black |= black;
        self.passes += 1;
    }

    /// Worker 0's verdict when the probe returns: termination iff the
    /// token stayed white, the initiator is white, and the token's
    /// count plus the initiator's counter is zero.
    pub(crate) fn concludes(&self, initiator_counter: i64, initiator_black: bool) -> bool {
        !self.black && !initiator_black && self.count + initiator_counter == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A model worker for driving the ring protocol in isolation: the
    /// executor's Safra state without threads or channels.
    struct Model {
        counter: i64,
        black: bool,
        passive: bool,
    }

    impl Model {
        fn quiet() -> Model {
            Model {
                counter: 0,
                black: false,
                passive: true,
            }
        }

        /// Receive a basic message: blacken, reactivate.
        fn receive(&mut self) {
            self.counter -= 1;
            self.black = true;
            self.passive = false;
        }

        fn send(&mut self) {
            self.counter += 1;
        }

        /// Crash a node owned by this worker. The snapshot rollback may
        /// restart work with no message receipt announcing it — the
        /// worker blackens, exactly as the executor does.
        fn crash(&mut self) {
            self.black = true;
            self.passive = false;
        }

        /// Recovery complete: local fixpoint again.
        fn settle(&mut self) {
            self.passive = true;
        }
    }

    /// Drive one full probe around the ring; returns worker 0's
    /// verdict. Workers that are not passive hold the token until they
    /// are — modeled here by simply failing the probe (`None`).
    fn probe_round(ring: &mut [Model]) -> Option<bool> {
        let mut token = Token::probe(0);
        let initiator_black = ring[0].black;
        ring[0].black = false;
        for w in ring.iter_mut().skip(1) {
            if !w.passive {
                return None; // token withheld: probe never returns
            }
            token.absorb(w.counter, w.black);
            w.black = false;
        }
        Some(token.concludes(ring[0].counter, initiator_black))
    }

    #[test]
    fn quiet_ring_concludes() {
        let mut ring = vec![Model::quiet(), Model::quiet(), Model::quiet()];
        assert_eq!(probe_round(&mut ring), Some(true));
    }

    #[test]
    fn in_flight_message_defers_conclusion() {
        let mut ring = vec![Model::quiet(), Model::quiet(), Model::quiet()];
        ring[1].send(); // counted at the sender, not yet received
        assert_eq!(probe_round(&mut ring), Some(false));
        ring[2].receive(); // arrival blackens the receiver
        ring[2].settle();
        assert_eq!(probe_round(&mut ring), Some(false), "black round is void");
        assert_eq!(probe_round(&mut ring), Some(true), "next round is white");
    }

    /// The satellite case: a node with *zero outstanding messages*
    /// crashes mid-round, after the token already passed its worker.
    /// Without the crash-blackens rule the probe would conclude while
    /// the rolled-back node is about to re-derive and re-send.
    #[test]
    fn crash_with_zero_outstanding_messages_voids_the_round() {
        let mut ring = vec![Model::quiet(), Model::quiet(), Model::quiet()];

        // Mid-round crash at worker 1: token passes worker 1 (white,
        // counter 0), then the crash fires, then the token finishes.
        let mut token = Token::probe(0);
        let initiator_black = ring[0].black;
        ring[0].black = false;
        token.absorb(ring[1].counter, ring[1].black);
        ring[1].black = false;
        ring[1].crash(); // zero outstanding messages — counter stays 0
        token.absorb(ring[2].counter, ring[2].black);
        ring[2].black = false;

        // The token itself is white with count 0: only the crashed
        // worker's *own* blackness can save the round — and it is not
        // consulted again this round. The verdict must therefore be
        // taken as inconclusive by the protocol's other rule: worker 1
        // is not passive, so in the real executor it would have
        // withheld the token. Model both protections:
        assert!(token.concludes(ring[0].counter, initiator_black));
        assert!(!ring[1].passive, "crashed worker must not look passive");
        assert!(ring[1].black, "crash must blacken for the *next* round");

        // Recovery: the node re-derives and re-sends (counter +1), the
        // peer receives. The blackened workers void the next full round
        // even though every counter reconciles; the round after that —
        // all white, counters balanced — concludes.
        ring[1].send();
        ring[1].settle();
        ring[2].receive();
        ring[2].settle();
        assert_eq!(probe_round(&mut ring), Some(false), "crash round is void");
        assert_eq!(probe_round(&mut ring), Some(true), "quiet ring concludes");
    }

    /// Regression for the executor's withhold rule: a probe never
    /// returns past a non-passive worker, so a crashed worker stalls
    /// the ring rather than letting it conclude.
    #[test]
    fn crashed_worker_withholds_the_token() {
        let mut ring = vec![Model::quiet(), Model::quiet(), Model::quiet()];
        ring[2].crash();
        assert_eq!(probe_round(&mut ring), None, "ring stalls, never concludes");
        ring[2].settle();
        assert_eq!(probe_round(&mut ring), Some(false), "black after recovery");
        assert_eq!(probe_round(&mut ring), Some(true));
    }

    /// `absorb` accumulates counters and colors around a longer ring,
    /// and a single black worker anywhere poisons the verdict.
    #[test]
    fn absorb_accumulates_and_black_poisons() {
        for black_at in 1..6 {
            let mut token = Token::probe(0);
            for w in 1..6 {
                token.absorb(0, w == black_at);
            }
            assert_eq!(token.passes, 5);
            assert!(!token.concludes(0, false));
        }
        let mut token = Token::probe(0);
        let deltas = [3i64, -1, 0, -2, 1];
        for d in deltas {
            token.absorb(d, false);
        }
        assert_eq!(token.count, 1, "one message still in flight");
        assert!(!token.concludes(0, false));
        assert!(token.concludes(-1, false), "initiator's receipt balances");
    }

    /// A token minted before a recovery event must not conclude a round
    /// after it: workers compare the token's epoch against their ring
    /// epoch and drop stale tokens, and the initiator re-probes in the
    /// new epoch. This models the filter the executor applies.
    #[test]
    fn stale_epoch_tokens_are_fenced_out() {
        let ring_epoch = 3u64;
        let stale = Token::probe(2);
        let fresh = Token::probe(3);
        assert!(stale.epoch < ring_epoch, "pre-recovery token is stale");
        assert!(fresh.epoch >= ring_epoch, "post-reset probe is accepted");
        // A stale token, even if it *would* conclude, never reaches the
        // verdict — the executor drops it before absorb/concludes.
        assert!(stale.concludes(0, false), "verdict alone is not the fence");
    }

    /// FIFO channels deliver a queued basic message before the token
    /// that followed it — the receipt blackens the worker before it can
    /// forward, which is what makes counting sound without timestamps.
    #[test]
    fn fifo_receipt_blackens_before_forward() {
        let mut w = Model::quiet();
        let mut inbox: VecDeque<&str> = VecDeque::from(["basic", "token"]);
        let mut token = Token::probe(0);
        while let Some(msg) = inbox.pop_front() {
            match msg {
                "basic" => w.receive(),
                _ => {
                    w.settle();
                    token.absorb(w.counter, w.black);
                    w.black = false;
                }
            }
        }
        assert!(token.black, "the receipt voided the round");
        assert_eq!(token.count, -1);
    }
}
