//! The operator's message vocabulary and its mapping onto the simulator's
//! scheduling classes.
//!
//! Every change of the mapping — a migration step, a ×4 expansion, a 4→1
//! contraction — is one path through this vocabulary (the protocol and
//! its per-kind forwarding rules are `aoj_core::epoch`'s module docs):
//!
//! | message                              | from → to                 | class     |
//! |--------------------------------------|---------------------------|-----------|
//! | [`Change`](OpMsg::Change) `{ kind }` | controller → reshufflers  | Control   |
//! | [`Signal`](OpMsg::Signal) `{ role }` | reshuffler → joiner       | Data      |
//! | [`MigBatch`](OpMsg::MigBatch), then [`MigDone`](OpMsg::MigDone) / [`ExpandDone`](OpMsg::ExpandDone) | joiner → joiner | Migration |
//! | [`Ack`](OpMsg::Ack)                  | joiner → controller       | Control   |
//!
//! Class assignment is load-bearing for protocol correctness: a `Signal`
//! must stay FIFO with the data tuples its reshuffler routed earlier, so
//! it travels in the `Data` class; an end-of-state marker must stay FIFO
//! with the relocated state it closes, so it travels in the `Migration`
//! class (which the machine services at twice the data rate, §4.3.2).

use aoj_core::elastic::ElasticLayout;
use aoj_core::epoch::{Epoch, Reconfig, Role};
use aoj_core::mapping::GridAssignment;
use aoj_core::tuple::{Rel, Tuple};
use aoj_simnet::{MsgClass, SimMessage, SimTime, TaskId};

/// Per-tuple wire overhead added on top of the payload bytes.
const TUPLE_HEADER_BYTES: u64 = 16;

/// One emitted join pair, as delivered to live subscribers
/// ([`SessionHandle::subscribe`](crate::session::SessionHandle::subscribe)).
///
/// Identified by the canonical `(R seq, S seq)` pair — the same identity
/// [`RunReport::match_pairs`](crate::report::RunReport::match_pairs)
/// records — plus both sides' join keys for downstream consumers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Match {
    /// Global arrival sequence number of the R-side tuple.
    pub r_seq: u64,
    /// Global arrival sequence number of the S-side tuple.
    pub s_seq: u64,
    /// The R-side join key.
    pub r_key: i64,
    /// The S-side join key.
    pub s_key: i64,
}

impl Match {
    /// Build from the two matched tuples, in either order.
    pub fn of(a: &Tuple, b: &Tuple) -> Match {
        let (r, s) = if a.rel == Rel::R { (a, b) } else { (b, a) };
        Match {
            r_seq: r.seq,
            s_seq: s.seq,
            r_key: r.key,
            s_key: s.key,
        }
    }

    /// The canonical `(R seq, S seq)` identity.
    pub fn pair(&self) -> (u64, u64) {
        (self.r_seq, self.s_seq)
    }
}

/// One raw stream tuple inside an [`OpMsg::IngestBatch`].
#[derive(Clone, Copy, Debug)]
pub struct IngestItem {
    /// Which relation.
    pub rel: Rel,
    /// Join key.
    pub key: i64,
    /// Secondary attribute.
    pub aux: i32,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Global arrival sequence number.
    pub seq: u64,
}

/// Messages exchanged by sources, reshufflers, joiners and the controller.
///
/// The data plane is **batch-first**: stream tuples travel in coalesced
/// [`IngestBatch`](OpMsg::IngestBatch)/[`DataBatch`](OpMsg::DataBatch)
/// runs so every mailbox/NIC hop pays its per-message cost once per batch
/// instead of once per tuple. A batch of one is the degenerate per-tuple
/// plane (`SessionBuilder::with_batch_tuples(1)`) and reproduces it exactly.
#[derive(Clone, Debug)]
pub enum OpMsg {
    /// Source → reshuffler: a coalesced run of raw stream tuples entering
    /// the operator (consecutive arrivals, batch-level round-robin).
    IngestBatch {
        /// The tuples, in arrival (sequence) order.
        items: Vec<IngestItem>,
    },
    /// Deactivated reshuffler → source: ingest that arrived after this
    /// machine's contraction began. A retiring reshuffler no longer
    /// signals future epoch changes, so anything it routed would travel
    /// without a signal barrier — instead it routes nothing and bounces
    /// the batch; the source re-emits it to an active reshuffler.
    IngestBounced {
        /// The unrouted tuples, still in arrival order.
        items: Vec<IngestItem>,
    },
    /// Reshuffler → joiner: a coalesced run of routed tuples. The epoch
    /// tag is hoisted to batch level — the routing reshuffler
    /// force-flushes its buffers before adopting a new epoch, so no
    /// batch ever spans an epoch boundary and the epoch-change markers
    /// stay FIFO behind every tuple they cover.
    DataBatch {
        /// The epoch the routing reshuffler was in (all tuples).
        tag: Epoch,
        /// Always `true` and read by nobody: every joiner stores what it
        /// receives. The field and its wire row stay only because
        /// `benchmark/` (frozen outside `benchmark`-archetype PRs) builds
        /// this variant by field name; removing it belongs to such a PR
        /// (ROADMAP).
        store: bool,
        /// The routed tuples (tickets already assigned), in route order.
        tuples: Vec<Tuple>,
        /// `arrived[i]` is when `tuples[i]` entered the operator —
        /// per-tuple, so latency accounting survives coalescing delays
        /// (a tuple aged in a batch buffer reports its true latency, not
        /// the batch flush time).
        arrived: Vec<SimTime>,
    },
    /// Controller → every reshuffler active after the change: adopt a new
    /// mapping — force-flush, plan `kind` against the current assignment
    /// ([`Reconfig::adopt`]), and signal every participating joiner its
    /// [`Role`].
    Change {
        /// The epoch being entered.
        new_epoch: Epoch,
        /// What kind of change.
        kind: Reconfig,
    },
    /// Controller → reshuffler: all joiners finalised the migration.
    /// Only used by the blocking baseline, which stalls routing until
    /// relocation ends and then redirects buffered tuples (§4.3 step iv).
    MigrationComplete {
        /// The epoch whose migration finished.
        epoch: Epoch,
    },
    /// Reshuffler → joiner: epoch-change signal (travels behind the
    /// reshuffler's earlier data). Sent to every joiner the change gives
    /// a role — contraction retirees included: a retiree needs every
    /// signal to know its Δ is closed before it sends its end-of-state
    /// marker. Expansion children are the exception; they are born from
    /// their parent's marker alone.
    Signal {
        /// Index of the signalling reshuffler.
        from_reshuffler: usize,
        /// The epoch being entered.
        new_epoch: Epoch,
        /// How many reshufflers signal — the count the joiner must
        /// collect: every machine active on either side of the change
        /// (machines an expansion activates never routed old-epoch data,
        /// but their signal must still precede the new-epoch data they
        /// route). Not a run-wide constant under trigger-time
        /// provisioning.
        expected_signals: u32,
        /// The receiving joiner's part in the change.
        role: Role,
    },
    /// Controller → a machine activated by an expansion: adopt this
    /// **pre-change** control-plane snapshot wholesale. Under
    /// trigger-time provisioning a dormant machine receives no broadcast
    /// traffic, so a freshly provisioned (or pool-reused) reshuffler is
    /// synced to the state every active reshuffler held just before the
    /// expansion, then receives the same [`OpMsg::Change`] — it runs the
    /// identical handler, and in particular **signals the parents** so
    /// that on its channels, too, the signal precedes any new-epoch data.
    Activate {
        /// The epoch the cluster was in before the expansion.
        epoch: Epoch,
        /// The pre-expansion grid assignment.
        assign: GridAssignment,
        /// The pre-expansion machine-slot layout (dormant pool state).
        layout: ElasticLayout,
    },
    /// Parent joiner → child joiner: no more expansion state will follow
    /// (travels behind the state batches in the Migration class). Carries
    /// the epoch so an otherwise-uncontacted child still learns its birth
    /// epoch.
    ExpandDone {
        /// The expansion epoch the child is born into.
        epoch: Epoch,
    },
    /// Controller → source: the active reshuffler set grew (expansion) or
    /// shrank (contraction) — replace the round-robin set, so retiring
    /// machines are no longer fed, and scale the flow-control window with
    /// it. Carries the explicit task list because after contractions the
    /// active machines are no longer a prefix of the provisioned index
    /// space.
    SourceResize {
        /// The new active reshufflers, in machine-index order.
        reshufflers: Vec<TaskId>,
    },
    /// Joiner → joiner: a batch of relocated state (to the exchange
    /// partner, a child, or the survivor).
    MigBatch {
        /// The tuples the sender's role forwards.
        tuples: Vec<Tuple>,
    },
    /// Joiner → partner or survivor: no more state will follow.
    MigDone,
    /// Joiner → controller: migration finalised locally.
    Ack {
        /// The acknowledging joiner (machine index).
        joiner: usize,
        /// The epoch whose migration finished.
        epoch: Epoch,
    },
    /// Reshuffler → source: `n` tuple copies entered the data plane
    /// (credit-based flow control; Storm's bounded spout-pending).
    /// Granted once per ingest batch, accounted in tuples.
    RoutedCopies {
        /// Copies fanned out for the routed ingest batch.
        n: u32,
        /// Distinct stream tuples the grant covers (the source tracks
        /// emitted-but-unrouted tuples with this).
        tuples: u32,
    },
    /// Joiner → source: `n` tuple copies were fully processed (credits
    /// returned; batched to limit message overhead).
    ProcessedCopies {
        /// Copies processed since the last credit return.
        n: u32,
    },
}

impl SimMessage for OpMsg {
    fn bytes(&self) -> u64 {
        match self {
            OpMsg::IngestBatch { items } | OpMsg::IngestBounced { items } => items
                .iter()
                .map(|it| it.bytes as u64 + TUPLE_HEADER_BYTES)
                .sum(),
            OpMsg::DataBatch { tuples, .. } => tuples
                .iter()
                .map(|t| t.bytes as u64 + TUPLE_HEADER_BYTES)
                .sum(),
            // Priced per kind: a step names its direction, an expansion
            // parent's role lists its three children.
            OpMsg::Change {
                kind: Reconfig::Step(_),
                ..
            } => 24,
            OpMsg::Change { .. } => 16,
            OpMsg::MigrationComplete { .. } => 16,
            OpMsg::Signal {
                role: Role::Expand(_),
                ..
            } => 56,
            OpMsg::Signal { .. } => 48,
            // The activation snapshot ships the grid assignment: price it
            // proportionally to the active cell count.
            OpMsg::Activate { assign, .. } => 64 + 8 * assign.j() as u64,
            OpMsg::ExpandDone { .. } => 16,
            OpMsg::SourceResize { reshufflers } => 8 + 8 * reshufflers.len() as u64,
            OpMsg::MigBatch { tuples } => {
                tuples.iter().map(|t| t.bytes as u64).sum::<u64>()
                    + TUPLE_HEADER_BYTES * tuples.len() as u64
            }
            OpMsg::MigDone => 8,
            OpMsg::Ack { .. } => 16,
            OpMsg::RoutedCopies { .. } | OpMsg::ProcessedCopies { .. } => 12,
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            // A signal of any kind must stay FIFO with the reshuffler's
            // earlier data.
            OpMsg::IngestBatch { .. } | OpMsg::DataBatch { .. } | OpMsg::Signal { .. } => {
                MsgClass::Data
            }
            // The child's end-of-state marker must stay FIFO with the
            // parent's state batches.
            OpMsg::MigBatch { .. } | OpMsg::MigDone | OpMsg::ExpandDone { .. } => {
                MsgClass::Migration
            }
            // Bounced ingest travels Control so the source re-routes it
            // promptly (it is already counted against the flow window).
            OpMsg::IngestBounced { .. }
            | OpMsg::Change { .. }
            | OpMsg::MigrationComplete { .. }
            | OpMsg::Activate { .. }
            | OpMsg::SourceResize { .. }
            | OpMsg::Ack { .. }
            | OpMsg::RoutedCopies { .. }
            | OpMsg::ProcessedCopies { .. } => MsgClass::Control,
        }
    }

    fn tuples(&self) -> u64 {
        // Batch-aware backends bound queues and weight their service in
        // tuple units; everything that is not a tuple batch counts as 1.
        match self {
            OpMsg::IngestBatch { items } | OpMsg::IngestBounced { items } => {
                items.len().max(1) as u64
            }
            OpMsg::DataBatch { tuples, .. } => tuples.len().max(1) as u64,
            OpMsg::MigBatch { tuples } => tuples.len().max(1) as u64,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_preserve_protocol_ordering() {
        let signal = |role| OpMsg::Signal {
            from_reshuffler: 0,
            new_epoch: 1,
            expected_signals: 4,
            role,
        };
        let data = OpMsg::DataBatch {
            tag: 0,
            store: true,
            tuples: vec![Tuple::new(Rel::R, 0, 0, 0)],
            arrived: vec![SimTime::ZERO],
        };
        // Signals of every kind share the Data class with routed tuples
        // (FIFO behind the reshuffler's old-epoch data), at the sizes the
        // simulator has always priced them.
        for (role, bytes) in [
            (Role::Step(dummy_spec()), 48),
            (Role::Expand(dummy_expand_spec()), 56),
            (Role::Contract(aoj_core::elastic::ContractRole::Survive), 48),
        ] {
            assert_eq!(signal(role).class(), data.class());
            assert_eq!(signal(role).bytes(), bytes);
        }
        for (kind, bytes) in [
            (Reconfig::Step(aoj_core::mapping::Step::HalveRows), 24),
            (Reconfig::Expand, 16),
            (Reconfig::Contract, 16),
        ] {
            let change = OpMsg::Change { new_epoch: 1, kind };
            assert_eq!((change.class(), change.bytes()), (MsgClass::Control, bytes));
        }
        // The end markers must share the Migration class with state batches.
        assert_eq!(
            OpMsg::MigDone.class(),
            OpMsg::MigBatch { tuples: vec![] }.class()
        );
        assert_eq!(OpMsg::MigDone.class(), MsgClass::Migration);
        assert_eq!(OpMsg::ExpandDone { epoch: 1 }.class(), MsgClass::Migration);
    }

    #[test]
    fn batch_bytes_sum_payloads() {
        let t = Tuple::new(Rel::R, 0, 0, 0).with_bytes(100);
        let m = OpMsg::MigBatch {
            tuples: vec![t, t, t],
        };
        assert_eq!(m.bytes(), 3 * (100 + 16));
        let d = OpMsg::DataBatch {
            tag: 0,
            store: true,
            tuples: vec![t, t],
            arrived: vec![SimTime::ZERO; 2],
        };
        assert_eq!(
            d.bytes(),
            2 * (100 + 16),
            "a size-1 batch prices like the old per-tuple message"
        );
        let i = OpMsg::IngestBatch {
            items: vec![IngestItem {
                rel: Rel::R,
                key: 0,
                aux: 0,
                bytes: 100,
                seq: 0,
            }],
        };
        assert_eq!(i.bytes(), 100 + 16);
    }

    #[test]
    fn tuple_units_follow_batch_sizes() {
        let t = Tuple::new(Rel::R, 0, 0, 0);
        let d = OpMsg::DataBatch {
            tag: 0,
            store: true,
            tuples: vec![t; 5],
            arrived: vec![SimTime::ZERO; 5],
        };
        assert_eq!(d.tuples(), 5);
        assert_eq!(OpMsg::MigBatch { tuples: vec![t; 3] }.tuples(), 3);
        assert_eq!(OpMsg::MigDone.tuples(), 1);
        assert_eq!(OpMsg::RoutedCopies { n: 4, tuples: 2 }.tuples(), 1);
    }

    fn dummy_spec() -> aoj_core::migration::MachineStepSpec {
        use aoj_core::mapping::{GridAssignment, Mapping, Step};
        use aoj_core::migration::plan_step;
        let a = GridAssignment::initial(Mapping::new(2, 1));
        plan_step(&a, Step::HalveRows).specs[0]
    }

    fn dummy_expand_spec() -> aoj_core::elastic::ExpandSpec {
        use aoj_core::elastic::plan_expansion;
        use aoj_core::mapping::{GridAssignment, Mapping};
        let a = GridAssignment::initial(Mapping::new(2, 2));
        plan_expansion(&a).specs[0]
    }
}
