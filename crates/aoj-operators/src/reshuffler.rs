//! The reshuffler task — and the controller, which is reshuffler 0 with
//! extra duties (§3.2: "One task among the reshufflers, referred to as the
//! controller, is assigned the additional responsibility of monitoring
//! global data statistics and triggering adaptivity changes").
//!
//! Every reshuffler keeps its own view of the epoch and grid assignment;
//! the controller additionally runs Alg. 1 (scaled statistics) + Alg. 2
//! (migration decisions) and gates migrations on joiner acks.

use aoj_core::decision::{Decision, DecisionConfig, MigrationDecider};
use aoj_core::elastic::{plan_contraction, ElasticLayout};
use aoj_core::epoch::{Epoch, Reconfig};
use aoj_core::mapping::{steps_between, GridAssignment, Mapping};
use aoj_core::ticket::{partition, TicketGen};
use aoj_core::tuple::{Rel, Tuple};
pub use aoj_simnet::ProgressSample;
use aoj_simnet::{Ctx, FlushCause, MachineId, Process, SimDuration, SimTime, TaskId};

use crate::batch::DataCoalescer;
use crate::elastic_runtime::{contraction_due, expansion_due, ElasticConfig, ElasticControl};
use crate::messages::OpMsg;
use crate::skew::SkewState;

/// A controller-side event, for post-run analysis (Fig. 8c's migration
/// shading, EXPERIMENTS.md narratives).
#[derive(Clone, Copy, Debug)]
pub enum ControlEvent {
    /// The controller decided an epoch change and broadcast it.
    Begin {
        /// What kind of change.
        kind: Reconfig,
        /// Global sequence number of the triggering tuple.
        seq: u64,
        /// Virtual time of the decision.
        at: SimTime,
        /// Mapping before.
        from: Mapping,
        /// Mapping after.
        to: Mapping,
        /// The epoch entered.
        epoch: Epoch,
    },
    /// Every participating joiner acked: the cluster is consistent with
    /// the new mapping (and a contraction's retirees are dormant with
    /// zero stored bytes).
    Complete {
        /// What kind of change.
        kind: Reconfig,
        /// Virtual time of the last ack.
        at: SimTime,
        /// The epoch whose change completed.
        epoch: Epoch,
    },
}

/// Periodic progress sampling shared by all operator flavours.
#[derive(Clone, Debug)]
pub struct ProgressRecorder {
    /// Collected samples.
    pub samples: Vec<ProgressSample>,
    every: u64,
    next_at: u64,
}

impl ProgressRecorder {
    /// Sample roughly every `every` sequence numbers.
    pub fn new(every: u64) -> ProgressRecorder {
        ProgressRecorder {
            samples: Vec::new(),
            every: every.max(1),
            next_at: 0,
        }
    }

    /// Record a sample if `seq` crossed the sampling boundary.
    pub fn maybe_sample(&mut self, seq: u64, ctx: &mut Ctx<'_, OpMsg>) {
        if seq < self.next_at {
            return;
        }
        self.next_at = seq + self.every;
        let at = ctx.now();
        self.samples.push(ctx.metrics().progress_sample(seq, at));
    }
}

/// Controller state carried by reshuffler 0.
pub struct ControllerState {
    /// Alg. 2 state over scaled estimates.
    pub decider: MigrationDecider,
    /// Whether the controller may trigger migrations (false for the
    /// Static operators, which still sample and count).
    pub adaptive: bool,
    /// The epoch change in flight, if any (gates decisions).
    pub in_flight: Option<Reconfig>,
    /// Machines to hand back to the backend once the in-flight change
    /// completes (a contraction's retirees, once every one acked).
    pub pending_retire: Vec<usize>,
    /// Elasticity state, present when the run may scale out (§4.2.2).
    pub elastic: Option<ElasticControl>,
    /// Acks still awaited for the in-flight change.
    pub acks_pending: usize,
    /// The target mapping the controller is stepping towards (multi-step
    /// chains are executed one epoch at a time).
    pub target: Option<Mapping>,
    /// Decision/completion log.
    pub events: Vec<ControlEvent>,
    /// Progress sampling.
    pub recorder: ProgressRecorder,
    /// Last global sequence number observed.
    pub last_seq: u64,
}

/// The reshuffler task.
pub struct ReshufflerTask {
    /// This reshuffler's index (0 = controller).
    pub index: usize,
    /// Epoch this reshuffler routes under.
    pub epoch: Epoch,
    /// Grid assignment this reshuffler routes with.
    pub assign: GridAssignment,
    /// Joiner task ids by machine index.
    pub joiner_tasks: Vec<TaskId>,
    /// Reshuffler task ids (for controller broadcasts).
    pub reshuffler_tasks: Vec<TaskId>,
    /// Ticket generator (independent per reshuffler).
    pub tickets: TicketGen,
    /// Cost model.
    pub cost: aoj_simnet::CostModel,
    /// Controller duties, present on reshuffler 0 of adaptive operators.
    pub controller: Option<ControllerState>,
    /// The source task (flow-control credit reports).
    pub source: TaskId,
    /// Blocking-migration baseline (§4.3 steps i–iv): stall routing while
    /// a migration is in flight and redirect buffered tuples afterwards.
    /// The paper's operator is non-blocking; this mode exists for the
    /// ablation that quantifies what Alg. 3 buys.
    pub blocking: bool,
    /// True while this reshuffler is stalling (blocking mode only).
    pub stalled: bool,
    /// Tuples buffered while stalled: (rel, key, aux, bytes, seq, arrived).
    pub stall_buffer: Vec<(Rel, i64, i32, u32, u64, SimTime)>,
    /// Tuples routed by this reshuffler.
    pub routed: u64,
    /// Per-destination coalescing buffers (the batch-first data plane).
    pub batch: DataCoalescer,
    /// True once this machine retired in a contraction and until an
    /// expansion reactivates it. A deactivated reshuffler no longer
    /// signals epoch changes, so it must route **nothing**: straggler
    /// ingest is bounced back to the source instead (see
    /// [`OpMsg::IngestBounced`]).
    pub deactivated: bool,
    /// Deterministic machine-slot bookkeeping for elastic runs: every
    /// active reshuffler evolves an identical copy (same change
    /// sequence), so expansion child allocation needs no coordination.
    pub layout: ElasticLayout,
    /// Routing policy plus the per-relation skew sketch this reshuffler
    /// maintains as it routes (published to the session's `SkewBoard`).
    pub skew: SkewState,
}

impl ControllerState {
    /// Fresh controller state for `j` joiners starting at `initial`.
    pub fn new(
        j: u32,
        initial: Mapping,
        cfg: DecisionConfig,
        adaptive: bool,
        sample_every: u64,
    ) -> Self {
        ControllerState {
            decider: MigrationDecider::new(j, initial, cfg),
            adaptive,
            in_flight: None,
            pending_retire: Vec::new(),
            elastic: None,
            acks_pending: 0,
            target: None,
            events: Vec::new(),
            recorder: ProgressRecorder::new(sample_every),
            last_seq: 0,
        }
    }

    /// Builder: arm live elasticity with the given configuration.
    pub fn with_elastic(mut self, cfg: Option<ElasticConfig>) -> Self {
        self.elastic = cfg.map(ElasticControl::new);
        self
    }
}

impl ReshufflerTask {
    /// Timer key used for coalescing-buffer age flushes.
    pub const FLUSH: u64 = 2;

    /// Route one tuple into the per-destination coalescing buffers,
    /// shipping any buffer the tuple filled. Returns the copy fan-out.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &mut self,
        ctx: &mut Ctx<'_, OpMsg>,
        rel: Rel,
        key: i64,
        aux: i32,
        bytes: u32,
        seq: u64,
        arrived: SimTime,
    ) -> u32 {
        let mp = self.assign.mapping();
        // The only policy decision in the hot path: the ticket. Anything
        // the policy picks is exact — every row × column pair meets in
        // exactly one cell — so hot keys can switch placement mid-stream.
        let ticket = self.skew.ticket(&mut self.tickets, rel, key, bytes, mp.m);
        let t = Tuple {
            seq,
            rel,
            key,
            aux,
            bytes,
            ticket,
        };
        let copies = match rel {
            Rel::R => {
                let row = partition(ticket, mp.n);
                for c in 0..mp.m {
                    let mach = self.assign.machine_at(row, c);
                    self.buffer_to(ctx, mach, t, arrived);
                }
                mp.m
            }
            Rel::S => {
                let col = partition(ticket, mp.m);
                for r in 0..mp.n {
                    let mach = self.assign.machine_at(r, col);
                    self.buffer_to(ctx, mach, t, arrived);
                }
                mp.n
            }
        };
        self.routed += 1;
        copies
    }

    fn buffer_to(&mut self, ctx: &mut Ctx<'_, OpMsg>, mach: usize, t: Tuple, arrived: SimTime) {
        if self.batch.push(mach, t, arrived) {
            self.flush_slot(ctx, mach);
        }
    }

    fn flush_slot(&mut self, ctx: &mut Ctx<'_, OpMsg>, mach: usize) {
        if let Some((tuples, arrived)) = self.batch.take(mach) {
            ctx.send(
                self.joiner_tasks[mach],
                OpMsg::DataBatch {
                    tag: self.epoch,
                    store: true,
                    tuples,
                    arrived,
                },
            );
        }
    }

    /// Ship every buffered tuple under the **current** epoch tag. Called
    /// before adopting a new mapping or expansion, so the epoch-change
    /// signals sent afterwards stay FIFO behind all old-epoch data.
    fn flush_all(&mut self, ctx: &mut Ctx<'_, OpMsg>, cause: FlushCause) {
        // Flush points also publish the sketch, so close-time summaries
        // include the stream's tail.
        self.skew.publish();
        for (mach, tuples, arrived) in self.batch.drain_all(cause) {
            ctx.send(
                self.joiner_tasks[mach],
                OpMsg::DataBatch {
                    tag: self.epoch,
                    store: true,
                    tuples,
                    arrived,
                },
            );
        }
        self.publish_flushes(ctx);
    }

    fn publish_flushes(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        self.batch
            .publish_flushes(ctx.metrics(), MachineId(self.index));
    }

    /// Controller: evaluate Alg. 2 and, when due, begin the next migration
    /// step (one step per epoch; chains continue after acks). On elastic
    /// runs, a migration checkpoint where every active joiner is past
    /// half capacity begins a ×4 expansion instead (§4.2.2), and one
    /// where every active joiner sits below the low-water mark begins the
    /// reverse 4→1 contraction.
    fn maybe_trigger(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        let Some(ctrl) = self.controller.as_mut() else {
            return;
        };
        if !ctrl.adaptive || ctrl.in_flight.is_some() {
            return;
        }
        let current = self.assign.mapping();
        // Elasticity first, and only at a true checkpoint (no multi-step
        // chain pending): cluster-wide fullness is a capacity problem
        // that no (n, m) reshape fixes, so scale-out takes priority over
        // shape changes (and scale-in over both). The due-checks run on
        // the controller's per-batch ingest path, so they read the grid's
        // machine iterator directly (no allocation); after a contraction
        // the active machines are no longer a prefix of the slot space.
        if let (None, Some(el)) = (ctrl.target, &ctrl.elastic) {
            if el.armed_expand()
                && expansion_due(ctx.metrics(), self.assign.machines(), el.cfg.capacity_bytes)
            {
                return self.begin(ctx, Reconfig::Expand);
            }
            if el.armed_contract(ctrl.last_seq, ctx.metrics().total_evicted_bytes())
                && Reconfig::Contract.apply(current).is_some()
                && contraction_due(
                    ctx.metrics(),
                    self.assign.machines(),
                    el.cfg.contract_below_bytes,
                )
            {
                return self.begin(ctx, Reconfig::Contract);
            }
        }
        // Continue an unfinished multi-step chain first.
        let target = match ctrl.target {
            Some(t) if t != current => Some(t),
            _ => {
                ctrl.target = None;
                match ctrl.decider.check() {
                    Decision::Migrate(t) => Some(t),
                    Decision::Stay => None,
                }
            }
        };
        let Some(target) = target else {
            return;
        };
        let step = steps_between(current, target)[0];
        let next = step.apply(current).expect("valid step");
        ctrl.target = if next == target { None } else { Some(target) };
        self.begin(ctx, Reconfig::Step(step));
    }

    /// Controller: begin the epoch change `kind` — log it, acquire the
    /// machines it activates, broadcast it, and tell the source when the
    /// active set changes size. It completes when every participating
    /// joiner has acked.
    fn begin(&mut self, ctx: &mut Ctx<'_, OpMsg>, kind: Reconfig) {
        let ctrl = self
            .controller
            .as_mut()
            .expect("only the controller begins epoch changes");
        let from = self.assign.mapping();
        let to = kind.apply(from).expect("valid reconfiguration");
        let new_epoch = self.epoch + 1;
        // The machines the change activates (dormant pool first, fresh
        // slots after) and the ones it retires.
        let elastic = ctrl.elastic.as_mut();
        let (joining, leaving) = match kind {
            Reconfig::Step(_) => {
                ctrl.decider.set_current(to);
                (Vec::new(), Vec::new())
            }
            Reconfig::Expand => {
                elastic.expect("only elastic runs expand").expansions_done += 1;
                ctrl.decider.expand();
                let children = self.layout.peek_children(3 * from.j() as usize);
                (children, Vec::new())
            }
            Reconfig::Contract => {
                elastic
                    .expect("only elastic runs contract")
                    .contractions_done += 1;
                ctrl.decider.contract();
                (Vec::new(), plan_contraction(&self.assign).retired)
            }
        };
        ctrl.in_flight = Some(kind);
        // Every machine active on either side of the change takes part:
        // parents and children, survivors and retirees all ack.
        ctrl.acks_pending = from.j().max(to.j()) as usize;
        ctrl.events.push(ControlEvent::Begin {
            kind,
            seq: ctrl.last_seq,
            at: ctx.now(),
            from,
            to,
            epoch: new_epoch,
        });
        let change = || OpMsg::Change { new_epoch, kind };
        // Trigger-time provisioning: acquire the joining machines now.
        // ALL provisions strictly before the first send: an
        // early-activated child signals its parents, whose joiners
        // immediately stream state to *other* children — on real threads
        // that fan-out races the rest of this effect list, so every child
        // machine must already hold its worker shard.
        for &c in &joining {
            ctx.provision(MachineId(c));
        }
        // Each newly activated reshuffler heard no broadcasts while
        // dormant, so it first gets a **pre-change** control-plane
        // snapshot (`Activate`) and then the same `Change` as everyone
        // else: it runs the identical handler and — crucially — signals
        // the parents too, so on every channel that will ever carry
        // new-epoch data a signal travels first.
        for &c in &joining {
            ctx.send(
                self.reshuffler_tasks[c],
                OpMsg::Activate {
                    epoch: self.epoch,
                    assign: self.assign.clone(),
                    layout: self.layout.clone(),
                },
            );
            ctx.send(self.reshuffler_tasks[c], change());
        }
        // Broadcast to the **active** reshufflers only: dormant machines
        // hear nothing while retired. A step goes out in grid order, a
        // resize in the machine-index order of the source's list (the
        // orders they have always had — effects apply in emission order).
        let mut active: Vec<usize> = self.assign.machines().collect();
        let resized = from.j() != to.j();
        if resized {
            active.sort_unstable();
        }
        for &m in &active {
            ctx.send(self.reshuffler_tasks[m], change());
        }
        if resized {
            // The source starts feeding the joining machines and stops
            // feeding the leaving ones.
            active.retain(|m| !leaving.contains(m));
            active.extend(&joining);
            active.sort_unstable();
            let reshufflers = active.iter().map(|&m| self.reshuffler_tasks[m]).collect();
            ctx.send(self.source, OpMsg::SourceResize { reshufflers });
        }
        ctrl.pending_retire = leaving;
    }
}

impl Process<OpMsg> for ReshufflerTask {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::IngestBatch { items } => {
                if self.deactivated {
                    // In flight when the source shrank its round-robin
                    // set. Routing it here would bypass the signal
                    // barrier (this machine no longer hears epoch
                    // changes), so hand it back for re-routing.
                    ctx.send(self.source, OpMsg::IngestBounced { items });
                    return SimDuration::from_micros(self.cost.control_us);
                }
                // Alg. 1 lines 3/5 ("scaled increment"): the controller
                // sees ~1/J of the uniformly shuffled stream and scales
                // its local sample by J to estimate global cardinalities
                // — no statistics channel, no synchronisation. Units are
                // bytes so the unequal-tuple-size generalisation (§4.2.2)
                // comes for free.
                if let Some(ctrl) = self.controller.as_mut() {
                    let scale = self.assign.j() as u64;
                    for it in &items {
                        ctrl.decider
                            .observe_only(it.rel == Rel::R, it.bytes as u64 * scale);
                        ctrl.last_seq = it.seq;
                        ctrl.recorder.maybe_sample(it.seq, ctx);
                    }
                }
                if self.stalled {
                    // Blocking baseline: hold the tuples until relocation
                    // completes; their latency clocks keep running.
                    let now = ctx.now();
                    for it in items {
                        self.stall_buffer
                            .push((it.rel, it.key, it.aux, it.bytes, it.seq, now));
                    }
                    return SimDuration::from_micros(1);
                }
                let arrived = ctx.now();
                let n_tuples = items.len() as u32;
                let mut copies = 0u32;
                for it in items {
                    copies += self.route(ctx, it.rel, it.key, it.aux, it.bytes, it.seq, arrived);
                }
                ctx.send(
                    self.source,
                    OpMsg::RoutedCopies {
                        n: copies,
                        tuples: n_tuples,
                    },
                );
                self.publish_flushes(ctx);
                self.batch.arm_flush_timer(ctx, Self::FLUSH);
                self.maybe_trigger(ctx);
                SimDuration::from_micros(
                    self.cost.recv_overhead_us + copies as u64 * self.cost.store_us / 2,
                )
            }
            OpMsg::Change { new_epoch, kind } => {
                assert_eq!(new_epoch, self.epoch + 1, "reshuffler skipped an epoch");
                // Epoch boundary: ship everything buffered under the old
                // tag before signalling, so the Signal stays FIFO behind
                // the data it covers.
                self.flush_all(ctx, FlushCause::Boundary);
                // Plan against the pre-change assignment, then adopt the
                // new grid. Every reshuffler — the already active ones
                // and the machines an expansion activates (synced by
                // `Activate` to the pre-change state first) — computes
                // the same deterministic plan, so the roles and child
                // allocations agree.
                let before = self.assign.j();
                let roles = kind.adopt(&mut self.assign, &mut self.layout);
                self.epoch = new_epoch;
                // Every machine active on either side of the change
                // signals: the ones an expansion activates have no
                // old-epoch data (trivially FIFO) but their signal must
                // still precede any new-epoch data they route.
                let expected_signals = before.max(self.assign.j());
                // A machine the change retired stops routing (stragglers
                // bounce to the source) until an expansion reactivates it.
                self.deactivated = !self.assign.machines().any(|m| m == self.index);
                // Signal every machine the plan gives a role — retirees
                // included: a retiree needs every signal to know its Δ
                // closed before it sends its end-of-state marker.
                for (machine, role) in roles {
                    ctx.send(
                        self.joiner_tasks[machine],
                        OpMsg::Signal {
                            from_reshuffler: self.index,
                            new_epoch,
                            expected_signals,
                            role,
                        },
                    );
                }
                if self.blocking {
                    self.stalled = true;
                }
                SimDuration::from_micros(self.cost.control_us * 2)
            }
            OpMsg::Activate {
                epoch,
                assign,
                layout,
            } => {
                // This machine was just provisioned by an expansion (first
                // activation or pool reuse after retirement): adopt the
                // **pre-change** control plane wholesale — the ordinary
                // `Change` broadcast that follows takes it across the
                // expansion like every other reshuffler. Routing state
                // (tickets, coalescing buffers) is position-independent
                // and carries over; a pool-reused reshuffler's buffers
                // were force-flushed before it went dormant.
                assert!(
                    self.controller.is_none(),
                    "the controller's machine can never have been dormant"
                );
                self.epoch = epoch;
                self.assign = assign;
                self.layout = layout;
                // A pool-reused reshuffler must come back clean: it
                // stopped routing at deactivation (stragglers bounced),
                // so nothing can be buffered or stalled from its
                // previous life.
                debug_assert!(self.batch.is_empty());
                debug_assert!(self.stall_buffer.is_empty());
                self.stalled = false;
                self.deactivated = false;
                SimDuration::from_micros(self.cost.control_us)
            }
            OpMsg::MigrationComplete { epoch } => {
                assert_eq!(epoch, self.epoch, "stale completion broadcast");
                self.stalled = false;
                // §4.3 step (iv): redirect buffered tuples to their new
                // locations (now routed under the new mapping), and ship
                // them promptly — a stall is latency enough.
                let buffered = std::mem::take(&mut self.stall_buffer);
                let n_tuples = buffered.len() as u32;
                let mut copies_total = 0u32;
                for (rel, key, aux, bytes, seq, arrived) in buffered {
                    copies_total += self.route(ctx, rel, key, aux, bytes, seq, arrived);
                }
                self.flush_all(ctx, FlushCause::Boundary);
                if copies_total > 0 {
                    ctx.send(
                        self.source,
                        OpMsg::RoutedCopies {
                            n: copies_total,
                            tuples: n_tuples,
                        },
                    );
                }
                SimDuration::from_micros(
                    self.cost.control_us + copies_total as u64 * self.cost.store_us / 2,
                )
            }
            OpMsg::Ack { joiner: _, epoch } => {
                let ctrl = self
                    .controller
                    .as_mut()
                    .expect("only the controller receives acks");
                let kind = ctrl.in_flight.expect("ack without in-flight change");
                assert_eq!(epoch, self.epoch, "stale ack");
                ctrl.acks_pending -= 1;
                if ctrl.acks_pending == 0 {
                    ctrl.in_flight = None;
                    ctrl.events.push(ControlEvent::Complete {
                        kind,
                        at: ctx.now(),
                        epoch,
                    });
                    // Every retiree acked dormant: hand their machines
                    // back to the backend. Straggler control-plane work
                    // still drains; a later expansion re-provisions them.
                    for m in std::mem::take(&mut ctrl.pending_retire) {
                        ctx.retire(MachineId(m));
                    }
                    if self.blocking {
                        for m in self.assign.machines() {
                            ctx.send(self.reshuffler_tasks[m], OpMsg::MigrationComplete { epoch });
                        }
                    }
                    // Chain to the next step / re-evaluate immediately.
                    self.maybe_trigger(ctx);
                }
                SimDuration::from_micros(self.cost.control_us)
            }
            other => panic!("reshuffler received unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OpMsg>, key: u64) -> SimDuration {
        debug_assert_eq!(key, Self::FLUSH);
        // Age flush: ship every partial batch so a trickle of arrivals
        // (or a closed flow-control window) never strands buffered
        // copies. The next routed tuple re-arms the timer.
        self.batch.on_flush_timer();
        self.flush_all(ctx, FlushCause::Deadline);
        SimDuration::from_micros(self.cost.control_us)
    }
}
