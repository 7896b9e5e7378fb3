//! The eventually consistent, non-blocking epoch-change protocol
//! (Alg. 3, §4.3.1) — the operator's **one** adaptivity mechanism. A
//! migration step (Lemma 4.4), a ×4 expansion (§4.2.2, Fig. 5) and a 4→1
//! contraction are the same protocol run with three forwarding rules.
//!
//! Blocking state relocation stalls the stream for as long as the transfer
//! takes — unacceptable for operators holding full history. Instead, the
//! operator divides execution into **epochs**: every change of the mapping
//! ([`Reconfig`]) increments the epoch, reshufflers tag tuples with the
//! epoch they route under, and joiners reason about four tuple sets:
//!
//! * `τ` — state received before the change was decided,
//! * `Δ` — tuples tagged with the *old* epoch arriving during the change
//!   (routed under the old mapping by reshufflers that had not yet heard),
//! * `Δ′` — tuples tagged with the *new* epoch (already routed correctly),
//! * `µ` — state copies received from other joiners.
//!
//! Lemma 4.6 decomposes the correct output into seven joins; Alg. 3
//! computes each exactly once while tuples keep flowing:
//!
//! | event                   | joins emitted                                 |
//! |-------------------------|-----------------------------------------------|
//! | old-epoch tuple `t`     | `{t} ⋈ (τ ∪ Δ)`; if `t ∈ Keep`: `{t} ⋈ Δ′`    |
//! | new-epoch tuple `t`     | `{t} ⋈ (µ ∪ Δ′)`; `{t} ⋈ Keep(τ ∪ Δ)`         |
//! | relocated tuple `t`     | `{t} ⋈ Δ′`                                    |
//!
//! The first epoch-change signal ships the part of `τ` the joiner's
//! [`Role`] forwards, and every later old-epoch arrival the role forwards
//! follows it (it is part of the relocated state). When a joiner has
//! received the signal from **every** reshuffler (FIFO channels ⇒ no more
//! old-epoch tuples can arrive) it sends each receiver of its state an
//! end-of-state marker; when it also holds every marker its role awaits,
//! it *finalises*: discards are dropped and `τ ← Keep(τ∪Δ) ∪ µ ∪ Δ′` — the
//! state is consistent with the new mapping (Theorem 4.5).
//!
//! ## One protocol, three forwarding rules
//!
//! What differs between the kinds of change is only what [`Role`] answers:
//!
//! | role                | `Keep`                      | forwards where                                   | markers awaited | transfer bound              |
//! |---------------------|-----------------------------|--------------------------------------------------|-----------------|-----------------------------|
//! | step (Lemma 4.4)    | exchange relation, and the refining relation's matching bit | exchange relation → partner | 1 (the partner) | the exchange: `\|R\|/n` per machine |
//! | expansion parent    | what lands in child `(0,0)` | every tuple → the 1–2 children whose cells cover it | 0          | ≤ 2× stored (Theorem 4.3)   |
//! | contraction survivor| everything                  | nothing                                          | 3 (its retirees)| —                           |
//! | contraction retiree | nothing                     | its forward relation → the survivor (S from the row sibling, R from the column sibling, nothing from the diagonal) | 0 | ≤ 1× stored |
//!
//! An expansion **child** has no role: it starts *unborn* — empty state,
//! no epoch. New-epoch tuples routed to it accumulate in `Δ′` (probing
//! `µ ∪ Δ′`, Alg. 3's new-epoch path with `Keep(τ ∪ Δ) = ∅`), parent state
//! accumulates in `µ` (probing `Δ′`), and the parent's end-of-state marker
//! — FIFO behind all of `µ` — is its only completion condition: every old
//! tuple relevant to the child flows through its parent, so it needs no
//! reshuffler signals. At *birth* it finalises `τ ← µ ∪ Δ′` and joins the
//! cluster at the expansion epoch. A retiree finalises into that same
//! dormant state, ready for a later expansion to re-activate it; new-epoch
//! tuples can never reach it (reshufflers only route to survivors under
//! the contracted mapping).
//!
//! Exactly-once coverage is the seven-join argument with `µ` sourced from
//! one partner, one parent or three retirees. Each old×old pair is
//! emitted at the unique old cell covering it (parents and retirees keep
//! probing `τ ∪ Δ` until their `Δ` closes — the receiver never stored the
//! sender's complement partitions); each old×new pair at the one machine
//! whose new cell covers it (via `Keep(τ ∪ Δ)` for its own state, via
//! `µ ⋈ Δ′` for relocated state — every forwarding rule delivers a
//! relocated tuple to each new owner exactly once; the diagonal retiree
//! forwards nothing because both of its partitions reach the survivor
//! from the other two); each new×new pair there via `Δ′`.
//!
//! ## Ordering contract
//!
//! What this module demands from its host (satisfied by `aoj-simnet`'s
//! channels and message classes):
//!
//! 1. per-channel FIFO between any two tasks *within a message class*;
//! 2. a reshuffler's epoch signal travels in the same class/channel as its
//!    data tuples;
//! 3. an end-of-state marker travels in the same class/channel as the
//!    relocated state it closes.

use crate::elastic::{
    plan_contraction, plan_expansion_with, ContractRole, ElasticLayout, ExpandSpec,
};
use crate::index::{JoinIndex, ProbeStats};
use crate::lifecycle::EvictStats;
use crate::mapping::{GridAssignment, Mapping, Step};
use crate::migration::{plan_step, MachineStepSpec};
use crate::tuple::{Rel, Tuple};

/// Epoch counter. The system starts in epoch 0; each change increments.
pub type Epoch = u32;

/// The kind of an epoch change, as the control plane names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reconfig {
    /// A one-step migration `(n, m) → (n/2, 2m)` or `(2n, m/2)`.
    Step(Step),
    /// The ×4 expansion `(n, m) → (2n, 2m)`: every machine splits in four.
    Expand,
    /// The 4→1 contraction `(n, m) → (n/2, m/2)`: every aligned 2×2 cell
    /// group merges into one survivor.
    Contract,
}

impl Reconfig {
    /// The mapping this change leads to, if `from` admits it.
    pub fn apply(self, from: Mapping) -> Option<Mapping> {
        match self {
            Reconfig::Step(step) => step.apply(from),
            Reconfig::Expand => Some(Mapping::new(from.n * 2, from.m * 2)),
            Reconfig::Contract => {
                (from.n >= 2 && from.m >= 2).then(|| Mapping::new(from.n / 2, from.m / 2))
            }
        }
    }

    /// Plan this change against `assign` (and the machine-slot `layout`
    /// an expansion allocates children from), apply it to both, and return
    /// each participating machine's [`Role`] in the order reshufflers
    /// signal them. Deterministic, so every reshuffler holding the same
    /// pre-change view computes the same roles without coordination.
    pub fn adopt(
        self,
        assign: &mut GridAssignment,
        layout: &mut ElasticLayout,
    ) -> Vec<(usize, Role)> {
        match self {
            Reconfig::Step(step) => {
                let plan = plan_step(assign, step);
                assign.apply_step(step);
                let roles = plan.specs.into_iter();
                roles.map(|s| (s.machine, Role::Step(s))).collect()
            }
            Reconfig::Expand => {
                let children = layout.allocate_children(3 * assign.j() as usize);
                let plan = plan_expansion_with(assign, &children);
                assign.apply_expansion_with(&children);
                let roles = plan.specs.into_iter();
                roles.map(|s| (s.machine, Role::Expand(s))).collect()
            }
            Reconfig::Contract => {
                let plan = plan_contraction(assign);
                // `apply_contraction` relabels by the same plan, so the
                // grid and the signalled roles cannot disagree; the
                // retired machines join the dormant pool a later
                // re-expansion allocates from.
                layout.release(&assign.apply_contraction());
                let roles = plan.specs.into_iter();
                roles.map(|s| (s.machine, Role::Contract(s.role))).collect()
            }
        }
    }
}

/// Up to three machine indices held inline: where one tuple is forwarded
/// ([`Role::forwards`], at most two) or where a role's state streams go
/// ([`Role::streams_to`]). Derefs to the slice of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Machines {
    len: u8,
    ids: [usize; 3],
}

impl Machines {
    fn of(ids: &[usize]) -> Machines {
        let mut out = Machines::default();
        ids.iter().for_each(|&id| out.push(id));
        out
    }

    fn push(&mut self, id: usize) {
        self.ids[self.len as usize] = id;
        self.len += 1;
    }
}

impl std::ops::Deref for Machines {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.ids[..self.len as usize]
    }
}

/// One machine's part in an epoch change: everything Alg. 3 needs to know
/// about the kind of change (see the module docs' table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A one-step migration (Lemma 4.4): partner exchange + keep bit.
    Step(MachineStepSpec),
    /// A ×4 expansion parent (Fig. 5): split state across four children.
    Expand(ExpandSpec),
    /// A 4→1 contraction: the survivor keeps everything and absorbs three
    /// retirees' state streams; a retiree keeps nothing, forwards one
    /// relation to the survivor, then goes dormant.
    Contract(ContractRole),
}

impl Role {
    /// Does this machine's post-change state include `t`?
    pub(crate) fn keeps(&self, t: &Tuple) -> bool {
        match self {
            Role::Step(spec) => spec.is_kept(t),
            Role::Expand(spec) => spec.destinations(t).keep,
            Role::Contract(role) => *role == ContractRole::Survive,
        }
    }

    /// The machines a copy of old-state tuple `t` must be sent to.
    pub fn forwards(&self, t: &Tuple) -> Machines {
        match self {
            Role::Step(spec) if spec.is_migrated(t) => Machines::of(&[spec.partner]),
            Role::Expand(spec) => {
                // Copies go to every child whose new cell covers `t`.
                let d = spec.destinations(t);
                let mut out = Machines::default();
                for (child, go) in spec.children.into_iter().zip([d.to_01, d.to_10, d.to_11]) {
                    if go {
                        out.push(child);
                    }
                }
                out
            }
            // The other relation's copies reach the survivor through the
            // retiree's row/column siblings (or the survivor's own state).
            Role::Contract(ContractRole::Retire {
                survivor,
                forward_rel,
            }) if *forward_rel == Some(t.rel) => Machines::of(&[*survivor]),
            _ => Machines::default(),
        }
    }

    /// The machines this role streams state to; each is owed an
    /// end-of-state marker once every reshuffler has signalled (the
    /// diagonal retiree forwards nothing and still owes its marker).
    pub fn streams_to(&self) -> Machines {
        match self {
            Role::Step(spec) => Machines::of(&[spec.partner]),
            Role::Expand(spec) => Machines::of(&spec.children),
            Role::Contract(ContractRole::Retire { survivor, .. }) => Machines::of(&[*survivor]),
            Role::Contract(ContractRole::Survive) => Machines::default(),
        }
    }

    /// End-of-state markers this role waits for before finalising.
    pub(crate) fn markers_awaited(&self) -> usize {
        match self {
            Role::Step(_) => 1,
            // Parents and retirees receive no relocated state.
            Role::Expand(_) | Role::Contract(ContractRole::Retire { .. }) => 0,
            // A survivor absorbs all three retirees of its group.
            Role::Contract(ContractRole::Survive) => 3,
        }
    }

    /// True for a contraction retiree.
    pub fn retires(&self) -> bool {
        matches!(self, Role::Contract(ContractRole::Retire { .. }))
    }
}

/// Outcome of feeding one data tuple to the joiner.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataOutcome {
    /// Probe statistics accumulated across all sets probed.
    pub stats: ProbeStats,
    /// The caller must forward a copy of the tuple to these machines: it
    /// is an old-epoch arrival its role relocates (Alg. 3 line 19–20, the
    /// Δ analogue of the first signal's state shipment).
    pub forward: Machines,
}

/// Outcome of an epoch-change signal.
#[derive(Clone, Copy, Debug, Default)]
pub struct SignalOutcome {
    /// First signal of this change: the caller must ship
    /// [`EpochJoiner::snapshot`] as its role forwards it (Alg. 3 line 3).
    pub start_migration: bool,
    /// All reshufflers have signalled: the caller must send an
    /// end-of-state marker to every machine its role streams to.
    pub all_signals: bool,
}

/// Result of finalising a migration (for cost accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FinalizeSummary {
    /// Tuples dropped (the `Discard` class).
    pub discarded: u64,
    /// Tuples merged into the new `τ` from `Δ`, `µ` and `Δ′`.
    pub merged: u64,
}

/// Per-joiner state machine implementing Alg. 3 over pluggable
/// [`JoinIndex`] state.
pub struct EpochJoiner {
    epoch: Epoch,
    migrating: bool,
    new_epoch: Epoch,
    role: Option<Role>,
    signals: Vec<bool>,
    signals_remaining: usize,
    /// End-of-state markers received for the in-flight reconfiguration.
    /// Counted, not boolean: a contraction survivor fans in three
    /// retirees' streams where a step migration has one partner.
    partners_done: usize,
    /// Markers required before finalising (set when the role is learned;
    /// markers may legitimately arrive first).
    partners_expected: usize,
    n_reshufflers: usize,
    /// False for a dormant expansion child that has not finalised its
    /// birth yet (see the module docs on elastic expansion).
    born: bool,
    /// The expansion epoch an unborn child will adopt at birth, learned
    /// from the first new-epoch tuple or the parent's end marker.
    birth_epoch: Option<Epoch>,

    tau: Box<dyn JoinIndex>,
    delta: Box<dyn JoinIndex>,
    delta_prime: Box<dyn JoinIndex>,
    mu: Box<dyn JoinIndex>,

    /// Total matches emitted by this joiner (diagnostics / reports).
    pub(crate) matches_emitted: u64,
}

impl EpochJoiner {
    /// Create a joiner with empty state. `make_index` builds one
    /// [`JoinIndex`] per tuple set; `n_reshufflers` is the number of
    /// epoch-change signals to expect per migration.
    pub fn new(make_index: &dyn Fn() -> Box<dyn JoinIndex>, n_reshufflers: usize) -> EpochJoiner {
        EpochJoiner {
            epoch: 0,
            migrating: false,
            new_epoch: 0,
            role: None,
            signals: vec![false; n_reshufflers],
            signals_remaining: 0,
            partners_done: 0,
            partners_expected: 1,
            n_reshufflers,
            born: true,
            birth_epoch: None,
            tau: make_index(),
            delta: make_index(),
            delta_prime: make_index(),
            mu: make_index(),
            matches_emitted: 0,
        }
    }

    /// Create a dormant expansion child: provisioned but unborn. It holds
    /// no state and expects no signals; it wakes up when its parent's
    /// expansion state (µ), new-epoch data (Δ′) or the parent's
    /// end-of-state marker first reaches it, and joins the cluster as a
    /// normal joiner at [`birth`](EpochJoiner::on_parent_done).
    pub fn new_dormant(
        make_index: &dyn Fn() -> Box<dyn JoinIndex>,
        n_reshufflers: usize,
    ) -> EpochJoiner {
        let mut j = EpochJoiner::new(make_index, n_reshufflers);
        j.born = false;
        j
    }

    /// Reconstruct a stable joiner from checkpointed state: `tuples` are
    /// the live τ set of a quiesced joiner at `epoch`, inserted and then
    /// sealed so that windowed eviction can expire them (see
    /// [`crate::lifecycle`]). Under a count window of `sub_span`-tuple
    /// sub-windows they are sealed one segment per sub-window they fall
    /// in, and expire as they would have without the restore; otherwise
    /// into one segment that expires wholesale.
    pub fn restored(
        make_index: &dyn Fn() -> Box<dyn JoinIndex>,
        n_reshufflers: usize,
        epoch: Epoch,
        tuples: &[Tuple],
        sub_span: Option<u64>,
    ) -> EpochJoiner {
        let mut j = EpochJoiner::new(make_index, n_reshufflers);
        j.epoch = epoch;
        j.new_epoch = epoch;
        match sub_span {
            Some(_) => j.merge_into_tau(tuples.to_vec(), sub_span),
            None => j.tau.insert_batch(tuples),
        }
        j.tau.seal_segment();
        j
    }

    /// Seal the live (τ) index's active run into a sub-window segment
    /// (see [`JoinIndex::seal_segment`]). Called by the windowed-eviction
    /// driver at sub-window boundaries; τ only — the migration sets Δ, Δ′
    /// and µ are transient and merge away at finalisation.
    pub fn seal_live_segment(&mut self) {
        self.tau.seal_segment();
    }

    /// Drop expired τ segments (see [`JoinIndex::evict_before`]). Only
    /// legal while **stable**: eviction at epoch boundaries never races a
    /// migration's state partitioning, so Alg. 3's marker-FIFO argument
    /// is untouched.
    pub fn evict_before(&mut self, bound: u64) -> EvictStats {
        assert!(
            self.born && !self.migrating,
            "windowed eviction must only run on a stable joiner"
        );
        self.tau.evict_before(bound)
    }

    /// The live τ tuples of a quiesced joiner, for a checkpoint. Panics
    /// if a reconfiguration is in flight — checkpoints are taken at
    /// quiesced migration checkpoints only, where Δ, Δ′ and µ are empty.
    pub fn live_snapshot(&self) -> Vec<Tuple> {
        assert!(
            !self.migrating,
            "checkpoint requires a quiesced (stable) joiner"
        );
        debug_assert_eq!(self.delta.len() + self.delta_prime.len() + self.mu.len(), 0);
        self.tau.snapshot()
    }

    /// True once this joiner participates in the cluster (always, except
    /// for a dormant expansion child before its birth finalisation).
    #[inline]
    pub fn is_born(&self) -> bool {
        self.born
    }

    /// Current (finalised) epoch.
    #[inline]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// True while a migration is in flight.
    #[inline]
    pub fn is_migrating(&self) -> bool {
        self.migrating
    }

    /// Stored tuples across all four sets.
    pub fn stored_tuples(&self) -> usize {
        self.tau.len() + self.delta.len() + self.delta_prime.len() + self.mu.len()
    }

    /// Stored bytes across all four sets (the joiner's ILF contribution).
    pub fn stored_bytes(&self) -> u64 {
        self.tau.bytes() + self.delta.bytes() + self.delta_prime.bytes() + self.mu.bytes()
    }

    /// Set sizes `[τ, Δ, Δ′, µ]` (diagnostics).
    pub fn set_sizes(&self) -> [usize; 4] {
        [
            self.tau.len(),
            self.delta.len(),
            self.delta_prime.len(),
            self.mu.len(),
        ]
    }

    fn emit(incoming: &Tuple, stored: &Tuple, out: &mut dyn FnMut(&Tuple, &Tuple)) {
        // Normalise output pairs to (r, s).
        if incoming.rel == Rel::R {
            out(incoming, stored);
        } else {
            out(stored, incoming);
        }
    }

    /// Feed a data tuple tagged with `tag` by its reshuffler.
    ///
    /// Panics if the protocol invariants are violated (a tag more than one
    /// epoch away, or an old-epoch tuple after all signals) — Theorem 4.6
    /// guarantees these cannot happen under a compliant host.
    pub fn on_data(
        &mut self,
        tag: Epoch,
        t: Tuple,
        out: &mut dyn FnMut(&Tuple, &Tuple),
    ) -> DataOutcome {
        let mut outcome = DataOutcome::default();
        let mut matches = 0u64;
        if !self.born {
            // Unborn expansion child: everything routed here is new-epoch
            // by construction (reshufflers only target this machine under
            // the expanded mapping). Alg. 3's new-epoch path with
            // `Keep(τ ∪ Δ) = ∅`.
            let birth = *self.birth_epoch.get_or_insert(tag);
            assert_eq!(tag, birth, "unborn child saw data from two epochs");
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            outcome.stats += self.mu.probe(&t, &mut cb);
            outcome.stats += self.delta_prime.probe(&t, &mut cb);
            self.delta_prime.insert(t);
            self.matches_emitted += matches;
            return outcome;
        }
        if !self.migrating {
            assert_eq!(tag, self.epoch, "stable joiner got tuple from epoch {tag}");
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            outcome.stats += self.tau.probe(&t, &mut cb);
            self.tau.insert(t);
        } else if tag == self.epoch {
            // Old-epoch tuple: Alg. 3 HandleTuple1, lines 15–20.
            assert!(
                self.signals_remaining > 0,
                "old-epoch tuple after all reshuffler signals (FIFO violation)"
            );
            let role = self.role.expect("migrating implies a role");
            {
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                // {t} ⋈ (τ ∪ Δ)
                outcome.stats += self.tau.probe(&t, &mut cb);
                outcome.stats += self.delta.probe(&t, &mut cb);
            }
            if role.keeps(&t) {
                // t ∈ Keep(Δ): {t} ⋈ Δ′
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.delta_prime.probe(&t, &mut cb);
            }
            // A Δ tuple is part of the state being relocated.
            outcome.forward = role.forwards(&t);
            self.delta.insert(t);
        } else {
            // New-epoch tuple: Alg. 3 lines 12–14 / 24–26.
            assert_eq!(
                tag, self.new_epoch,
                "tuple from epoch {tag} while migrating {} -> {}",
                self.epoch, self.new_epoch
            );
            let role = self.role.expect("migrating implies a role");
            assert!(
                !role.retires(),
                "retiring joiner received new-epoch data (reshufflers must \
                 only route to survivors under the contracted mapping)"
            );
            {
                // {t} ⋈ (µ ∪ Δ′)
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.mu.probe(&t, &mut cb);
                outcome.stats += self.delta_prime.probe(&t, &mut cb);
            }
            {
                // {t} ⋈ Keep(τ ∪ Δ)
                let mut filter = |stored: &Tuple| role.keeps(stored);
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.tau.probe_filtered(&t, &mut filter, &mut cb);
                outcome.stats += self.delta.probe_filtered(&t, &mut filter, &mut cb);
            }
            self.delta_prime.insert(t);
        }
        self.matches_emitted += matches;
        outcome
    }

    /// True when [`on_data_batch`](EpochJoiner::on_data_batch)'s bulk
    /// fast path is valid for tuples tagged `tag`: a born, stable joiner
    /// in that epoch. Mid-migration (or unborn) there are extra sets to
    /// consult and forwarding decisions to make, so callers must fall
    /// back to per-tuple [`on_data`](EpochJoiner::on_data).
    #[inline]
    pub fn stable_for(&self, tag: Epoch) -> bool {
        self.born && !self.migrating && tag == self.epoch
    }

    /// Bulk fast path for a coalesced batch of stable-phase data tuples:
    /// `τ` is the only live set, so the whole batch goes through the
    /// index's [`JoinIndex::stream_batch`] —
    /// semantically identical to feeding each tuple to
    /// [`on_data`](EpochJoiner::on_data) in order, including intra-batch
    /// pairs. `out(i, stored)` receives the batch index of the *probing*
    /// tuple (for per-tuple latency attribution) plus the stored partner
    /// — on a hot path with hundreds of matches per tuple this is the
    /// innermost loop, so the `(r, s)` normalisation `on_data` performs
    /// is left to the caller (who knows `batch[i]`), saving a closure
    /// layer per match.
    pub fn on_data_batch(
        &mut self,
        tag: Epoch,
        batch: &[Tuple],
        out: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        assert!(
            self.stable_for(tag),
            "bulk data path requires a stable joiner at the batch epoch"
        );
        let stats = self.tau.stream_batch(batch, out);
        self.matches_emitted += stats.matches;
        stats
    }

    /// An epoch-change signal from reshuffler `from` (it travels FIFO
    /// behind that reshuffler's old-epoch data), carrying the new epoch
    /// index, this machine's [`Role`] in the change, and the number of
    /// reshufflers that must signal: every machine active on either side
    /// of the change, which under trigger-time provisioning is not a
    /// run-wide constant.
    pub fn on_signal(
        &mut self,
        from: usize,
        new_epoch: Epoch,
        role: Role,
        expected_signals: usize,
    ) -> SignalOutcome {
        assert!(self.born, "dormant child received a reshuffler signal");
        let mut outcome = SignalOutcome::default();
        if !self.migrating {
            assert_eq!(
                new_epoch,
                self.epoch + 1,
                "signal must advance the epoch by one"
            );
            self.migrating = true;
            self.new_epoch = new_epoch;
            self.role = Some(role);
            self.signals.iter_mut().for_each(|s| *s = false);
            assert!(
                expected_signals >= 1 && expected_signals <= self.n_reshufflers,
                "expected signal count {expected_signals} outside 1..={}",
                self.n_reshufflers
            );
            self.signals_remaining = expected_signals;
            self.partners_expected = role.markers_awaited();
            assert!(
                self.partners_done <= self.partners_expected,
                "more end-of-state markers than this role's senders"
            );
            outcome.start_migration = true;
        } else {
            assert_eq!(new_epoch, self.new_epoch, "overlapping migrations");
            debug_assert_eq!(self.role, Some(role));
        }
        assert!(
            !self.signals[from],
            "duplicate signal from reshuffler {from}"
        );
        self.signals[from] = true;
        self.signals_remaining -= 1;
        outcome.all_signals = self.signals_remaining == 0;
        outcome
    }

    /// This joiner's role in the in-flight change (`None` while stable or
    /// unborn).
    #[inline]
    pub fn role(&self) -> Option<&Role> {
        self.role.as_ref()
    }

    /// The state to ship when a change starts: copies of every stored
    /// tuple the role [forwards](Role::forwards) (Alg. 3 line 3, "Send τ
    /// for migration"). A step ships the coarsening relation (the tuples
    /// stay in `τ` — the exchange keeps both halves, Lemma 4.4), an
    /// expansion parent **all** of `τ` (Fig. 5 splits along both ticket
    /// axes; the non-kept tuples are dropped at finalisation), a retiree
    /// its forward relation, a survivor and the diagonal retiree nothing.
    pub fn snapshot(&self) -> Vec<Tuple> {
        let role = self.role.expect("snapshot requires an in-flight change");
        let mut snap = Vec::new();
        self.tau.for_each(&mut |t| {
            if !role.forwards(t).is_empty() {
                snap.push(*t);
            }
        });
        snap
    }

    /// A migration tuple received from the partner (Alg. 3 lines 10–11 /
    /// 22–23): `{t} ⋈ Δ′`, then `µ ← µ ∪ {t}`.
    ///
    /// May legitimately arrive before this joiner's own first signal (the
    /// partner heard about the migration first); `µ` is phase-independent.
    pub fn on_migration_tuple(
        &mut self,
        t: Tuple,
        out: &mut dyn FnMut(&Tuple, &Tuple),
    ) -> ProbeStats {
        let mut matches = 0u64;
        let stats = {
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            self.delta_prime.probe(&t, &mut cb)
        };
        self.mu.insert(t);
        self.matches_emitted += matches;
        stats
    }

    /// An end-of-state marker arrived: one sender's relocated state is
    /// fully in. A step migration expects one (the exchange partner); a
    /// contraction survivor expects three (its retirees).
    pub fn on_partner_done(&mut self) {
        assert!(self.born, "expansion children use on_parent_done");
        self.partners_done += 1;
        if self.migrating {
            assert!(
                self.partners_done <= self.partners_expected,
                "more end-of-state markers than this role's senders"
            );
        } else {
            // The sender heard about the reconfiguration first; the
            // largest legitimate fan-in is a survivor's three retirees.
            assert!(self.partners_done <= 3, "spurious end-of-state marker");
        }
    }

    /// An expansion child's parent sent its end-of-state marker, carrying
    /// the expansion epoch: all of `µ` is in, and — because every old
    /// tuple relevant to this child flows through the parent — no further
    /// old state can arrive. The child is now ready for its birth
    /// finalisation.
    pub fn on_parent_done(&mut self, epoch: Epoch) {
        assert!(!self.born, "only unborn children receive a parent marker");
        assert!(self.partners_done == 0, "duplicate end-of-state marker");
        let birth = *self.birth_epoch.get_or_insert(epoch);
        assert_eq!(epoch, birth, "parent marker disagrees with data epoch");
        self.partners_done = 1;
    }

    /// True when the migration can be finalised: every reshuffler has
    /// signalled and every expected sender's state is fully received. An
    /// unborn expansion child needs only its parent's end-of-state marker.
    pub fn ready_to_finalize(&self) -> bool {
        if !self.born {
            return self.partners_done > 0;
        }
        self.migrating
            && self.signals_remaining == 0
            && self.partners_done == self.partners_expected
    }

    /// Finalise (Alg. 3 FinalizeMigration): drop discards and merge
    /// `Keep(τ∪Δ) ∪ µ ∪ Δ′` into the new `τ`. Returns counts for cost
    /// accounting. The caller then acks the controller.
    ///
    /// For an unborn expansion child this is the **birth**: `τ ← µ ∪ Δ′`
    /// (nothing to discard — the parent only sent covering state), the
    /// child adopts the expansion epoch and becomes a normal joiner.
    ///
    /// For a contraction retiree this is the **retirement**: every stored
    /// tuple is discarded (the survivor holds the merged cell) and the
    /// joiner goes back to the dormant, unborn state — a later expansion
    /// re-activates it through the ordinary child-birth path. The epoch
    /// advances so the retirement ack carries the contraction epoch.
    pub fn finalize(&mut self) -> FinalizeSummary {
        self.finalize_into(None)
    }

    /// [`finalize`](Self::finalize) for a joiner under a count window of
    /// `sub_span`-tuple sub-windows. The merged tuples enter `τ` in
    /// sequence order, one sealed segment per sub-window they fall in,
    /// behind a seal of the live run: relocated state is up to a window
    /// old, and merged into one run it would age with that run's newest
    /// tuple, staying stored for up to a window past its own expiry.
    pub fn finalize_in_sub_windows(&mut self, sub_span: u64) -> FinalizeSummary {
        self.finalize_into(Some(sub_span))
    }

    fn finalize_into(&mut self, sub_span: Option<u64>) -> FinalizeSummary {
        assert!(self.ready_to_finalize(), "finalize called early");
        let mut summary = FinalizeSummary::default();
        if !self.born {
            let mut merged = self.mu.drain();
            merged.extend(self.delta_prime.drain());
            summary.merged += merged.len() as u64;
            self.merge_into_tau(merged, sub_span);
            self.epoch = self
                .birth_epoch
                .take()
                .expect("parent marker always sets the birth epoch");
            self.born = true;
            self.partners_done = 0;
            return summary;
        }
        let role = self.role.take().expect("migrating implies a role");
        if role.retires() {
            // Retirement: nothing survives locally. Δ′ and µ must be
            // empty — no reshuffler routes new-epoch data to a retiree
            // and nobody relocates state into one.
            assert_eq!(self.delta_prime.len(), 0, "retiree accumulated Δ′");
            assert_eq!(self.mu.len(), 0, "retiree received relocated state");
            summary.discarded = (self.tau.len() + self.delta.len()) as u64;
            self.tau.drain();
            self.delta.drain();
            self.epoch = self.new_epoch;
            self.migrating = false;
            self.partners_done = 0;
            self.born = false;
            self.birth_epoch = None;
            return summary;
        }

        // Drop discards still sitting in τ.
        let dropped = self.tau.extract(&mut |t| !role.keeps(t));
        summary.discarded += dropped.len() as u64;

        // Δ: keep survivors, drop the rest.
        let mut merged = self.delta.drain();
        let delta = merged.len() as u64;
        merged.retain(|t| role.keeps(t));
        summary.discarded += delta - merged.len() as u64;
        // µ and Δ′ belong wholesale.
        merged.extend(self.mu.drain());
        merged.extend(self.delta_prime.drain());
        summary.merged += merged.len() as u64;
        self.merge_into_tau(merged, sub_span);

        self.epoch = self.new_epoch;
        self.migrating = false;
        self.partners_done = 0;
        summary
    }

    /// Insert `merged` into `τ`: in the given order, or under a count
    /// window (`sub_span`) sorted by sequence number and sealed at every
    /// sub-window boundary.
    fn merge_into_tau(&mut self, mut merged: Vec<Tuple>, sub_span: Option<u64>) {
        let Some(sub_span) = sub_span else {
            merged.into_iter().for_each(|t| self.tau.insert(t));
            return;
        };
        self.tau.seal_segment();
        merged.sort_unstable_by_key(|t| t.seq);
        let mut open = None;
        for t in merged {
            let sub_window = t.seq / sub_span;
            if open.is_some_and(|o| o != sub_window) {
                self.tau.seal_segment();
            }
            open = Some(sub_window);
            self.tau.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VecIndex;
    use crate::predicate::Predicate;
    use crate::ticket::TicketGen;

    fn make_joiner(n_reshufflers: usize) -> EpochJoiner {
        EpochJoiner::new(&|| Box::new(VecIndex::new(Predicate::Equi)), n_reshufflers)
    }

    fn collect_pairs(out: &mut Vec<(u64, u64)>) -> impl FnMut(&Tuple, &Tuple) + '_ {
        |r: &Tuple, s: &Tuple| out.push((r.seq, s.seq))
    }

    #[test]
    fn stable_phase_is_symmetric_hash_join() {
        let mut j = make_joiner(1);
        let mut pairs = Vec::new();
        let r = Tuple::new(Rel::R, 1, 5, 0);
        let s = Tuple::new(Rel::S, 2, 5, 0);
        j.on_data(0, r, &mut collect_pairs(&mut pairs));
        j.on_data(0, s, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!(j.stored_tuples(), 2);
        assert_eq!(j.matches_emitted, 1);
    }

    #[test]
    fn bulk_batch_equals_per_tuple_on_data() {
        // The stream as one 20-tuple batch, then as 19 tuples and a
        // batch of one: same pairs, same stored state and the same
        // ProbeStats (candidates included — the simulator prices virtual
        // time from them) as per-tuple on_data.
        let mk = || make_joiner(1);
        let batch: Vec<Tuple> = (0..20)
            .map(|i| {
                let rel = if i % 3 == 0 { Rel::R } else { Rel::S };
                Tuple::new(rel, i, (i as i64 * 7) % 6, i)
            })
            .collect();
        for batches in [vec![&batch[..]], vec![&batch[..19], &batch[19..]]] {
            let mut a = mk();
            let mut seq_pairs = Vec::new();
            let mut seq_stats = ProbeStats::default();
            let mut b = mk();
            let mut bulk_pairs = Vec::new();
            let mut bulk_stats = ProbeStats::default();
            for part in batches {
                for t in part {
                    seq_stats += a.on_data(0, *t, &mut collect_pairs(&mut seq_pairs)).stats;
                }
                assert!(b.stable_for(0));
                bulk_stats += b.on_data_batch(0, part, &mut |i, stored| {
                    let t = &part[i];
                    if t.rel == Rel::R {
                        bulk_pairs.push((t.seq, stored.seq));
                    } else {
                        bulk_pairs.push((stored.seq, t.seq));
                    }
                });
                assert_eq!(seq_stats, bulk_stats, "batch of {}", part.len());
            }
            seq_pairs.sort_unstable();
            bulk_pairs.sort_unstable();
            assert_eq!(seq_pairs, bulk_pairs);
            assert_eq!(a.matches_emitted, b.matches_emitted);
            assert_eq!(bulk_stats.matches, b.matches_emitted);
            assert_eq!(a.stored_tuples(), b.stored_tuples());
            assert_eq!(a.stored_bytes(), b.stored_bytes());
        }
    }

    #[test]
    fn stable_for_rejects_migration_and_wrong_epoch() {
        let (mut a, _b, plan) = mid_migration_pair();
        assert!(a.stable_for(0));
        assert!(!a.stable_for(1));
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        assert!(
            !a.stable_for(0),
            "mid-migration batches need per-tuple handling"
        );
        assert!(!a.stable_for(1));
    }

    /// Build a two-joiner world mid-migration: (2,1) -> (1,2). Machine 0
    /// and machine 1 are partners exchanging R; S refines from 1 part to 2.
    fn mid_migration_pair() -> (EpochJoiner, EpochJoiner, crate::migration::MigrationPlan) {
        let assign = GridAssignment::initial(Mapping::new(2, 1));
        let plan = plan_step(&assign, Step::HalveRows);
        let a = make_joiner(2);
        let b = make_joiner(2);
        (a, b, plan)
    }

    #[test]
    fn signal_protocol_tracks_start_and_completion() {
        let (mut a, _b, plan) = mid_migration_pair();
        let s0 = a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        assert!(s0.start_migration);
        assert!(!s0.all_signals);
        assert!(a.is_migrating());
        let s1 = a.on_signal(1, 1, Role::Step(plan.specs[0]), 2);
        assert!(!s1.start_migration);
        assert!(s1.all_signals);
        assert!(!a.ready_to_finalize());
        a.on_partner_done();
        assert!(a.ready_to_finalize());
        let summary = a.finalize();
        assert_eq!(summary, FinalizeSummary::default());
        assert_eq!(a.epoch(), 1);
        assert!(!a.is_migrating());
    }

    #[test]
    fn old_epoch_r_tuple_is_forwarded_and_joined() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        // Pre-migration state: one S tuple in τ.
        let s_old = Tuple::new(Rel::S, 1, 7, 0); // refine_bit(0, 1) == 0
        a.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        // Migration starts.
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        // Old-epoch R tuple arrives: joins τ∪Δ (the S tuple), forwarded.
        let r_old = Tuple::new(Rel::R, 2, 7, 0);
        let outcome = a.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        assert_eq!(
            outcome.forward[..],
            [plan.specs[0].partner],
            "coarsening-relation Δ tuple must migrate"
        );
        assert_eq!(pairs, vec![(2, 1)]);
    }

    #[test]
    fn new_epoch_tuple_joins_keep_but_not_discard() {
        let (mut a, _b, plan) = mid_migration_pair();
        let spec = plan.specs[0];
        assert_eq!(spec.keep_bit, 0, "machine 0 at row 0 keeps bit 0");
        let mut pairs = Vec::new();
        // τ holds two S tuples: one kept (bit 0) and one discarded (bit 1).
        let s_keep = Tuple::new(Rel::S, 1, 7, 0); // refine_bit = 0
        let s_drop = Tuple::new(Rel::S, 2, 7, 1 << 63); // refine_bit = 1
        a.on_data(0, s_keep, &mut collect_pairs(&mut pairs));
        a.on_data(0, s_drop, &mut collect_pairs(&mut pairs));
        a.on_signal(0, 1, Role::Step(spec), 2);
        // New-epoch R tuple: joins µ ∪ Δ′ (empty) and Keep(τ∪Δ) = {s_keep}.
        let r_new = Tuple::new(Rel::R, 3, 7, 0);
        a.on_data(1, r_new, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(3, 1)], "must join the kept S tuple only");
    }

    #[test]
    fn migration_tuples_join_delta_prime_only() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        // Δ′ gets an S tuple.
        let s_new = Tuple::new(Rel::S, 1, 9, 0);
        a.on_data(1, s_new, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        // Partner's R state arrives: joins Δ′.
        let r_mu = Tuple::new(Rel::R, 2, 9, u64::MAX);
        a.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1)]);
        // A second Δ′ S tuple must see µ.
        let s_new2 = Tuple::new(Rel::S, 3, 9, 0);
        a.on_data(1, s_new2, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1), (2, 3)]);
    }

    #[test]
    fn migration_tuple_before_any_signal_is_buffered_in_mu() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        // Partner was faster: its state arrives while a is still stable.
        let r_mu = Tuple::new(Rel::R, 1, 4, u64::MAX);
        a.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        assert_eq!(a.set_sizes(), [0, 0, 0, 1]);
        a.on_partner_done();
        // Now the signals arrive and the migration completes.
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        a.on_signal(1, 1, Role::Step(plan.specs[0]), 2);
        assert!(a.ready_to_finalize());
        let summary = a.finalize();
        assert_eq!(summary.merged, 1);
        // µ became part of τ: a new S tuple in epoch 1 joins it.
        let s = Tuple::new(Rel::S, 2, 4, 0);
        a.on_data(1, s, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn relocated_state_is_sealed_by_sub_window() {
        // S arrivals at 100..110 sit in the live run; the partner relocates
        // R from 0..30. Merged as sub-windows of 10, the two oldest tens
        // expire once the bound passes 20; merged into the live run,
        // nothing could expire before the run's newest tuple.
        for (segmented, evicted) in [(true, 20), (false, 0)] {
            let (mut a, _b, plan) = mid_migration_pair();
            let mut sink = Vec::new();
            for seq in 100..110 {
                a.on_data(
                    0,
                    Tuple::new(Rel::S, seq, 1, 0),
                    &mut collect_pairs(&mut sink),
                );
            }
            for seq in 0..30 {
                let r = Tuple::new(Rel::R, seq, 2, u64::MAX);
                a.on_migration_tuple(r, &mut collect_pairs(&mut sink));
            }
            a.on_partner_done();
            a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
            a.on_signal(1, 1, Role::Step(plan.specs[0]), 2);
            let summary = match segmented {
                true => a.finalize_in_sub_windows(10),
                false => a.finalize(),
            };
            assert_eq!(summary.merged, 30);
            a.seal_live_segment();
            assert_eq!(a.evict_before(20).tuples, evicted, "segmented: {segmented}");
            assert_eq!(a.stored_tuples(), 40 - evicted as usize);
        }
    }

    #[test]
    fn finalize_discards_wrong_bit_tuples() {
        let (mut a, _b, plan) = mid_migration_pair();
        let spec = plan.specs[0];
        let mut sink = Vec::new();
        let s_keep = Tuple::new(Rel::S, 1, 7, 0);
        let s_drop = Tuple::new(Rel::S, 2, 7, 1 << 63);
        a.on_data(0, s_keep, &mut collect_pairs(&mut sink));
        a.on_data(0, s_drop, &mut collect_pairs(&mut sink));
        a.on_signal(0, 1, Role::Step(spec), 2);
        // Old-epoch S arrivals during migration, one of each class.
        let s_keep2 = Tuple::new(Rel::S, 3, 7, 1); // bit 0
        let s_drop2 = Tuple::new(Rel::S, 4, 7, (1 << 63) | 1); // bit 1
        a.on_data(0, s_keep2, &mut collect_pairs(&mut sink));
        a.on_data(0, s_drop2, &mut collect_pairs(&mut sink));
        a.on_signal(1, 1, Role::Step(spec), 2);
        a.on_partner_done();
        let summary = a.finalize();
        assert_eq!(summary.discarded, 2);
        assert_eq!(summary.merged, 1); // s_keep2 from Δ
        assert_eq!(a.stored_tuples(), 2); // s_keep + s_keep2
    }

    #[test]
    #[should_panic(expected = "old-epoch tuple after all reshuffler signals")]
    fn old_epoch_after_all_signals_is_a_protocol_violation() {
        let (mut a, _b, plan) = mid_migration_pair();
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        a.on_signal(1, 1, Role::Step(plan.specs[0]), 2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        a.on_data(0, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn duplicate_signals_panic() {
        let (mut a, _b, plan) = mid_migration_pair();
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
    }

    fn expand_spec_1x1() -> ExpandSpec {
        use crate::mapping::GridPos;
        ExpandSpec {
            machine: 0,
            old_pos: GridPos { row: 0, col: 0 },
            children: [1, 2, 3],
            n_before: 1,
            m_before: 1,
        }
    }

    #[test]
    fn expansion_parent_splits_keeps_and_forwards() {
        let mut p = make_joiner(2);
        let mut pairs = Vec::new();
        // τ: an R tuple with row-bit 0 (kept, copied to child (0,1)) and an
        // S tuple with col-bit 1 (leaves for children (0,1) and (1,1)).
        let r_keep = Tuple::new(Rel::R, 1, 7, 0);
        let s_move = Tuple::new(Rel::S, 2, 7, 1 << 63);
        p.on_data(0, r_keep, &mut collect_pairs(&mut pairs));
        p.on_data(0, s_move, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        let spec = expand_spec_1x1();
        let so = p.on_signal(0, 1, Role::Expand(spec), 2);
        assert!(so.start_migration && !so.all_signals);
        assert_eq!(p.snapshot().len(), 2, "both relations ship");
        // Old-epoch R with row-bit 1: joins τ∪Δ, forwarded to two children,
        // not kept here.
        let r_old = Tuple::new(Rel::R, 3, 7, 1 << 63);
        let o = p.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        assert_eq!(o.forward[..], [2, 3], "Δ tuples fan out to children");
        assert!(!Role::Expand(spec).keeps(&r_old));
        assert_eq!(pairs, vec![(1, 2), (3, 2)]);
        // New-epoch S with col-bit 0 (parent's own new cell): joins
        // Keep(τ∪Δ) = {r_keep} only.
        let s_new = Tuple::new(Rel::S, 4, 7, 0);
        p.on_data(1, s_new, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2), (3, 2), (1, 4)]);
        let so = p.on_signal(1, 1, Role::Expand(spec), 2);
        assert!(so.all_signals);
        // Parents await no partner state: ready right after the signals.
        assert!(p.ready_to_finalize());
        let summary = p.finalize();
        assert_eq!(summary.discarded, 2, "s_move from τ and r_old from Δ");
        assert_eq!(summary.merged, 1, "s_new from Δ′");
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.stored_tuples(), 2); // r_keep + s_new
    }

    #[test]
    fn expansion_child_is_born_with_parent_state() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 2);
        assert!(!c.is_born());
        let mut pairs = Vec::new();
        // New-epoch data can arrive before any parent state.
        let s_new = Tuple::new(Rel::S, 1, 5, 0);
        c.on_data(3, s_new, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        // Parent state arrives: probes Δ′.
        let r_mu = Tuple::new(Rel::R, 2, 5, 0);
        c.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1)]);
        assert!(!c.ready_to_finalize());
        c.on_parent_done(3);
        assert!(c.ready_to_finalize());
        let summary = c.finalize();
        assert_eq!(summary.merged, 2);
        assert_eq!(summary.discarded, 0);
        assert!(c.is_born());
        assert_eq!(c.epoch(), 3);
        // Born: a stable joiner at the expansion epoch.
        let s2 = Tuple::new(Rel::S, 3, 5, 0);
        c.on_data(3, s2, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1), (2, 3)]);
    }

    #[test]
    fn expansion_child_with_no_contact_but_done_marker_is_born_empty() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 1);
        c.on_parent_done(7);
        assert!(c.ready_to_finalize());
        let summary = c.finalize();
        assert_eq!(summary, FinalizeSummary::default());
        assert_eq!(c.epoch(), 7);
        assert!(c.is_born());
    }

    #[test]
    #[should_panic(expected = "unborn child saw data from two epochs")]
    fn unborn_child_rejects_mixed_epoch_data() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 1);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        c.on_data(3, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
        c.on_data(4, Tuple::new(Rel::R, 2, 1, 0), &mut sink);
    }

    #[test]
    fn contraction_survivor_merges_and_awaits_three_markers() {
        let mut s = make_joiner(2);
        let mut pairs = Vec::new();
        // Pre-contraction state: one R tuple in τ.
        let r_old = Tuple::new(Rel::R, 1, 5, 0);
        s.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        // One retiree's state arrives before any signal (it heard first).
        let s_mu = Tuple::new(Rel::S, 2, 5, u64::MAX);
        s.on_migration_tuple(s_mu, &mut collect_pairs(&mut pairs));
        s.on_partner_done();
        let so = s.on_signal(0, 1, Role::Contract(ContractRole::Survive), 2);
        assert!(so.start_migration && !so.all_signals);
        assert_eq!(s.role().map(Role::markers_awaited), Some(3));
        // Old-epoch data still joins τ∪Δ — and Δ′ too, since a survivor
        // keeps everything.
        let s_old = Tuple::new(Rel::S, 3, 5, 0);
        let o = s.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        assert!(o.forward.is_empty(), "survivors forward nothing");
        // New-epoch data joins µ ∪ Δ′ and Keep(τ∪Δ) = all of τ∪Δ.
        let r_new = Tuple::new(Rel::R, 4, 5, 0);
        s.on_data(1, r_new, &mut collect_pairs(&mut pairs));
        let so = s.on_signal(1, 1, Role::Contract(ContractRole::Survive), 2);
        assert!(so.all_signals);
        assert!(!s.ready_to_finalize(), "two retiree markers still missing");
        s.on_partner_done();
        assert!(!s.ready_to_finalize());
        s.on_partner_done();
        assert!(s.ready_to_finalize());
        let summary = s.finalize();
        assert_eq!(summary.discarded, 0, "survivors keep everything");
        assert_eq!(summary.merged, 3, "s_old (Δ), s_mu (µ), r_new (Δ′)");
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.stored_tuples(), 4);
        // (1,3): r_old ⋈ s_old; (4,2): r_new ⋈ µ; (4,3): r_new ⋈ Keep(Δ).
        // Note (1,2) is absent: µ probes only Δ′ — the r_old ⋈ s_mu pair
        // is the retiree's to emit (r_old's replica lives there too).
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 3), (4, 2), (4, 3)]);
    }

    #[test]
    fn contraction_retiree_forwards_ships_and_goes_dormant() {
        let mut r = make_joiner(2);
        let mut pairs = Vec::new();
        // τ: one tuple of each relation; this retiree forwards only S.
        let r_old = Tuple::new(Rel::R, 1, 7, 0);
        let s_old = Tuple::new(Rel::S, 2, 7, 0);
        r.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        r.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        let role = Role::Contract(ContractRole::Retire {
            survivor: 0,
            forward_rel: Some(Rel::S),
        });
        let so = r.on_signal(0, 1, role, 2);
        assert!(so.start_migration);
        assert!(r.role().is_some_and(Role::retires));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1, "only the forward relation ships");
        assert_eq!(snap[0].rel, Rel::S);
        // Old-epoch Δ arrivals keep joining τ∪Δ; only S is forwarded.
        let s_delta = Tuple::new(Rel::S, 3, 7, 1);
        let o = r.on_data(0, s_delta, &mut collect_pairs(&mut pairs));
        assert_eq!(o.forward[..], [0], "Δ tuple of the forward relation");
        let r_delta = Tuple::new(Rel::R, 4, 7, 1);
        let o = r.on_data(0, r_delta, &mut collect_pairs(&mut pairs));
        assert!(o.forward.is_empty(), "the other relation stays");
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (1, 3), (4, 2), (4, 3)]);
        let so = r.on_signal(1, 1, role, 2);
        assert!(so.all_signals);
        assert!(r.ready_to_finalize(), "retirees await no markers");
        let summary = r.finalize();
        assert_eq!(summary.merged, 0);
        assert_eq!(summary.discarded, 4, "everything is dropped locally");
        assert_eq!(r.stored_tuples(), 0);
        assert!(!r.is_born(), "retiree is dormant again");
        assert_eq!(r.epoch(), 1, "the ack carries the contraction epoch");
        // Rebirth through the ordinary expansion-child path.
        let s_new = Tuple::new(Rel::S, 5, 9, 0);
        r.on_data(4, s_new, &mut collect_pairs(&mut pairs));
        r.on_parent_done(4);
        r.finalize();
        assert!(r.is_born());
        assert_eq!(r.epoch(), 4);
        assert_eq!(r.stored_tuples(), 1);
    }

    #[test]
    fn diagonal_retiree_ships_nothing() {
        let mut r = make_joiner(2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        r.on_data(0, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
        r.on_data(0, Tuple::new(Rel::S, 2, 1, 0), &mut sink);
        let role = Role::Contract(ContractRole::Retire {
            survivor: 0,
            forward_rel: None,
        });
        r.on_signal(0, 1, role, 2);
        assert!(r.snapshot().is_empty());
        let o = r.on_data(0, Tuple::new(Rel::S, 3, 1, 1), &mut sink);
        assert!(o.forward.is_empty());
        r.on_signal(1, 1, role, 2);
        assert!(r.ready_to_finalize());
        r.finalize();
        assert!(!r.is_born());
    }

    #[test]
    #[should_panic(expected = "retiring joiner received new-epoch data")]
    fn retiree_rejects_new_epoch_data() {
        let mut r = make_joiner(2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        let role = Role::Contract(ContractRole::Retire {
            survivor: 0,
            forward_rel: Some(Rel::R),
        });
        r.on_signal(0, 1, role, 2);
        r.on_data(1, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
    }

    #[test]
    fn snapshot_contains_only_exchange_relation() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut sink = |_: &Tuple, _: &Tuple| {};
        let mut gen = TicketGen::new(3);
        for i in 0..10 {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            a.on_data(0, Tuple::new(rel, i, i as i64, gen.next()), &mut sink);
        }
        a.on_signal(0, 1, Role::Step(plan.specs[0]), 2);
        let snap = a.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.iter().all(|t| t.rel == Rel::R));
        // Snapshot does not remove: τ still holds everything.
        assert_eq!(a.set_sizes()[0], 10);
    }
}
