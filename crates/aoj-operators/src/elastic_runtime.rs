//! Live elastic scale-out (§4.2.2 "Elasticity", Fig. 5, Theorem 4.3) —
//! the runtime half of `aoj_core::elastic`.
//!
//! The core module plans ×4 expansions and 4→1 contractions as pure
//! state arithmetic ([`plan_expansion`](aoj_core::elastic::plan_expansion),
//! [`plan_contraction`](aoj_core::elastic::plan_contraction)); this
//! module wires those plans into the **running operator**:
//!
//! * the driver registers the bounded machine-slot space
//!   (`J₀ · 4^max_expansions` ids — cheap task objects and mailboxes) but
//!   **provisions only `J₀` machines**; worker shards for the rest are
//!   acquired at expansion trigger time through
//!   `ExecBackend`'s provision surface and handed back at contraction
//!   (trigger-time provisioning);
//! * the controller watches the cluster-wide stored-byte gauges (exact on
//!   both backends — the threaded runtime shares them atomically across
//!   worker shards) and, at a migration checkpoint where **every** active
//!   joiner stores more than `capacity/2`
//!   ([`should_expand_cluster`](aoj_core::elastic::should_expand_cluster)),
//!   begins a [`Reconfig::Expand`](aoj_core::epoch::Reconfig): it
//!   provisions the children, hands each newly activated reshuffler a
//!   control-plane snapshot (`Activate`), and broadcasts the change; at a
//!   checkpoint where every active joiner sits **below**
//!   [`ElasticConfig::contract_below_bytes`] it begins the reverse
//!   `Reconfig::Contract` instead;
//! * from there on both are the ordinary epoch change — `Change` →
//!   `Signal` → state stream → `Ack`, the path a migration step takes —
//!   run with a different [`Role`](aoj_core::epoch::Role) per joiner;
//! * the source grows and shrinks its round-robin set and flow-control
//!   window with the active machine set (`SourceResize`).
//!
//! What a joiner's role changes, and what that costs:
//!
//! | change      | who keeps what                         | who forwards where                                | markers awaited     | transfer bound            |
//! |-------------|----------------------------------------|---------------------------------------------------|---------------------|---------------------------|
//! | step        | everyone: the merged relation, half of the split one | everyone: the merged relation → partner | 1                   | the exchange (Lemma 4.4)  |
//! | expansion   | parent: what lands in child `(0,0)`    | parent: every tuple → the 1–2 covering children   | parent 0, child 1   | ≤ 2 × stored (Theorem 4.3, amortised `8/ε`) |
//! | contraction | survivor: everything; retiree: nothing | retiree: one relation → survivor (diagonal: none) | survivor 3, retiree 0 | ≤ 1 × stored            |
//!
//! Children are born when the parent's end-of-state marker arrives; a
//! retiree goes dormant on its ack, ready for a later burst to re-expand
//! into it (`aoj_core::epoch`'s module docs hold the correctness
//! argument). The `n : m` ratio is unchanged either way, so the ILF
//! competitive ratio is unaffected.

use aoj_simnet::{Gauge, MachineId, Metrics};

/// Elasticity knobs for a run (`SessionBuilder::with_elastic`).
#[derive(Clone, Copy, Debug)]
pub struct ElasticConfig {
    /// Per-joiner capacity target `M` in stored bytes. The controller
    /// expands when every active joiner stores more than `capacity / 2`.
    pub capacity_bytes: u64,
    /// How many ×4 expansions may fire over the whole run (a cumulative
    /// budget; it also bounds the machine-slot space to
    /// `J₀ · 4^max_expansions` ids). Give it headroom above the expected
    /// steady level and a burst after a contraction re-expands into the
    /// retired machines.
    pub max_expansions: u32,
    /// Low-water mark in stored bytes: at a migration checkpoint where
    /// **every** active joiner stores strictly less than this, a 4→1
    /// contraction fires. 0 disables contraction. Production configs
    /// should keep this well under `capacity_bytes / 2` — a merged
    /// survivor stores up to the sum of its group, so an aggressive mark
    /// makes the controller give back machines it immediately re-needs.
    pub contract_below_bytes: u64,
    /// How many contractions may fire over the whole run (a cumulative
    /// budget, so threshold misconfiguration cannot oscillate forever).
    /// 0 disables contraction.
    pub max_contractions: u32,
    /// The low-water trigger only arms once this many tuples have entered
    /// the operator — the stream-position analogue of the time gate real
    /// deployments put on diurnal scale-down (don't hand machines back
    /// during the load window; a join's stored state only ever grows, so
    /// the gate is what separates "still small" from "done growing").
    /// 0 arms it from the first tuple.
    pub contract_holdoff_tuples: u64,
    /// Drain-driven arming: instead of the stream-position hold-off, the
    /// contraction trigger arms once windowed eviction has actually
    /// dropped state (cluster-wide evicted bytes > 0). This is the
    /// natural gate when a retention window is configured — stored state
    /// is no longer monotone, so "done growing" is observable directly
    /// and no artificial hold-off is needed; the session layer turns
    /// this on automatically when a window is set. Without eviction the
    /// gauge never moves and the stream-position gate remains the only
    /// sound arming signal.
    pub drain_driven: bool,
}

impl ElasticConfig {
    /// Expand at most `max_expansions` levels past half of
    /// `capacity_bytes`; contraction disabled.
    pub fn new(capacity_bytes: u64, max_expansions: u32) -> ElasticConfig {
        ElasticConfig {
            capacity_bytes,
            max_expansions,
            contract_below_bytes: 0,
            max_contractions: 0,
            contract_holdoff_tuples: 0,
            drain_driven: false,
        }
    }

    /// Builder: arm the 4→1 contraction at the given low-water mark, for
    /// at most `max_contractions` merges.
    pub fn with_contraction(mut self, below_bytes: u64, max_contractions: u32) -> ElasticConfig {
        self.contract_below_bytes = below_bytes;
        self.max_contractions = max_contractions;
        self
    }

    /// Builder: keep the contraction trigger disarmed until `tuples`
    /// stream tuples have entered the operator.
    pub fn with_contract_holdoff(mut self, tuples: u64) -> ElasticConfig {
        self.contract_holdoff_tuples = tuples;
        self
    }

    /// Builder: arm the contraction trigger from genuine eviction drain
    /// instead of the stream-position hold-off (see
    /// [`drain_driven`](ElasticConfig::drain_driven)).
    pub fn with_drain_driven(mut self, on: bool) -> ElasticConfig {
        self.drain_driven = on;
        self
    }
}

/// Controller-side elasticity state (lives inside `ControllerState`).
#[derive(Clone, Copy, Debug)]
pub struct ElasticControl {
    /// The configuration the run was started with.
    pub cfg: ElasticConfig,
    /// Expansions already triggered.
    pub expansions_done: u32,
    /// Contractions already triggered.
    pub contractions_done: u32,
}

impl ElasticControl {
    /// Fresh controller-side state.
    pub fn new(cfg: ElasticConfig) -> ElasticControl {
        ElasticControl {
            cfg,
            expansions_done: 0,
            contractions_done: 0,
        }
    }

    /// Net expansion levels currently held (expansions minus
    /// contractions).
    pub fn level(&self) -> u32 {
        self.expansions_done - self.contractions_done
    }

    /// May another expansion fire? The budget is **cumulative** — a
    /// contraction does not refund it — so mis-tuned thresholds (a
    /// low-water mark overlapping `capacity/2`) run out of budget
    /// instead of oscillating forever. Re-expansion after a drain works
    /// by budgeting more expansions than the steady level needs; it
    /// reuses retired machines (the dormant pool) before fresh slots.
    pub fn armed_expand(&self) -> bool {
        self.expansions_done < self.cfg.max_expansions
    }

    /// May another contraction fire at stream position `last_seq` with
    /// `evicted_bytes` dropped so far by windowed eviction? There must be
    /// an expansion to undo, budget left, and the arming gate passed:
    /// genuine drain (any eviction observed) under
    /// [`drain_driven`](ElasticConfig::drain_driven), the stream-position
    /// hold-off otherwise. The drain gate prevents the startup
    /// degeneracy — before any data arrives every joiner is trivially
    /// below the low-water mark.
    pub fn armed_contract(&self, last_seq: u64, evicted_bytes: u64) -> bool {
        let armed = if self.cfg.drain_driven {
            evicted_bytes > 0
        } else {
            last_seq >= self.cfg.contract_holdoff_tuples
        };
        self.level() > 0 && self.contractions_done < self.cfg.max_contractions && armed
    }
}

/// Total joiner machine **slots** to register for `j0` initial joiners:
/// `j0 · 4^max_expansions`. Only `j0` of them are provisioned up front;
/// the rest are deferred until an expansion trigger acquires them.
pub fn provisioned_joiners(j0: u32, max_expansions: u32) -> u32 {
    4u32.checked_pow(max_expansions)
        .and_then(|f| j0.checked_mul(f))
        .expect("provisioned cluster size overflows u32")
}

/// The controller's live trigger: true when every **active** joiner
/// machine stores more than `capacity/2` bytes. Reads the cluster-wide
/// gauges, which are exact on the simulator and on the threaded
/// backend's shared atomic gauge array. Takes the explicit active
/// machine set — after contractions it is no longer an index prefix.
pub fn expansion_due(
    metrics: &Metrics,
    active: impl IntoIterator<Item = usize>,
    capacity_bytes: u64,
) -> bool {
    // Runs on the controller's per-tuple ingest path: short-circuit on
    // the first under-filled joiner, no allocation.
    let mut any = false;
    for i in active {
        any = true;
        if !aoj_core::elastic::should_expand(
            metrics.gauge(MachineId(i), Gauge::Stored),
            capacity_bytes,
        ) {
            return false;
        }
    }
    any
}

/// The controller's low-water trigger (§4.2.2 run backwards): true when
/// every active joiner stores strictly less than `below_bytes`. A mark
/// of 0 disables contraction.
pub fn contraction_due(
    metrics: &Metrics,
    active: impl IntoIterator<Item = usize>,
    below_bytes: u64,
) -> bool {
    let mut any = false;
    for i in active {
        any = true;
        if !aoj_core::elastic::should_contract(
            metrics.gauge(MachineId(i), Gauge::Stored),
            below_bytes,
        ) {
            return false;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_j0_times_4_to_the_k() {
        assert_eq!(provisioned_joiners(4, 0), 4);
        assert_eq!(provisioned_joiners(4, 1), 16);
        assert_eq!(provisioned_joiners(2, 2), 32);
        assert_eq!(provisioned_joiners(1, 3), 64);
    }

    #[test]
    fn trigger_needs_every_active_joiner_full() {
        let mut m = Metrics::default();
        for _ in 0..3 {
            m.add_machine();
        }
        m.set_gauge(MachineId(0), Gauge::Stored, 600);
        m.set_gauge(MachineId(1), Gauge::Stored, 501);
        m.set_gauge(MachineId(2), Gauge::Stored, 400); // dormant/idle machine
        assert!(expansion_due(&m, 0..2, 1000), "both active joiners > M/2");
        assert!(
            !expansion_due(&m, 0..3, 1000),
            "an under-filled machine in the active set blocks"
        );
        assert!(!expansion_due(&m, std::iter::empty(), 1000));
        // The active set need not be a prefix (post-contraction shape).
        assert!(expansion_due(&m, [0usize, 1], 1000));
    }

    #[test]
    fn contraction_trigger_is_strict_and_disabled_at_zero() {
        let mut m = Metrics::default();
        for _ in 0..3 {
            m.add_machine();
        }
        m.set_gauge(MachineId(0), Gauge::Stored, 100);
        m.set_gauge(MachineId(1), Gauge::Stored, 399);
        m.set_gauge(MachineId(2), Gauge::Stored, 400);
        assert!(contraction_due(&m, 0..2, 400), "all strictly below");
        assert!(!contraction_due(&m, 0..3, 400), "one at the mark blocks");
        assert!(!contraction_due(&m, 0..2, 0), "0 disables contraction");
        assert!(!contraction_due(&m, std::iter::empty(), 400));
    }

    #[test]
    fn elastic_control_budgets_are_net_for_expansion() {
        let cfg = ElasticConfig::new(1000, 1).with_contraction(10, 2);
        let mut el = ElasticControl::new(cfg);
        assert!(el.armed_expand() && !el.armed_contract(0, 0));
        el.expansions_done += 1;
        assert!(!el.armed_expand(), "expansion budget 1 of 1 spent");
        assert!(el.armed_contract(0, 0));
        el.contractions_done += 1;
        assert_eq!(el.level(), 0);
        assert!(
            !el.armed_expand(),
            "the expansion budget is cumulative: contraction refunds nothing"
        );
        assert!(!el.armed_contract(0, 0), "nothing to undo at level 0");
        let mut el = ElasticControl::new(ElasticConfig::new(1000, 2).with_contraction(10, 2));
        el.expansions_done += 1;
        el.contractions_done += 1;
        assert!(
            el.armed_expand(),
            "headroom allows re-expansion after a drain"
        );
        el.contractions_done += 1;
        // Level would go negative only through a bug; armed_contract
        // guards on level() > 0 first.
        el.expansions_done += 1;
        assert!(
            !el.armed_contract(0, 0),
            "the contraction budget is cumulative: 2 of 2 spent"
        );
        let el2 = ElasticControl {
            expansions_done: 1,
            ..ElasticControl::new(
                ElasticConfig::new(1000, 2)
                    .with_contraction(10, 1)
                    .with_contract_holdoff(500),
            )
        };
        assert!(!el2.armed_contract(499, 0), "hold-off gate still closed");
        assert!(el2.armed_contract(500, 0));
    }

    #[test]
    fn drain_driven_arming_ignores_holdoff() {
        let el = ElasticControl {
            expansions_done: 1,
            ..ElasticControl::new(
                ElasticConfig::new(1000, 2)
                    .with_contraction(10, 1)
                    .with_contract_holdoff(1_000_000)
                    .with_drain_driven(true),
            )
        };
        assert!(
            !el.armed_contract(u64::MAX, 0),
            "no eviction observed: stored state may still be pre-drain"
        );
        assert!(
            el.armed_contract(0, 1),
            "genuine drain arms regardless of stream position"
        );
    }
}
