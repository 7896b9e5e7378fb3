//! State lifecycle: windowed eviction and checkpoint/restore.
//!
//! A long-lived session's joiner state is monotone without help: every
//! arriving tuple is stored forever, so an unbounded stream grows the
//! operator without bound and the elastic 4→1 contraction trigger can
//! only ever fire through an artificial hold-off gate. This module adds
//! the two lifecycle mechanisms that fix that:
//!
//! ## Windowed eviction (PanJoin-style partitioned sub-windows)
//!
//! A [`WindowSpec`] bounds how long a stored tuple stays probe-able —
//! by stream distance ([count mode](WindowMode::Count): the last `span`
//! tuples the joiner processed) or by arrival time
//! ([time mode](WindowMode::Time): the last `span` microseconds). The
//! window is partitioned into `sub_windows` **sub-windows**, following
//! PanJoin (arXiv:1811.05065): each sub-window is a closed run of
//! tuples sealed into its own index segment
//! ([`JoinIndex::seal_segment`](crate::index::JoinIndex::seal_segment)),
//! and expiry drops whole sealed segments
//! ([`JoinIndex::evict_before`](crate::index::JoinIndex::evict_before))
//! instead of deleting tuples one by one — O(1) amortised, and no
//! rebuilding of the live index.
//!
//! [`WindowTracker`] is the per-joiner bookkeeper: it decides *when* to
//! seal (the active sub-window's span filled up) and *what* is safely
//! evictable (the monotone [`evict_bound`](WindowTracker::evict_bound)).
//!
//! ### Window semantics
//!
//! Windows are **processing-order** windows, the only sound notion on a
//! stream that reaches a joiner over several FIFO channels with bounded
//! skew: let `L` be the highest sequence number the joiner has
//! processed (its stream clock). The tracker guarantees
//!
//! > a stored tuple `t` is evictable only once `t.seq + span + λ ≤ L`
//! > (count mode; time mode substitutes the window's ticks),
//!
//! where `λ`, the lateness allowance, is the furthest behind `L` any
//! tuple has reached the joiner so far, capped at one sub-window. `L`
//! runs ahead of the tuples still in flight from slower reshufflers, so
//! without `λ` a late tuple could miss a partner that is inside the
//! window by stream distance. With it, a tuple trailing the clock by
//! `ℓ` finds every partner closer than `span − sub_span` unless
//! `ℓ > λ + sub_span`: it trails by more than every earlier arrival did
//! plus a sub-window, or by more than two sub-windows. A stored tuple
//! stays at most `span` plus two sub-windows (plus the rest of the batch
//! that closed its sub-window). Eviction happens only while the joiner is
//! **stable** (no migration in flight), so Alg. 3's marker-FIFO
//! correctness argument is untouched: the four epoch sets never change
//! under a migration's feet.
//!
//! ## Checkpoint/restore
//!
//! [`Checkpoint`] is a versioned snapshot of everything a quiesced grid
//! session needs to resume: per-joiner live state, the grid/elastic
//! layout, the decision-maker's counters, and the source's ingest
//! cursor + flow-control window. There is one on-disk format: a
//! length-prefixed little-endian binary frame in the same codec
//! convention as the `aoj-net` wire protocol — compact enough that large
//! joiner states don't pay text encoding, and embeddable verbatim in a
//! wire frame ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`]).
//!
//! [`Checkpoint::read_from`] rejects anything that does not start with
//! `CHECKPOINT_MAGIC_V2`. Restore semantics (exactly-once match delivery) are
//! implemented by the session layer; this module owns the data model
//! and its (de)serialisation.

use std::collections::VecDeque;
use std::io;
use std::path::Path;

use crate::decision::DeciderSnapshot;
use crate::elastic::ElasticLayout;
use crate::mapping::{GridAssignment, GridPos, Mapping};
use crate::tuple::{Rel, Tuple};

/// What a window's `span` counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowMode {
    /// Stream distance: a tuple expires once the joiner has processed a
    /// tuple whose sequence number is `span` or more ahead of it.
    Count,
    /// Arrival time: a tuple expires once the joiner processes data that
    /// arrived `span` or more microseconds after it.
    Time,
}

/// Where a time window's clock ticks come from (ignored by count
/// windows, whose ticks are sequence numbers by definition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickSource {
    /// The backend clock at the joiner: wall-clock microseconds on the
    /// threaded/network backends, virtual microseconds on the simulator.
    Arrival,
    /// Real **event time** carried in the tuple's `aux` column,
    /// interpreted as microseconds (negative values clamp to zero). The
    /// stream decides how old a tuple is, not the machine that happens
    /// to process it — the sound notion when replaying historical data
    /// or when ingest lags the source.
    AuxEventTime,
}

/// A per-joiner retention window, partitioned into sub-windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Count or time semantics.
    pub mode: WindowMode,
    /// Window span: tuples ([`WindowMode::Count`]) or microseconds
    /// ([`WindowMode::Time`]).
    pub span: u64,
    /// Number of sub-windows the span is partitioned into; eviction
    /// granularity is `span / sub_windows`. At least 1.
    pub sub_windows: u32,
    /// Tick extractor for time windows: backend arrival clock (the
    /// default) or event time from the tuple `aux` column.
    pub ticks: TickSource,
}

/// Default sub-window partitioning (PanJoin uses a small constant).
pub const DEFAULT_SUB_WINDOWS: u32 = 8;

impl WindowSpec {
    /// A count window over the last `tuples` sequence numbers.
    pub fn count(tuples: u64) -> WindowSpec {
        WindowSpec {
            mode: WindowMode::Count,
            span: tuples.max(1),
            sub_windows: DEFAULT_SUB_WINDOWS,
            ticks: TickSource::Arrival,
        }
    }

    /// A time window over the last `micros` microseconds of arrivals.
    pub fn time_micros(micros: u64) -> WindowSpec {
        WindowSpec {
            mode: WindowMode::Time,
            span: micros.max(1),
            sub_windows: DEFAULT_SUB_WINDOWS,
            ticks: TickSource::Arrival,
        }
    }

    /// A time window over the last `micros` microseconds of **event
    /// time**, read from the tuple `aux` column
    /// ([`TickSource::AuxEventTime`]).
    pub fn time_event_aux(micros: u64) -> WindowSpec {
        WindowSpec {
            ticks: TickSource::AuxEventTime,
            ..WindowSpec::time_micros(micros)
        }
    }

    /// Override the sub-window count (clamped to at least 1).
    pub fn with_sub_windows(mut self, n: u32) -> WindowSpec {
        self.sub_windows = n.max(1);
        self
    }

    /// The window tick for a tuple per this spec's extractor: the
    /// backend arrival clock, or the `aux` column as event-time
    /// microseconds (clamped at zero).
    #[inline]
    pub fn tick_of(&self, arrival_us: u64, aux: i32) -> u64 {
        match self.ticks {
            TickSource::Arrival => arrival_us,
            TickSource::AuxEventTime => aux.max(0) as u64,
        }
    }

    /// The tick a tuple ages by: its sequence number under a count
    /// window, [`tick_of`](Self::tick_of) under a time window.
    #[inline]
    pub fn tick(&self, seq: u64, arrival_us: u64, aux: i32) -> u64 {
        match self.mode {
            WindowMode::Count => seq,
            WindowMode::Time => self.tick_of(arrival_us, aux),
        }
    }

    /// The span of one sub-window in the window's tick unit.
    #[inline]
    pub fn sub_span(&self) -> u64 {
        (self.span / self.sub_windows as u64).max(1)
    }
}

/// What one eviction pass removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Tuples dropped.
    pub tuples: u64,
    /// Payload bytes dropped.
    pub bytes: u64,
}

impl std::ops::AddAssign for EvictStats {
    fn add_assign(&mut self, rhs: EvictStats) {
        self.tuples += rhs.tuples;
        self.bytes += rhs.bytes;
    }
}

/// Sub-window sealing and expiry, shared by a joiner's [`WindowTracker`]
/// and the decider's model of what the joiners store
/// (`crate::decision`), so the two cannot disagree on which arrivals a
/// sub-window holds or on when it expires. `P` is what a sub-window
/// accumulates: its newest sequence number for the tracker, `(R, S)`
/// units for the model.
///
/// Sub-windows are aligned on the tick axis. One opens at the clock (the
/// newest tick seen) and closes once the clock reaches the last tick of
/// that tick's run `[k·sub_span, (k+1)·sub_span)`, keeping everything
/// that arrived before it closed, late ticks included. A sealed
/// sub-window expires once its newest tick is more than `span + λ`
/// behind the clock, where the lateness allowance `λ` is the furthest
/// any arrival has trailed the clock so far, capped at one sub-window
/// (module docs, "Window semantics").
#[derive(Clone, Debug)]
pub(crate) struct SubWindows<P> {
    spec: WindowSpec,
    /// The filling sub-window: the tick it opened at, and its payload.
    active: Option<(u64, P)>,
    /// Closed sub-windows, oldest first: the newest tick each saw, and
    /// its payload.
    sealed: VecDeque<(u64, P)>,
    latest_tick: u64,
    lateness: u64,
}

impl<P: Default> SubWindows<P> {
    pub(crate) fn new(spec: WindowSpec) -> SubWindows<P> {
        SubWindows {
            spec,
            active: None,
            sealed: VecDeque::new(),
            latest_tick: 0,
            lateness: 0,
        }
    }

    /// Resume at clock `tick` behind `sealed`, each a restored sub-window
    /// as `(newest tick, payload)`, oldest first.
    pub(crate) fn restored(
        spec: WindowSpec,
        tick: u64,
        sealed: impl IntoIterator<Item = (u64, P)>,
    ) -> SubWindows<P> {
        let mut w = SubWindows::new(spec);
        w.latest_tick = tick;
        w.sealed.extend(sealed);
        w
    }

    #[inline]
    pub(crate) fn spec(&self) -> WindowSpec {
        self.spec
    }

    #[inline]
    pub(crate) fn latest_tick(&self) -> u64 {
        self.latest_tick
    }

    /// Record one arrival at `tick`, folded into the active sub-window's
    /// payload by `add`. Returns `true` when that sub-window just closed.
    pub(crate) fn observe(&mut self, tick: u64, add: impl FnOnce(&mut P)) -> bool {
        self.lateness = self.lateness.max(self.latest_tick.saturating_sub(tick));
        self.latest_tick = self.latest_tick.max(tick);
        let clock = self.latest_tick;
        let (start, payload) = self.active.get_or_insert_with(|| (clock, P::default()));
        add(payload);
        let sub = self.spec.sub_span();
        if (*start / sub + 1).saturating_mul(sub) > clock.saturating_add(1) {
            return false;
        }
        let (_, payload) = self.active.take().expect("an active sub-window");
        self.sealed.push_back((clock, payload));
        true
    }

    /// Count an arrival at `tick` towards the lateness allowance only.
    pub(crate) fn note_lateness(&mut self, tick: u64) {
        self.lateness = self.lateness.max(self.latest_tick.saturating_sub(tick));
    }

    /// Fold the active sub-window into the newest sealed one, whose
    /// newest tick becomes the clock: the host stored them as one run.
    pub(crate) fn fold_active(&mut self, merge: impl FnOnce(&mut P, P)) {
        if let (Some((_, tail)), Some((hi_tick, last))) =
            (self.active.take(), self.sealed.back_mut())
        {
            *hi_tick = (*hi_tick).max(self.latest_tick);
            merge(last, tail);
        }
    }

    /// Pop the oldest sealed sub-window if it has expired.
    pub(crate) fn pop_expired(&mut self) -> Option<P> {
        let watermark = self
            .latest_tick
            .saturating_sub(self.lateness.min(self.spec.sub_span()))
            .saturating_sub(self.spec.span);
        if self.sealed.front()?.0 < watermark {
            self.sealed.pop_front().map(|(_, p)| p)
        } else {
            None
        }
    }
}

/// Per-joiner sub-window bookkeeping: decides when the host should seal
/// the live index's active segment, and how far eviction may reach.
///
/// The tracker never touches tuples itself — the host observes each
/// processed tuple, seals the index segment when told to, and passes
/// [`evict_bound`](WindowTracker::evict_bound) to
/// [`JoinIndex::evict_before`](crate::index::JoinIndex::evict_before).
#[derive(Clone, Debug)]
pub struct WindowTracker {
    /// Sealing and expiry; each sub-window's payload is the highest
    /// sequence number in it.
    windows: SubWindows<u64>,
    latest_seq: u64,
    /// Monotone eviction bound (sequence-number space).
    bound: u64,
}

impl WindowTracker {
    /// An empty tracker for `spec`.
    pub fn new(spec: WindowSpec) -> WindowTracker {
        WindowTracker {
            windows: SubWindows::new(spec),
            latest_seq: 0,
            bound: 0,
        }
    }

    /// Rebuild a tracker from a checkpoint: the joiner's restored live
    /// state is treated as one already-sealed sub-window whose tuples
    /// all "arrived" at the checkpoint's clock — conservative (restored
    /// tuples expire no earlier than they would have), never early.
    /// The lateness allowance is not checkpointed; it is relearned from
    /// the arrivals after the restore.
    pub fn restored(
        spec: WindowSpec,
        latest_seq: u64,
        latest_tick: u64,
        restored_hi_seq: Option<u64>,
    ) -> WindowTracker {
        let sealed = restored_hi_seq.map(|hi_seq| (latest_tick, hi_seq));
        WindowTracker {
            windows: SubWindows::restored(spec, latest_tick, sealed),
            latest_seq,
            bound: 0,
        }
    }

    /// Rebuild a count-window tracker from a checkpoint whose restored
    /// tuples (sequence numbers `seqs`) the host sealed one segment per
    /// sub-window they fall in: each segment expires with its own newest
    /// sequence number, as it would have without the restore. The clock
    /// sits at `latest_seq` or the newest restored tuple, whichever is
    /// later.
    pub fn restored_by_sub_window(
        spec: WindowSpec,
        latest_seq: u64,
        seqs: impl IntoIterator<Item = u64>,
    ) -> WindowTracker {
        debug_assert_eq!(spec.mode, WindowMode::Count);
        let sub = spec.sub_span();
        let mut newest = std::collections::BTreeMap::new();
        for seq in seqs {
            let hi = newest.entry(seq / sub).or_insert(seq);
            *hi = (*hi).max(seq);
        }
        let clock = newest.values().fold(latest_seq, |c, &hi| c.max(hi));
        let sealed = newest.into_values().map(|hi| (hi, hi));
        WindowTracker {
            windows: SubWindows::restored(spec, clock, sealed),
            latest_seq: clock,
            bound: 0,
        }
    }

    /// The window specification this tracker enforces.
    #[inline]
    pub fn spec(&self) -> WindowSpec {
        self.windows.spec()
    }

    /// `(latest_seq, latest_tick)` — the joiner's stream clock.
    #[inline]
    pub fn latest(&self) -> (u64, u64) {
        (self.latest_seq, self.windows.latest_tick())
    }

    /// Record one processed tuple. Returns `true` when the active
    /// sub-window just closed: the host must call
    /// [`JoinIndex::seal_segment`](crate::index::JoinIndex::seal_segment)
    /// on its live index *now*, before observing further tuples.
    pub fn observe(&mut self, seq: u64, now_us: u64) -> bool {
        let tick = match self.spec().mode {
            WindowMode::Count => seq,
            WindowMode::Time => now_us,
        };
        self.latest_seq = self.latest_seq.max(seq);
        self.windows
            .observe(tick, |hi_seq| *hi_seq = (*hi_seq).max(seq))
    }

    /// Record a batch that the host indexes as one run, sealing the live
    /// segment only after the whole batch. Returns `true` when a
    /// sub-window closed inside it: the host must seal now. The tuples
    /// after the closing one sit in the sealed segment, so they join the
    /// closing sub-window's mark here too; otherwise the segment would
    /// outlive its mark until the *next* mark expired, one sub-window
    /// late.
    pub fn observe_batch(&mut self, ticks: impl IntoIterator<Item = (u64, u64)>) -> bool {
        let mut sealed = false;
        for (seq, tick) in ticks {
            sealed |= self.observe(seq, tick);
        }
        if sealed {
            self.windows
                .fold_active(|hi_seq, tail| *hi_seq = (*hi_seq).max(tail));
        }
        sealed
    }

    /// Note tuples the host stores outside the live run (arrivals during
    /// a migration): they neither move the clock nor fill a sub-window,
    /// but how far they trail the clock counts towards the lateness
    /// allowance.
    pub fn note_lateness(&mut self, ticks: impl IntoIterator<Item = u64>) {
        ticks
            .into_iter()
            .for_each(|t| self.windows.note_lateness(t));
    }

    /// The current eviction bound: tuples with `seq < bound` are outside
    /// the window of the joiner's stream clock, held back by the lateness
    /// allowance, and may be dropped. Monotone; pops fully-expired
    /// sub-windows as a side effect.
    ///
    /// Invariant (the safety property the proptests pin): the returned
    /// bound never exceeds `latest_tick − span + 1` translated to
    /// sequence space, so no tuple within `span` of the clock is ever
    /// evictable.
    pub fn evict_bound(&mut self) -> u64 {
        while let Some(hi_seq) = self.windows.pop_expired() {
            self.bound = self.bound.max(hi_seq + 1);
        }
        self.bound
    }
}

// ---------------------------------------------------------------------
// Checkpoint model + versioned serialisation
// ---------------------------------------------------------------------

/// Binary format magic (first 8 bytes of a v2 snapshot file or of a
/// [`Checkpoint::to_bytes`] image). Bump it on any layout change;
/// [`Checkpoint::read_from`] rejects anything else.
pub(crate) const CHECKPOINT_MAGIC_V2: &[u8; 8] = b"AOJCKPT2";

/// One joiner's checkpointed state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinerCheckpoint {
    /// Machine index hosting this joiner.
    pub machine: usize,
    /// Cumulative eviction counters (stats continuity across restore).
    pub evicted_tuples: u64,
    /// Cumulative evicted payload bytes.
    pub evicted_bytes: u64,
    /// The joiner's stream clock: highest processed sequence number.
    pub latest_seq: u64,
    /// The joiner's stream clock in window ticks (equals `latest_seq`
    /// for count windows, an arrival microsecond for time windows).
    pub latest_tick: u64,
    /// The live (τ) tuples, segment structure flattened.
    pub tuples: Vec<Tuple>,
}

/// A complete, versioned snapshot of a quiesced grid session.
///
/// Captured at a migration checkpoint with no reconfiguration in
/// flight: every joiner is stable, the ingest queue is drained, and all
/// matches for tuples before `source_cursor` have been delivered. The
/// restore path (`JoinSession::restore` in `aoj-operators`) rebuilds
/// the topology from this plus the original `SessionBuilder` — config
/// (predicates, cost models) is code, not data, so it is *not*
/// serialised; the fingerprint fields (`j`, `kind`, `seed`) guard
/// against restoring under a mismatched configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Initial joiner count of the session (`SessionBuilder::j`).
    pub j: u32,
    /// Operator kind label ("Dynamic", "StaticMid", ...).
    pub kind: String,
    /// Ticket seed the session ran with.
    pub seed: u64,
    /// The cluster-wide epoch at the quiesced checkpoint.
    pub epoch: u32,
    /// Grid assignment (mapping + machine↔cell bijection).
    pub assign: GridAssignment,
    /// Elastic machine-slot bookkeeping (dormant pool, fresh frontier).
    pub layout: ElasticLayout,
    /// `(expansions_done, contractions_done)` of the elastic control,
    /// when the session ran elastically.
    pub elastic: Option<(u32, u32)>,
    /// The migration decision-maker's committed statistics.
    pub decider: DeciderSnapshot,
    /// The source's ingest cursor: tuples `0..cursor` are fully
    /// processed; the caller resumes pushing from here.
    pub source_cursor: u64,
    /// The source's current flow-control window (tuple copies), after
    /// any elastic grow/shrink rescaling.
    pub window_copies: u64,
    /// Per-joiner state for every **active** machine, ascending by
    /// machine index.
    pub joiners: Vec<JoinerCheckpoint>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// Binary body primitives. The outer frame (magic + u32 LE body
// length) matches the aoj-net wire codec convention; inside the body,
// integers are LEB128 varints and signed values are zigzag-folded, so
// a checkpoint full of small sequence numbers is *smaller* than its
// decimal text rendering, not 8 bytes a field. (aoj-core stays
// dependency-free, so the few lines live here rather than being
// imported.)

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_ivar(out: &mut Vec<u8>, v: i64) {
    put_var(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_var(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a binary checkpoint body.
struct Bin<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Bin<'_> {
    fn take(&mut self, n: usize, what: &str) -> io::Result<&[u8]> {
        if self.pos + n > self.buf.len() {
            return Err(bad(format!("checkpoint: truncated binary {what}")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn var(&mut self, what: &str) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 64 {
                return Err(bad(format!("checkpoint: overlong varint {what}")));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn ivar(&mut self, what: &str) -> io::Result<i64> {
        let z = self.var(what)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn str(&mut self, what: &str) -> io::Result<String> {
        let n = self.var(what)? as usize;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| bad(format!("checkpoint: non-UTF-8 {what}")))
    }
}

impl Checkpoint {
    /// Serialise to `path` as a v2 binary image ([`Checkpoint::to_bytes`]).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Encode as a self-contained v2 binary image: the 8-byte magic, a
    /// little-endian `u32` body length, then the length-prefixed body —
    /// the same codec convention as the `aoj-net` wire frames, so a
    /// snapshot can ride inside one without re-encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.joiners.len() * 64);
        put_var(&mut body, self.j as u64);
        put_str(&mut body, &self.kind);
        put_var(&mut body, self.seed);
        put_var(&mut body, self.epoch as u64);
        let mapping = self.assign.mapping();
        put_var(&mut body, mapping.n as u64);
        put_var(&mut body, mapping.m as u64);
        let pos = self.assign.pos_slice();
        put_var(&mut body, pos.len() as u64);
        for p in pos {
            put_var(&mut body, p.row as u64);
            put_var(&mut body, p.col as u64);
        }
        let cells: Vec<usize> = self.assign.machines().collect();
        put_var(&mut body, cells.len() as u64);
        for m in &cells {
            put_var(&mut body, *m as u64);
        }
        put_var(&mut body, self.layout.high_water() as u64);
        put_var(&mut body, self.layout.dormant().len() as u64);
        for d in self.layout.dormant() {
            put_var(&mut body, *d as u64);
        }
        match self.elastic {
            Some((e, c)) => {
                body.push(1);
                put_var(&mut body, e as u64);
                put_var(&mut body, c as u64);
            }
            None => body.push(0),
        }
        let d = &self.decider;
        for v in [d.r, d.s, d.dr, d.ds, d.decisions, d.migrations] {
            put_var(&mut body, v);
        }
        put_var(&mut body, self.source_cursor);
        put_var(&mut body, self.window_copies);
        put_var(&mut body, self.joiners.len() as u64);
        for j in &self.joiners {
            put_var(&mut body, j.machine as u64);
            put_var(&mut body, j.evicted_tuples);
            put_var(&mut body, j.evicted_bytes);
            put_var(&mut body, j.latest_seq);
            put_var(&mut body, j.latest_tick);
            put_var(&mut body, j.tuples.len() as u64);
            for t in &j.tuples {
                put_var(&mut body, t.seq);
                body.push(match t.rel {
                    Rel::R => 0,
                    Rel::S => 1,
                });
                put_ivar(&mut body, t.key);
                put_ivar(&mut body, t.aux as i64);
                put_var(&mut body, t.bytes as u64);
                put_var(&mut body, t.ticket);
            }
        }
        let mut out = Vec::with_capacity(12 + body.len());
        out.extend_from_slice(CHECKPOINT_MAGIC_V2);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a v2 binary image produced by [`Checkpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Checkpoint> {
        if bytes.len() < 12 || &bytes[..8] != CHECKPOINT_MAGIC_V2 {
            return Err(bad("checkpoint: missing v2 binary magic"));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let body = &bytes[12..];
        if body.len() != body_len {
            return Err(bad(format!(
                "checkpoint: binary frame length mismatch (header {body_len}, have {})",
                body.len()
            )));
        }
        let mut b = Bin { buf: body, pos: 0 };
        let j = b.var("j")? as u32;
        let kind = b.str("kind")?;
        let seed = b.var("seed")?;
        let epoch = b.var("epoch")? as u32;
        let n = b.var("mapping n")? as u32;
        let m = b.var("mapping m")? as u32;
        let mapping = Mapping::new(n, m);
        let pos: Vec<GridPos> = (0..b.var("pos count")?)
            .map(|_| {
                Ok(GridPos {
                    row: b.var("pos row")? as u32,
                    col: b.var("pos col")? as u32,
                })
            })
            .collect::<io::Result<_>>()?;
        let cells: Vec<u32> = (0..b.var("cell count")?)
            .map(|_| Ok(b.var("cell machine")? as u32))
            .collect::<io::Result<_>>()?;
        let next_fresh = b.var("layout next_fresh")? as usize;
        let dormant: Vec<usize> = (0..b.var("layout dormant count")?)
            .map(|_| Ok(b.var("layout dormant")? as usize))
            .collect::<io::Result<_>>()?;
        let layout = ElasticLayout::from_parts(next_fresh, dormant);
        let elastic = match b.u8("elastic flag")? {
            0 => None,
            1 => Some((b.var("expansions")? as u32, b.var("contractions")? as u32)),
            other => return Err(bad(format!("checkpoint: bad elastic flag {other}"))),
        };
        let decider = DeciderSnapshot {
            r: b.var("decider r")?,
            s: b.var("decider s")?,
            dr: b.var("decider dr")?,
            ds: b.var("decider ds")?,
            decisions: b.var("decider decisions")?,
            migrations: b.var("decider migrations")?,
        };
        let source_cursor = b.var("source cursor")?;
        let window_copies = b.var("window copies")?;
        let joiners: Vec<JoinerCheckpoint> = (0..b.var("joiner count")?)
            .map(|_| {
                let machine = b.var("joiner machine")? as usize;
                let evicted_tuples = b.var("evicted tuples")?;
                let evicted_bytes = b.var("evicted bytes")?;
                let latest_seq = b.var("latest seq")?;
                let latest_tick = b.var("latest tick")?;
                let tuples: Vec<Tuple> = (0..b.var("tuple count")?)
                    .map(|_| {
                        Ok(Tuple {
                            seq: b.var("tuple seq")?,
                            rel: match b.u8("tuple rel")? {
                                0 => Rel::R,
                                1 => Rel::S,
                                other => {
                                    return Err(bad(format!("checkpoint: bad relation {other}")))
                                }
                            },
                            key: b.ivar("tuple key")?,
                            aux: b.ivar("tuple aux")? as i32,
                            bytes: b.var("tuple bytes")? as u32,
                            ticket: b.var("tuple ticket")?,
                        })
                    })
                    .collect::<io::Result<_>>()?;
                Ok(JoinerCheckpoint {
                    machine,
                    evicted_tuples,
                    evicted_bytes,
                    latest_seq,
                    latest_tick,
                    tuples,
                })
            })
            .collect::<io::Result<_>>()?;
        if b.pos != body.len() {
            return Err(bad(format!(
                "checkpoint: {} trailing bytes after binary body",
                body.len() - b.pos
            )));
        }
        let assign = GridAssignment::from_parts(mapping, pos, cells)
            .map_err(|e| bad(format!("checkpoint: {e}")))?;
        Ok(Checkpoint {
            j,
            kind,
            seed,
            epoch,
            assign,
            layout,
            elastic,
            decider,
            source_cursor,
            window_copies,
            joiners,
        })
    }

    /// Read and validate a checkpoint file. Anything that does not
    /// start with `CHECKPOINT_MAGIC_V2` — including the retired
    /// `aoj-checkpoint v1` text layout — is `InvalidData`.
    pub fn read_from(path: &Path) -> io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        if !bytes.starts_with(CHECKPOINT_MAGIC_V2) {
            let head = String::from_utf8_lossy(&bytes[..bytes.len().min(24)]).into_owned();
            return Err(bad(format!(
                "checkpoint: unsupported format (file starts {head:?}; \
                 only the v2 binary format is readable)"
            )));
        }
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_window_seals_at_sub_span() {
        let spec = WindowSpec::count(80).with_sub_windows(8); // sub_span 10
        let mut w = WindowTracker::new(spec);
        let mut seals = 0;
        for seq in 0..100u64 {
            if w.observe(seq, 0) {
                seals += 1;
            }
        }
        assert_eq!(seals, 10, "100 tuples / sub_span 10");
        assert_eq!(w.latest(), (99, 99));
    }

    #[test]
    fn a_mid_batch_seal_takes_the_rest_of_the_batch() {
        let spec = WindowSpec::count(40).with_sub_windows(4); // sub_span 10
        let mut w = WindowTracker::new(spec);
        // The sub-window [0, 9] closes at 9; the host seals after 12, so
        // the mark covers 0..=12. The next one opens at 13, inside the
        // aligned run [10, 19], and closes at 19.
        assert!(w.observe_batch((0..13u64).map(|s| (s, s))));
        assert!(!w.observe_batch((13..19u64).map(|s| (s, s))));
        assert!(w.observe_batch((19..22u64).map(|s| (s, s))));
        // The first segment (max seq 12) expires as soon as its mark does,
        // once the clock passes 12 + span.
        for seq in 22..=52u64 {
            w.observe_batch([(seq, seq)]);
        }
        assert_eq!(w.evict_bound(), 0, "seq 12 is still within 40 of 52");
        w.observe_batch([(53, 53)]);
        assert_eq!(w.evict_bound(), 13);
    }

    #[test]
    fn sub_windows_stay_aligned_after_a_late_start() {
        // A joiner that first sees seq 13 seals at 19, 29, 39: the
        // sub-windows the decider's model keys by `seq / sub_span`.
        let spec = WindowSpec::count(40).with_sub_windows(4);
        let mut w = WindowTracker::new(spec);
        let closed: Vec<u64> = (13..40u64).filter(|&s| w.observe(s, 0)).collect();
        assert_eq!(closed, vec![19, 29, 39]);
    }

    #[test]
    fn eviction_waits_out_the_largest_lateness_seen() {
        let spec = WindowSpec::count(40).with_sub_windows(4); // sub_span 10
        let mut prompt = WindowTracker::new(spec);
        let (mut late, mut spike) = (prompt.clone(), prompt.clone());
        for seq in 0..=50u64 {
            for w in [&mut prompt, &mut late, &mut spike] {
                w.observe(seq, 0);
            }
        }
        // One tuple trails the clock by 8: that tracker holds every
        // sub-window 8 ticks longer.
        late.observe(42, 0);
        assert_eq!(prompt.evict_bound(), 10, "[0, 9] is behind 50 − 40");
        assert_eq!(late.evict_bound(), 0, "[0, 9] is within 50 − 40 − 8");
        for seq in 51..=57u64 {
            late.observe(seq, 0);
        }
        assert_eq!(late.evict_bound(), 0);
        late.observe(58, 0);
        assert_eq!(late.evict_bound(), 10);
        // A spike past one sub-window is allowed one sub-window only.
        spike.observe(25, 0);
        for seq in 51..=60u64 {
            spike.observe(seq, 0);
        }
        assert_eq!(spike.evict_bound(), 10, "[0, 9] is behind 60 − 40 − 10");
        assert!(spike.evict_bound() <= (60 + 1u64).saturating_sub(spec.span));
    }

    #[test]
    fn evict_bound_respects_window_span() {
        let spec = WindowSpec::count(40).with_sub_windows(4); // sub_span 10
        let mut w = WindowTracker::new(spec);
        for seq in 0..100u64 {
            w.observe(seq, 0);
            let bound = w.evict_bound();
            // Safety: nothing within `span` of the clock is evictable.
            assert!(
                bound <= (seq + 1).saturating_sub(spec.span),
                "bound {bound} too aggressive at clock {seq}"
            );
        }
        // Liveness: after 100 tuples with a 40-window partitioned in
        // 10s, everything below 50 has expired (sealed segments with
        // hi_seq 49 and below are behind the watermark 59).
        assert!(w.evict_bound() >= 50, "bound {} stalled", w.evict_bound());
    }

    #[test]
    fn evict_bound_is_monotone_under_reordering() {
        let spec = WindowSpec::count(20).with_sub_windows(4);
        let mut w = WindowTracker::new(spec);
        let mut last = 0;
        // Mildly out-of-order stream (bounded skew, like FIFO channels
        // from multiple reshufflers).
        for i in 0..200u64 {
            let seq = if i % 7 == 3 { i.saturating_sub(3) } else { i };
            w.observe(seq, 0);
            let b = w.evict_bound();
            assert!(b >= last, "bound went backwards");
            assert!(b <= (w.latest().0 + 1).saturating_sub(spec.span));
            last = b;
        }
        assert!(last > 0);
    }

    #[test]
    fn time_window_uses_arrival_ticks() {
        let spec = WindowSpec::time_micros(1000).with_sub_windows(4); // sub_span 250
        let mut w = WindowTracker::new(spec);
        // 10 tuples per 100us step.
        for i in 0..100u64 {
            w.observe(i, i * 100);
        }
        let bound = w.evict_bound();
        // Clock is at 9900us; watermark 8900us; tuples sealed with
        // hi_tick < 8900 have seq <= ~88.
        assert!(bound > 0, "time window never evicted");
        assert!(bound <= 90, "evicted inside the window");
    }

    #[test]
    fn aux_event_time_extractor_drives_time_windows() {
        let spec = WindowSpec::time_event_aux(1000).with_sub_windows(4);
        assert_eq!(spec.mode, WindowMode::Time);
        assert_eq!(spec.ticks, TickSource::AuxEventTime);
        // The extractor ignores the arrival clock and reads `aux`
        // (negative event times clamp to zero, never panic).
        assert_eq!(spec.tick_of(77, 4200), 4200);
        assert_eq!(spec.tick_of(77, -5), 0);
        assert_eq!(WindowSpec::time_micros(1000).tick_of(77, 4200), 77);
        // Driving a tracker with aux ticks: stalled arrival time, fast
        // event time — eviction follows the event clock.
        let mut w = WindowTracker::new(spec);
        for i in 0..100u64 {
            let tick = spec.tick_of(0, (i * 100) as i32);
            w.observe(i, tick);
        }
        let bound = w.evict_bound();
        assert!(bound > 0, "event-time window never evicted");
        assert!(bound <= 90, "evicted inside the event-time window");
    }

    #[test]
    fn restored_tracker_is_conservative() {
        let spec = WindowSpec::count(50);
        let mut w = WindowTracker::restored(spec, 200, 200, Some(199));
        // Right after restore nothing has expired (hi_tick == clock).
        assert_eq!(w.evict_bound(), 0);
        // Once the clock moves past hi_tick + span, the restored
        // segment expires wholesale (later live sub-windows may have
        // expired too — the bound just must cover the restored one and
        // stay inside the safety envelope).
        for seq in 201..=260u64 {
            w.observe(seq, 0);
        }
        let bound = w.evict_bound();
        assert!(bound >= 200, "restored segment never expired");
        assert!(bound <= (260 + 1u64).saturating_sub(spec.span));
    }

    #[test]
    fn a_count_restore_expires_by_sub_window() {
        let spec = WindowSpec::count(40).with_sub_windows(4); // sub_span 10
                                                              // Restored 15..=35: sub-windows [10, 19], [20, 29] and [30, 39].
        let mut w = WindowTracker::restored_by_sub_window(spec, 35, 15..=35);
        let mut flat = WindowTracker::restored(spec, 35, 35, Some(35));
        assert_eq!(w.latest(), (35, 35));
        assert_eq!(w.evict_bound(), 0);
        for seq in 36..=60u64 {
            w.observe(seq, 0);
            flat.observe(seq, 0);
        }
        assert_eq!(w.evict_bound(), 20, "[10, 19] is behind 60 − 40");
        assert_eq!(flat.evict_bound(), 0, "flattened, it waits for 35 + 40");
    }

    fn sample_checkpoint() -> Checkpoint {
        let assign = GridAssignment::initial(Mapping::new(2, 2));
        Checkpoint {
            j: 4,
            kind: "Dynamic".to_string(),
            seed: 0x5EED,
            epoch: 3,
            assign,
            layout: ElasticLayout::from_parts(7, vec![4, 5]),
            elastic: Some((1, 1)),
            decider: DeciderSnapshot {
                r: 10,
                s: 20,
                dr: 1,
                ds: 2,
                decisions: 5,
                migrations: 2,
            },
            source_cursor: 1234,
            window_copies: 256,
            joiners: vec![JoinerCheckpoint {
                machine: 0,
                evicted_tuples: 9,
                evicted_bytes: 576,
                latest_seq: 1200,
                latest_tick: 1200,
                tuples: vec![
                    Tuple::new(Rel::R, 1, -5, 42).with_aux(-3),
                    Tuple::new(Rel::S, 2, 7, u64::MAX).with_bytes(100),
                ],
            }],
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let ck = sample_checkpoint();
        let dir = std::env::temp_dir().join("aoj-lifecycle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        ck.write_to(&path).unwrap();
        assert_eq!(ck, Checkpoint::read_from(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_checkpoint_roundtrips_in_memory_and_is_compact() {
        let mut ck = sample_checkpoint();
        // Negative keys/aux and a large state must survive the cast
        // round-trip, and the varint image must be smaller than the
        // tuples' in-memory size (the point of the format).
        for seq in 0..500u64 {
            ck.joiners[0]
                .tuples
                .push(Tuple::new(Rel::R, seq, seq as i64 - 250, seq).with_aux(-(seq as i32)));
        }
        let bytes = ck.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ck);
        let in_memory = ck.joiners[0].tuples.len() * std::mem::size_of::<Tuple>();
        assert!(bytes.len() < in_memory, "{} >= {in_memory}", bytes.len());
    }

    #[test]
    fn binary_checkpoint_rejects_corruption() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        // Truncated body.
        let err = Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        let err = Checkpoint::from_bytes(&wrong).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Trailing garbage past the declared body.
        let mut long = bytes.clone();
        long.push(0);
        let err = Checkpoint::from_bytes(&long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_from_rejects_everything_but_v2_binary() {
        // A well-formed snapshot in the retired v1 text layout, and a
        // header from no version at all.
        let v1 = "aoj-checkpoint v1\nsession 4 Dynamic 24301\nepoch 0\nmapping 2 2\n\
                  pos 4 0 0 0 1 1 0 1 1\ncells 4 0 1 2 3\nlayout 4 0\n\
                  decider 0 0 0 0 0 0\nsource 0 256\nend\n";
        let dir = std::env::temp_dir().join("aoj-lifecycle-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, content) in [("v1.ckpt", v1), ("v999.ckpt", "aoj-checkpoint v999\nend\n")] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let err = Checkpoint::read_from(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains("unsupported format"), "{err}");
            std::fs::remove_file(&path).ok();
        }
    }
}
