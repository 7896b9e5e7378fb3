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
//! > a stored tuple `t` is evictable only once `t.seq + span ≤ L`
//! > (count mode; time mode substitutes arrival timestamps),
//!
//! so any probe finds every partner still inside the window of the
//! joiner's own clock. Eviction happens only while the joiner is
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
//! [`CHECKPOINT_MAGIC_V2`]. Restore semantics (exactly-once match delivery) are
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
        WindowSpec::time_micros(micros).with_aux_event_time()
    }

    /// Override the sub-window count (clamped to at least 1).
    pub fn with_sub_windows(mut self, n: u32) -> WindowSpec {
        self.sub_windows = n.max(1);
        self
    }

    /// Switch a time window's clock to event time from the tuple `aux`
    /// column. Count windows ignore the tick source.
    pub fn with_aux_event_time(mut self) -> WindowSpec {
        self.ticks = TickSource::AuxEventTime;
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

/// A sealed sub-window's summary: the highest sequence number and the
/// highest tick (sequence number or arrival microsecond, per mode) of
/// any tuple inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SealMark {
    hi_seq: u64,
    hi_tick: u64,
}

/// Live occupancy of one joiner's window (for `SessionHandle::stats()`
/// and the future model-driven controller).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowOccupancy {
    /// Sealed sub-windows currently awaiting expiry.
    pub sealed_sub_windows: usize,
    /// Tick span covered by the active (unsealed) sub-window.
    pub active_span: u64,
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
    spec: WindowSpec,
    /// Tick at which the active sub-window opened (None: empty).
    active_start: Option<u64>,
    /// Highest sequence number in the active sub-window.
    active_hi_seq: u64,
    /// Sealed sub-windows, oldest first.
    seals: VecDeque<SealMark>,
    latest_tick: u64,
    latest_seq: u64,
    /// Monotone eviction bound (sequence-number space).
    bound: u64,
}

impl WindowTracker {
    /// An empty tracker for `spec`.
    pub fn new(spec: WindowSpec) -> WindowTracker {
        WindowTracker {
            spec,
            active_start: None,
            active_hi_seq: 0,
            seals: VecDeque::new(),
            latest_tick: 0,
            latest_seq: 0,
            bound: 0,
        }
    }

    /// Rebuild a tracker from a checkpoint: the joiner's restored live
    /// state is treated as one already-sealed sub-window whose tuples
    /// all "arrived" at the checkpoint's clock — conservative (restored
    /// tuples expire no earlier than they would have), never unsafe.
    pub fn restored(
        spec: WindowSpec,
        latest_seq: u64,
        latest_tick: u64,
        restored_hi_seq: Option<u64>,
    ) -> WindowTracker {
        let mut w = WindowTracker::new(spec);
        w.latest_seq = latest_seq;
        w.latest_tick = latest_tick;
        if let Some(hi_seq) = restored_hi_seq {
            w.seals.push_back(SealMark {
                hi_seq,
                hi_tick: latest_tick,
            });
        }
        w
    }

    /// The window specification this tracker enforces.
    #[inline]
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// `(latest_seq, latest_tick)` — the joiner's stream clock.
    #[inline]
    pub fn latest(&self) -> (u64, u64) {
        (self.latest_seq, self.latest_tick)
    }

    /// Record one processed tuple. Returns `true` when the active
    /// sub-window just closed: the host must call
    /// [`JoinIndex::seal_segment`](crate::index::JoinIndex::seal_segment)
    /// on its live index *now*, before observing further tuples.
    pub fn observe(&mut self, seq: u64, now_us: u64) -> bool {
        let tick = match self.spec.mode {
            WindowMode::Count => seq,
            WindowMode::Time => now_us,
        };
        self.latest_seq = self.latest_seq.max(seq);
        self.latest_tick = self.latest_tick.max(tick);
        self.active_hi_seq = self.active_hi_seq.max(seq);
        let start = *self.active_start.get_or_insert(tick);
        if self.latest_tick.saturating_sub(start) + 1 >= self.spec.sub_span() {
            self.seals.push_back(SealMark {
                hi_seq: self.active_hi_seq,
                hi_tick: self.latest_tick,
            });
            self.active_start = None;
            self.active_hi_seq = 0;
            true
        } else {
            false
        }
    }

    /// The current eviction bound: tuples with `seq < bound` are outside
    /// the window of the joiner's stream clock and may be dropped.
    /// Monotone; pops fully-expired seal marks as a side effect.
    ///
    /// Invariant (the safety property the proptests pin): the returned
    /// bound never exceeds `latest_tick − span + 1` translated to
    /// sequence space, so no tuple within `span` of the clock is ever
    /// evictable.
    pub fn evict_bound(&mut self) -> u64 {
        let watermark = self.latest_tick.saturating_sub(self.spec.span);
        while let Some(front) = self.seals.front() {
            if front.hi_tick < watermark {
                self.bound = self.bound.max(front.hi_seq + 1);
                self.seals.pop_front();
            } else {
                break;
            }
        }
        self.bound
    }

    /// Live occupancy for stats reporting.
    pub fn occupancy(&self) -> WindowOccupancy {
        WindowOccupancy {
            sealed_sub_windows: self.seals.len(),
            active_span: self
                .active_start
                .map(|s| self.latest_tick.saturating_sub(s) + 1)
                .unwrap_or(0),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint model + versioned serialisation
// ---------------------------------------------------------------------

/// Binary format magic (first 8 bytes of a v2 snapshot file or of a
/// [`Checkpoint::to_bytes`] image). Bump it on any layout change;
/// [`Checkpoint::read_from`] rejects anything else.
pub const CHECKPOINT_MAGIC_V2: &[u8; 8] = b"AOJCKPT2";

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
    /// start with [`CHECKPOINT_MAGIC_V2`] — including the retired
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
