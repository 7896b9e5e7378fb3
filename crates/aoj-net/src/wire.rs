//! The wire format of the TCP backend: one definition per message.
//!
//! Every frame on every connection is `[u32 LE payload length][u8 kind]
//! [payload]`, and every payload is the [`Wire`] encoding of one Rust
//! value. There is no schema language and no reflection: a type's layout
//! is the concatenation of its fields' layouts, fixed-width little-endian
//! at the leaves, written down **once** as a row of a field table —
//! `Ready { machine: u64, gen: u32, fingerprint: u64, data_port: u16 }`,
//! `Step { 0 => HalveRows, 1 => HalveCols }`. `wire_struct!` and
//! `wire_enum!` expand a row into the type's [`Wire::encode_into`],
//! [`Wire::decode`] and [`Wire::MIN_LEN`], so encoder, decoder and
//! minimum length cannot disagree; `wire_via!` covers types with
//! private fields, which travel as their parts and are rebuilt through
//! their validating constructor. The trait is local to this crate, which
//! makes the impls for `aoj-core`, `aoj-simnet` and `aoj-operators` types
//! legal here. Decoding is strict, because frames arrive from another
//! process: an unknown enum tag, a `bool` byte other than 0/1, a list
//! count larger than the bytes that remain, or trailing bytes after the
//! value are all `InvalidData`.
//!
//! Three things cross the wire:
//!
//! * **The plan** ([`Plan`]): a [`SessionBuilder`] image plus a protocol
//!   version and an FNV-1a fingerprint of the image. A worker rebuilds
//!   the entire operator topology from the plan and refuses to proceed on
//!   any version or fingerprint mismatch, so a stale binary can never
//!   silently join a cluster.
//! * **Operator messages** ([`TaskMsg`]): every [`OpMsg`] variant,
//!   losslessly. `Predicate::Theta` closures are the one deliberate
//!   exception — a function pointer cannot cross a process boundary, and
//!   the codec says so loudly instead of guessing.
//! * **Control traffic**: handshakes, machine directory updates,
//!   lifecycle (provision / retire, and the retirement token that rides
//!   the data plane), quiescence probes, gauge
//!   samples, streamed matches, and the per-worker [`FinalsBundle`] that
//!   carries task-level counters home when a worker exits.

use std::io::{self, Read, Write};

use aoj_core::decision::{DeciderSnapshot, DecisionConfig};
use aoj_core::elastic::{ContractRole, ElasticLayout, ExpandSpec};
use aoj_core::epoch::{Reconfig, Role};
use aoj_core::lifecycle::{JoinerCheckpoint, TickSource, WindowMode, WindowSpec};
use aoj_core::mapping::{GridAssignment, GridPos, Mapping, Step};
use aoj_core::migration::MachineStepSpec;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_operators::driver::{BackendChoice, OperatorKind};
use aoj_operators::joiner_task::{JoinerCounters, JoinerFinal, LatencyStats};
use aoj_operators::messages::{IngestItem, Match, OpMsg};
use aoj_operators::report::{ControllerFinal, Finals, MatchDigest, Resume};
use aoj_operators::reshuffler::{ControlEvent, ProgressSample};
use aoj_operators::session::{
    BackendSection, DataPlaneSection, ElasticitySection, FaultSection, KeyFilter, LifecycleSection,
    SessionBuilder, SourceSection,
};
use aoj_operators::{ElasticConfig, SourcePacing};
use aoj_simnet::{
    CostModel, FlushCause, FlushCounts, Gauge, MachineMetrics, MsgClass, NetworkConfig,
    SimDuration, SimTime, TaskId,
};

/// Protocol version; bumped on any layout change. Checked in both
/// directions during the handshake.
pub const WIRE_VERSION: u8 = 14;

/// Upper bound on a single frame's payload (a corrupt length prefix must
/// not turn into a multi-gigabyte allocation).
pub const MAX_FRAME: usize = 256 << 20;

// Frame kinds, each with its payload type (a bare `u64` where one number
// says it all). One flat namespace across all connection classes; each
// endpoint only accepts the kinds meaningful for its connection.
/// Worker → coordinator: first frame on the control connection ([`Hello`]).
pub const K_HELLO: u8 = 1;
/// Coordinator → worker: the session [`Plan`] (handshake reply).
pub const K_PLAN: u8 = 2;
/// Worker → coordinator: topology rebuilt, data listener bound ([`Ready`]).
pub const K_READY: u8 = 3;
/// Coordinator → workers: machine directory update ([`MachineUp`]).
pub const K_MACHINE_UP: u8 = 4;
/// Coordinator → worker: quiescence probe (a nonce).
pub const K_PROBE: u8 = 5;
/// Worker → coordinator: probe answer with work counters ([`ProbeAck`]).
pub const K_PROBE_ACK: u8 = 6;
/// Worker → coordinator: an `Effect::Provision` for this machine index.
pub const K_PROVISION_REQ: u8 = 7;
/// Worker → coordinator: an `Effect::Retire` this worker applied
/// ([`RetireReq`]).
pub const K_RETIRE_REQ: u8 = 8;
/// Worker → coordinator: a retirement token consumed, channels to the
/// retiring generation closed ([`DrainDone`]).
pub const K_DRAIN_DONE: u8 = 10;
/// Coordinator → retiring worker: all peers closed; finish and exit once
/// this many end-of-stream markers are in.
pub const K_RETIRE_NOW: u8 = 11;
/// Worker → coordinator: periodic [`GaugeSample`] for the session overlay.
pub const K_GAUGES: u8 = 12;
/// Coordinator → controller worker: another machine's [`GaugeSample`]
/// (minus its sketch), relayed so the elastic trigger sees the whole
/// cluster.
pub const K_GAUGE_RELAY: u8 = 13;
/// Worker → coordinator: matches drained from the worker's local hub
/// (`Vec<Match>`).
pub const K_MATCH_BATCH: u8 = 14;
/// Worker → coordinator: final task counters, shipped once at exit
/// ([`FinalsBundle`]).
pub const K_FINALS: u8 = 15;
/// Coordinator → workers: the session is over; drain and exit. The
/// `bool` asks for the operator state in the [`K_FINALS`] bundle (the
/// drain ends in a checkpoint).
pub const K_SHUTDOWN: u8 = 16;
/// Worker → coordinator: last frame before process exit ([`Exiting`]).
pub const K_EXITING: u8 = 17;
/// First frame on every data-plane connection: who is dialing, and for
/// which message class ([`Preamble`]).
pub const K_PREAMBLE: u8 = 18;
/// Data-plane frame: one routed [`OpMsg`] between two tasks ([`TaskMsg`]).
pub const K_TASK_MSG: u8 = 19;
/// Data-plane / drain marker: no more frames will follow on this
/// connection; a retiree counts these to know nothing is still in
/// flight toward it (`()`).
pub const K_EOS: u8 = 20;
/// Coordinator → worker (control): toggle live match streaming
/// ([`MatchTap`]). A worker ships every match it emits until its first
/// tap, which the coordinator sends once a subscriber exists or matches
/// arrive; while off, workers count matches but never buffer or ship pair
/// identities.
pub const K_MATCH_TAP: u8 = 21;
/// Data-plane frame on a Control-class connection: a retirement token
/// `(machine, gen)` — the TCP form of the threaded runtime's
/// `Work::Flush`. The node that applies `Effect::Retire` stages one to
/// every live peer, FIFO behind everything it sent that peer before; the
/// peer consumes it in its machine loop, closes its connections to that
/// generation and reports [`DrainDone`].
pub const K_FLUSH: u8 = 22;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {}", msg.into()))
}

// ---------------------------------------------------------------------------
// Framing

/// Append one complete `[len][kind][payload]` frame to `buf`, encoding
/// `msg` in place: a five-byte header placeholder goes down first, the
/// payload is written directly after it, and the length is patched once
/// the payload's size is known. The staging buffer is the only storage
/// the message ever occupies — no intermediate payload `Vec`, no copy.
pub fn append_frame(buf: &mut Vec<u8>, kind: u8, msg: &impl Wire) {
    let hdr = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, kind]);
    msg.encode_into(buf);
    let len = buf.len() - hdr - 5;
    assert!(len <= MAX_FRAME, "frame kind {kind} too large: {len}");
    buf[hdr..hdr + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Write one frame (for the rare ones not staged through a reused buffer).
pub fn write_frame(w: &mut impl Write, kind: u8, msg: &impl Wire) -> io::Result<()> {
    let mut buf = Vec::new();
    append_frame(&mut buf, kind, msg);
    w.write_all(&buf)
}

/// Read one frame, returning `(kind, payload)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, &mut payload)?;
    Ok((kind, payload))
}

/// Read one frame into a caller-owned payload buffer, returning the
/// frame kind. The buffer is cleared and refilled in place, so a reader
/// loop that hands the payload off between frames can recycle one
/// allocation across the whole connection.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<u8> {
    let mut hdr = [0u8; 5];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    if len > MAX_FRAME {
        return Err(bad(format!("frame length {len} exceeds cap")));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(hdr[4])
}

// ---------------------------------------------------------------------------
// Buffer pool

/// Largest buffer the pool will retain. A migration burst can briefly
/// inflate a frame buffer to megabytes; holding that capacity for the
/// rest of the session would be a leak wearing a cache costume.
pub(crate) const POOL_MAX_CAPACITY: usize = 1 << 20;

/// How many free buffers the pool keeps before dropping extras.
const POOL_MAX_FREE: usize = 64;

/// A free-list of `Vec<u8>` frame buffers, shared between the encode
/// side (machine loop staging) and the socket writers: the machine loop
/// checks out a buffer, appends framed messages into it, hands it to a
/// writer thread, and the writer returns it after the syscall. In steady
/// state no frame encode touches the allocator.
#[derive(Default)]
pub struct BufPool {
    free: std::sync::Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// New empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Check out a cleared buffer (freshly allocated if the list is dry).
    pub fn get(&self) -> Vec<u8> {
        let mut buf = self.free.lock().unwrap().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer to the free list. Oversized or surplus buffers are
    /// dropped so the pool's footprint stays bounded.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAPACITY {
            return;
        }
        let mut free = self.free.lock().unwrap();
        if free.len() < POOL_MAX_FREE {
            free.push(buf);
        }
    }
}

/// FNV-1a over the encoded plan bytes; the handshake fingerprint.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Decode cursor

/// A bounds-checked little-endian read cursor over one frame payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Error if any bytes remain (layouts are exact, not extensible).
    pub fn finish(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("bad bool byte {b}"))),
        }
    }
    /// Read a `u32` element count, sanity-checked against the bytes that
    /// remain (each element needs at least `min_elem` bytes).
    pub fn len(&mut self, min_elem: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(bad(format!("length {n} exceeds payload")));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// The codec trait

/// A value with exactly one wire layout.
///
/// Implemented here for the primitives, `String`, `Vec<T>`, `Option<T>`,
/// tuples and arrays, and through `wire_struct!`, `wire_enum!` and
/// `wire_via!` for every message type. Call sites use
/// [`to_bytes`](Wire::to_bytes) / [`from_bytes`](Wire::from_bytes) for a
/// whole payload, [`append_frame`] for the zero-copy framed hot path.
pub trait Wire: Sized {
    /// The fewest bytes any value of this type encodes to. `Vec<T>`
    /// checks a decoded element count against `T::MIN_LEN` times the
    /// bytes that remain *before* allocating for it.
    const MIN_LEN: usize;

    /// Append this value's encoding to `out`. Never reads, clears or
    /// depends on what `out` already holds.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value, advancing the cursor past it.
    fn decode(d: &mut Dec) -> io::Result<Self>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a payload that must hold exactly one value.
    fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let d = &mut Dec::new(bytes);
        let v = Self::decode(d)?;
        d.finish()?;
        Ok(v)
    }
}

/// Fixed-width little-endian integers: the [`Dec`] reader of the same
/// name, and the [`Wire`] impl on top of it.
macro_rules! wire_le {
    ($($ty:ident),*) => {$(
        impl Dec<'_> {
            #[doc = concat!("Read a little-endian `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self) -> io::Result<$ty> {
                let bytes = self.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(d: &mut Dec) -> io::Result<Self> {
                d.$ty()
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, i32, i64);

impl Wire for bool {
    const MIN_LEN: usize = 1;
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(d: &mut Dec) -> io::Result<Self> {
        d.bool()
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        let n = u32::try_from(self.len()).expect("wire list longer than u32::MAX");
        n.encode_into(out);
        for item in self {
            item.encode_into(out);
        }
    }
    #[inline]
    fn decode(d: &mut Dec) -> io::Result<Self> {
        let n = d.len(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(d)?);
        }
        Ok(items)
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn decode(d: &mut Dec) -> io::Result<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            b => Err(bad(format!("bad Option presence byte {b}"))),
        }
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;
    fn encode_into(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode_into(out);
        }
    }
    fn decode(d: &mut Dec) -> io::Result<Self> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::decode(d)?;
        }
        Ok(items)
    }
}

/// Tuples are their members, in order (`()` is the empty payload).
macro_rules! wire_tuple {
    ($(($($t:ident . $i:tt),*))*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)*;
            #[inline]
            #[allow(unused_variables)]
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(self.$i.encode_into(out);)*
            }
            #[inline]
            #[allow(unused_variables, clippy::unused_unit)]
            fn decode(d: &mut Dec) -> io::Result<Self> {
                Ok(($($t::decode(d)?,)*))
            }
        }
    )*};
}
wire_tuple!(()(A.0, B.1)(A.0, B.1, C.2));

// ---------------------------------------------------------------------------
// Field tables

/// A struct travels as its listed fields, in order. Two row forms:
/// `Type { field: Ty, ... }` for a type defined elsewhere, and
/// `pub struct Type { pub field: Ty, ... }`, which also *is* the
/// definition, for a type that exists only to cross the wire. The
/// decoder's struct literal is exhaustive, so a field added to a type
/// without a place in its row does not compile.
macro_rules! wire_struct {
    ($($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $f:ident: $ty:ty),* $(,)?
    })+) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $f: $ty,)*
        }
        wire_struct! { $name { $($f: $ty),* } }
    )+};
    ($($name:ty { $($f:ident: $ty:ty),* $(,)? })+) => {$(
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as Wire>::MIN_LEN)*;
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(self.$f.encode_into(out);)*
            }
            #[inline]
            fn decode(d: &mut Dec) -> io::Result<Self> {
                Ok(Self { $($f: <$ty as Wire>::decode(d)?,)* })
            }
        }
    )+};
}

/// `wire_enum!(Type { tag => Variant { field: Ty, ... }, ... })`: one tag
/// byte, then the variant's listed fields (`Variant(name: Ty)` for a
/// one-field tuple variant); an unknown tag is an error and a variant
/// missing from the table does not compile. Optional tails:
/// `, else pattern => expr` is the encoder's arm for a variant that
/// cannot travel, and `, check |v| ...` rejects a decoded value with a
/// `String` reason.
macro_rules! wire_enum {
    ($name:ty { $($tag:literal => $var:ident
        $({ $($f:ident: $ty:ty),* $(,)? })? $(($nf:ident: $nty:ty))?),* $(,)? }
     $(, else $pat:pat => $else:expr)?
     $(, check $check:expr)?) => {
        impl Wire for $name {
            const MIN_LEN: usize = 1 + min_of(&[
                $(0 $($(+ <$ty as Wire>::MIN_LEN)*)? $(+ <$nty as Wire>::MIN_LEN)?),*
            ]);
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$var $({ $($f),* })? $(($nf))? => {
                        out.push($tag);
                        $($($f.encode_into(out);)*)?
                        $($nf.encode_into(out);)?
                    })*
                    $($pat => $else,)?
                }
            }
            #[inline]
            fn decode(d: &mut Dec) -> io::Result<Self> {
                let v = match d.u8()? {
                    $($tag => Self::$var
                        $({ $($f: <$ty as Wire>::decode(d)?),* })?
                        $((<$nty as Wire>::decode(d)?))?,)*
                    b => return Err(bad(format!("bad {} tag {b}", stringify!($name)))),
                };
                $(let check: fn(&Self) -> Result<(), String> = $check;
                check(&v).map_err(bad)?;)?
                Ok(v)
            }
        }
    };
}

const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// `wire_via!(Type as Parts, to_parts, from_parts)`: a type whose fields
/// are private (or that is a bare number underneath) travels as `Parts`
/// and is rebuilt — and validated — by `from_parts`.
macro_rules! wire_via {
    ($name:ty as $parts:ty, $to:expr, $from:expr) => {
        impl Wire for $name {
            const MIN_LEN: usize = <$parts as Wire>::MIN_LEN;
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                let to: fn(&Self) -> $parts = $to;
                to(self).encode_into(out);
            }
            #[inline]
            fn decode(d: &mut Dec) -> io::Result<Self> {
                let from: fn($parts) -> Result<Self, String> = $from;
                from(<$parts as Wire>::decode(d)?).map_err(bad)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Shared scalars and operator types

wire_via!(usize as u64, |v| *v as u64, |v| usize::try_from(v)
    .map_err(|_| "usize overflow".into()));
wire_via!(f64 as u64, |v| v.to_bits(), |v| Ok(f64::from_bits(v)));
wire_via!(SimTime as u64, |t| t.as_micros(), |us| Ok(SimTime(us)));
wire_via!(SimDuration as u64, |t| t.as_micros(), |us| Ok(
    SimDuration::from_micros(us)
));
wire_via!(TaskId as usize, |t| t.index(), |i| Ok(TaskId(i)));
// A `u32` byte count, then UTF-8.
wire_via!(String as Vec<u8>, |s| s.as_bytes().to_vec(), |bytes| {
    String::from_utf8(bytes).map_err(|_| "invalid utf-8".into())
});

wire_enum!(Rel { 0 => R, 1 => S });
wire_enum!(MsgClass { 0 => Control, 1 => Data, 2 => Migration });
wire_enum!(Step { 0 => HalveRows, 1 => HalveCols });
wire_struct! {
    Tuple { seq: u64, rel: Rel, key: i64, aux: i32, bytes: u32, ticket: u64 }
    IngestItem { rel: Rel, key: i64, aux: i32, bytes: u32, seq: u64 }
    Match { r_seq: u64, s_seq: u64, r_key: i64, s_key: i64 }
    GridPos { row: u32, col: u32 }
    MachineStepSpec {
        machine: usize,
        old_pos: GridPos,
        new_pos: GridPos,
        partner: usize,
        exchange_rel: Rel,
        refine_rel: Rel,
        keep_bit: u32,
        refine_parts_before: u32,
    }
    ExpandSpec {
        machine: usize,
        old_pos: GridPos,
        children: [usize; 3],
        n_before: u32,
        m_before: u32,
    }
}
wire_via!(Mapping as (u32, u32), |m| (m.n, m.m), |(n, m)| {
    if n.is_power_of_two() && m.is_power_of_two() {
        Ok(Mapping::new(n, m))
    } else {
        Err(format!("mapping ({n},{m}) not powers of two"))
    }
});
wire_enum!(ContractRole {
    0 => Survive,
    1 => Retire { survivor: usize, forward_rel: Option<Rel> },
});
wire_enum!(Reconfig { 0 => Step(step: Step), 1 => Expand, 2 => Contract });
wire_enum!(Role {
    0 => Step(spec: MachineStepSpec),
    1 => Expand(spec: ExpandSpec),
    2 => Contract(role: ContractRole),
});
// The raw tables: mapping, per-slot positions, row-major cell → machine.
wire_via!(
    GridAssignment as (Mapping, Vec<GridPos>, Vec<u32>),
    |a| (
        a.mapping(),
        a.pos_slice().to_vec(),
        a.machines().map(|m| m as u32).collect()
    ),
    |(mapping, pos, machine)| GridAssignment::from_parts(mapping, pos, machine)
);
// High-water mark, then the dormant pool.
wire_via!(
    ElasticLayout as (usize, Vec<usize>),
    |l| (l.high_water(), l.dormant().to_vec()),
    |(next_fresh, dormant)| Ok(ElasticLayout::from_parts(next_fresh, dormant))
);

wire_enum!(OpMsg {
    0 => IngestBatch { items: Vec<IngestItem> },
    1 => IngestBounced { items: Vec<IngestItem> },
    2 => DataBatch { tag: u32, store: bool, tuples: Vec<Tuple>, arrived: Vec<SimTime> },
    3 => Change { new_epoch: u32, kind: Reconfig },
    4 => MigrationComplete { epoch: u32 },
    5 => Signal { from_reshuffler: usize, new_epoch: u32, expected_signals: u32, role: Role },
    // Tags 6–9 and 13 were the per-kind change, signal and source rows
    // until `WIRE_VERSION` 8; the other rows keep their tags and bytes.
    10 => Activate { epoch: u32, assign: GridAssignment, layout: ElasticLayout },
    11 => ExpandDone { epoch: u32 },
    12 => SourceResize { reshufflers: Vec<TaskId> },
    14 => MigBatch { tuples: Vec<Tuple> },
    15 => MigDone,
    16 => Ack { joiner: usize, epoch: u32 },
    17 => RoutedCopies { n: u32, tuples: u32 },
    18 => ProcessedCopies { n: u32 },
}, check |msg| match msg {
    // Joiners index `arrived` by tuple position.
    OpMsg::DataBatch { tuples, arrived, .. } if tuples.len() != arrived.len() => {
        Err("DataBatch arrived/tuples length mismatch".into())
    }
    _ => Ok(()),
});

/// A [`K_TASK_MSG`] payload: sender task, receiver task, message.
pub type TaskMsg = (TaskId, TaskId, OpMsg);

/// Encode one [`OpMsg`] into `out` (variant tag byte + fields):
/// [`Wire::encode_into`] under the name the repo benchmark calls.
pub fn encode_opmsg(msg: &OpMsg, out: &mut Vec<u8>) {
    msg.encode_into(out);
}

/// Decode one [`OpMsg`]: [`Wire::decode`] under the name the repo
/// benchmark calls.
pub fn decode_opmsg(d: &mut Dec) -> io::Result<OpMsg> {
    OpMsg::decode(d)
}

// ---------------------------------------------------------------------------
// The plan (a `SessionBuilder` image)

wire_enum!(OperatorKind { 0 => Dynamic, 1 => StaticMid, 2 => StaticOpt, 3 => Shj });
wire_enum!(Predicate {
    0 => Equi,
    1 => Band { width: i64 },
    2 => NotEqual,
    3 => LessThan,
    4 => CrossProduct,
}, else Predicate::Theta(_) => panic!(
    "Predicate::Theta carries an arbitrary closure and cannot cross a process boundary; \
     use a named predicate on the TCP backend"
));
wire_enum!(BackendChoice { 0 => Sim, 1 => Threaded, 2 => Tcp });
wire_enum!(WindowMode { 0 => Count, 1 => Time });
wire_enum!(TickSource { 0 => Arrival, 1 => AuxEventTime });
// The fault section stays home — it travels as nothing and a worker
// decodes the default: a process that knew its own execution was scripted
// could not crash unexpectedly.
wire_via!(FaultSection as (), |_| (), |()| Ok(FaultSection::default()));
wire_struct! {
    SourcePacing { burst: u32, interval: SimDuration }
    SourceSection {
        pacing: SourcePacing,
        window_copies: Option<u64>,
        queue_tuples: usize,
    }
    CostModel {
        recv_overhead_us: u64,
        store_us: u64,
        probe_us: u64,
        per_candidate_us_hundredths: u64,
        per_match_us_hundredths: u64,
        spill_penalty: u64,
        control_us: u64,
    }
    NetworkConfig {
        latency_us: u64,
        bytes_per_us: u64,
        per_message_overhead_bytes: u64,
        per_message_us: u64,
    }
    DataPlaneSection {
        batch_tuples: usize,
        batch_max_delay_us: u64,
        ram_budget: u64,
        spill_penalty: u64,
        cost: CostModel,
        network: NetworkConfig,
    }
    DecisionConfig { epsilon_num: u32, epsilon_den: u32, min_total: u64 }
    ElasticConfig {
        capacity_bytes: u64,
        max_expansions: u32,
        contract_below_bytes: u64,
        max_contractions: u32,
        contract_holdoff_tuples: u64,
        drain_driven: bool,
    }
    ElasticitySection {
        decision: DecisionConfig,
        elastic: Option<ElasticConfig>,
        blocking_migrations: bool,
    }
    WindowSpec { mode: WindowMode, span: u64, sub_windows: u32, ticks: TickSource }
    LifecycleSection { window: Option<WindowSpec> }
    BackendSection {
        choice: BackendChoice,
        sample_every: u64,
        collect_matches: bool,
        match_buffer: usize,
        track_competitive: bool,
    }
    // The plan every worker rebuilds its topology from. Encoding panics on
    // `Predicate::Theta` — an arbitrary closure cannot cross a process
    // boundary; every named predicate the paper evaluates round-trips.
    SessionBuilder {
        j: u32,
        kind: OperatorKind,
        predicate: Predicate,
        seed: u64,
        workload: String,
        oracle_mapping: Option<Mapping>,
        source: SourceSection,
        data_plane: DataPlaneSection,
        elasticity: ElasticitySection,
        lifecycle: LifecycleSection,
        backend: BackendSection,
        fault: FaultSection,
    }
}

// ---------------------------------------------------------------------------
// Control-plane payloads

wire_enum!(KeyFilter { 0 => All, 1 => Range { lo: i64, hi: i64 } });

wire_struct! {
    /// Worker → coordinator: first frame on the control connection
    /// ([`K_HELLO`]).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Hello {
        /// The worker binary's [`WIRE_VERSION`].
        pub version: u8,
        /// Machine index this process hosts.
        pub machine: u64,
        /// Incarnation: 0 for the first process on this machine slot,
        /// incremented each time a retired slot is re-provisioned.
        pub gen: u32,
    }

    /// Coordinator → worker: the session plan ([`K_PLAN`]).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Plan {
        /// Coordinator's [`WIRE_VERSION`].
        pub version: u8,
        /// [`fingerprint`] of `builder` — echoed back in [`Ready`].
        pub fingerprint: u64,
        /// Total machine count excluding the coordinator's source machine.
        pub machines: u64,
        /// The coordinator-hosted source machine index.
        pub source_machine: u64,
        /// Shared clock anchor: the coordinator's session clock, sampled at
        /// handshake time, in microseconds. Workers offset their own
        /// monotonic clock by this so timestamps are comparable.
        pub clock_anchor_us: u64,
        /// The [`SessionBuilder`]'s wire image.
        pub builder: Vec<u8>,
        /// Checkpoint snapshot bytes (`Checkpoint::to_bytes`) every worker
        /// restores its state from before going [`Ready`]. Empty for a
        /// fresh session.
        pub restore: Vec<u8>,
    }

    /// Worker → coordinator: topology rebuilt, data listener bound
    /// ([`K_READY`]).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Ready {
        /// Machine index.
        pub machine: u64,
        /// Incarnation.
        pub gen: u32,
        /// Echo of the plan fingerprint the worker verified.
        pub fingerprint: u64,
        /// Loopback port of the worker's data-plane listener.
        pub data_port: u16,
    }

    /// Coordinator → workers: a machine's data listener is reachable
    /// ([`K_MACHINE_UP`]).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MachineUp {
        /// Machine index.
        pub machine: u64,
        /// Incarnation.
        pub gen: u32,
        /// Loopback port of that machine's data-plane listener.
        pub port: u16,
    }

    /// Worker → coordinator: answer to a quiescence probe (kind
    /// [`K_PROBE_ACK`]; the probe itself carries only the nonce).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ProbeAck {
        /// Echo of the probe nonce.
        pub nonce: u64,
        /// Work items this node has created (sends + timers).
        pub created: u64,
        /// Work items this node has finished processing.
        pub finished: u64,
    }

    /// Worker → coordinator: the node that applied an `Effect::Retire`
    /// closed its own connections to the retiring generation and staged
    /// a [`K_FLUSH`] token to each of `peers` ([`K_RETIRE_REQ`]).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RetireReq {
        /// The retiring machine.
        pub machine: u64,
        /// The generation it retires.
        pub gen: u32,
        /// The live peers that were sent a token; each answers with a
        /// [`DrainDone`].
        pub peers: Vec<u64>,
        /// How many per-class connections the applying node closed toward
        /// the retiree (each carried a trailing [`K_EOS`]).
        pub closed: u32,
    }

    /// Worker → coordinator: a [`K_FLUSH`] token consumed, data channels
    /// toward the retiring generation closed ([`K_DRAIN_DONE`]).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct DrainDone {
        /// The retiring machine.
        pub machine: u64,
        /// The generation it retires.
        pub gen: u32,
        /// How many per-class connections this node closed toward it (each
        /// carried a trailing [`K_EOS`] the retiree must count).
        pub closed: u32,
    }

    /// Worker → coordinator: a periodic (or final) gauge sample for this
    /// worker's machine ([`K_GAUGES`]).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct GaugeSample {
        /// The reporting machine.
        pub machine: u64,
        /// The machine's [`Gauge`] row, in table order.
        pub gauges: [u64; Gauge::COUNT],
        /// Data items processed by this worker so far (absolute,
        /// per-worker; the coordinator sums across workers).
        pub data_processed: u64,
        /// The worker's merged skew sketch as
        /// [`SkewSketch::to_parts`](aoj_core::sketch::SkewSketch::to_parts)
        /// words (empty until the worker's reshufflers first publish). The
        /// coordinator folds one board slot per worker from these.
        pub skew_parts: Vec<u64>,
    }

    /// Coordinator → workers ([`K_MATCH_TAP`]): whether to stream matches
    /// at all, plus the union of the session's subscriber [`KeyFilter`]s
    /// (empty with `on` = ship everything). Pairs failing every filter are
    /// dropped at the joiner's emit path, before they ever touch the wire.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MatchTap {
        /// Stream matches to the coordinator.
        pub on: bool,
        /// Ship only pairs passing at least one of these (empty = all).
        pub filters: Vec<KeyFilter>,
    }

    /// Worker → coordinator: last frame before exit ([`K_EXITING`]).
    /// Carries the worker's final work counters so the quiescence check
    /// can keep counting retired machines' contributions.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Exiting {
        /// Machine index.
        pub machine: u64,
        /// Incarnation.
        pub gen: u32,
        /// Final created-work count.
        pub created: u64,
        /// Final finished-work count.
        pub finished: u64,
        /// Connections closed by the exit-time flush, as `(destination
        /// machine, count)`. The coordinator folds these into its running
        /// per-destination end-of-stream tally, so a *later* retirement
        /// barrier toward one of those destinations expects the markers
        /// this exit already delivered.
        pub closed: Vec<(u64, u32)>,
    }

    /// First frame on every data-plane connection ([`K_PREAMBLE`]): who is
    /// dialing and which message class the connection carries. One TCP
    /// connection per (sender, receiver, class) keeps per-class FIFO order
    /// — the property the epoch protocol relies on — while letting
    /// migration and control traffic bypass a backed-up data stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Preamble {
        /// The dialing machine.
        pub from_machine: u64,
        /// The dialing machine's incarnation.
        pub gen: u32,
        /// The class every subsequent [`K_TASK_MSG`] frame belongs to.
        pub class: MsgClass,
    }
}

// ---------------------------------------------------------------------------
// Finals

wire_struct! {
    LatencyStats { sum_us: u64, count: u64, max_us: u64, buckets: [u64; 32] }
    MatchDigest { count: u64, sum: u64, xor: u64 }
    JoinerCounters {
        migration_tuples_in: u64,
        migration_bytes_in: u64,
        expand_stored_tuples: u64,
        expand_sent_tuples: u64,
        contract_stored_tuples: u64,
        contract_sent_tuples: u64,
        retirements: u64,
        evicted_tuples: u64,
        evicted_bytes: u64,
    }
    FlushCounts { batches: [u64; FlushCause::COUNT], tuples: [u64; FlushCause::COUNT] }
    MachineMetrics {
        messages_in: u64,
        messages_out: u64,
        bytes_in: u64,
        bytes_out: u64,
        busy: SimDuration,
        gauges: [u64; Gauge::COUNT],
        peak_stored_bytes: u64,
        spilled_bytes: u64,
        flushes: FlushCounts,
    }
    ProgressSample { seq: u64, at: SimTime, max_stored_bytes: u64, total_stored_bytes: u64 }
}
wire_enum!(ControlEvent {
    0 => Begin { kind: Reconfig, seq: u64, at: SimTime, from: Mapping, to: Mapping, epoch: u32 },
    1 => Complete { kind: Reconfig, at: SimTime, epoch: u32 },
});
// What a checkpointing shutdown adds to the finals: the joiners' stored
// state and where the controller resumes.
wire_struct! {
    JoinerCheckpoint {
        machine: usize,
        evicted_tuples: u64,
        evicted_bytes: u64,
        latest_seq: u64,
        latest_tick: u64,
        tuples: Vec<Tuple>,
    }
    DeciderSnapshot { r: u64, s: u64, dr: u64, ds: u64, decisions: u64, migrations: u64 }
    Resume {
        epoch: u32,
        layout: ElasticLayout,
        elastic: Option<(u32, u32)>,
        decider: DeciderSnapshot,
    }
}
wire_struct! {
    JoinerFinal {
        slot: usize,
        matches: u64,
        latency: LatencyStats,
        counters: JoinerCounters,
        match_log: Vec<(u64, u64)>,
        match_digest: MatchDigest,
        state: Option<JoinerCheckpoint>,
    }
    ControllerFinal {
        assign: GridAssignment,
        events: Vec<ControlEvent>,
        samples: Vec<ProgressSample>,
        resume: Option<Resume>,
    }
    Finals { joiners: Vec<JoinerFinal>, controller: Option<ControllerFinal> }
}
wire_struct! {
    /// Everything a worker ships home when it exits: per-task finals plus
    /// its private metrics shard ([`K_FINALS`]).
    #[derive(Clone, Debug, Default)]
    pub struct FinalsBundle {
        /// The reporting machine.
        pub machine: u64,
        /// Incarnation.
        pub gen: u32,
        /// What the worker's tasks produced: its joiner's final and, on
        /// worker 0, the controller's.
        pub finals: Finals,
        /// Shard: events processed.
        pub events: u64,
        /// Shard: clock at the last processed event.
        pub last_event_at: SimTime,
        /// Shard: data items processed by this worker.
        pub data_processed: u64,
        /// Shard: per-machine counter rows (indexable by machine id).
        pub machines: Vec<MachineMetrics>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_pool_recycles_and_bounds() {
        let pool = BufPool::new();
        let mut a = pool.get();
        a.extend_from_slice(b"hello");
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "pooled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity is recycled");
        // Oversized buffers are dropped, not retained.
        pool.put(Vec::with_capacity(POOL_MAX_CAPACITY + 1));
        assert_eq!(pool.get().capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot cross a process boundary")]
    fn theta_predicate_refuses_to_encode() {
        use std::sync::Arc;
        let mut b = SessionBuilder::new(2, OperatorKind::Dynamic);
        b.predicate = Predicate::Theta(Arc::new(|_, _| true));
        b.to_bytes();
    }
}
