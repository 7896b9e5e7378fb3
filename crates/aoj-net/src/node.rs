//! Per-process node machinery shared by workers and the coordinator.
//!
//! Every process in a TCP session — the coordinator included — runs one
//! **node**: a machine loop servicing an [`aoj_runtime::mailbox::Mailbox`] with
//! the exact weighted-class semantics of the threaded runtime, an
//! accept loop feeding inbound per-class connections into that mailbox,
//! and a set of lazily-dialed writer threads carrying outbound traffic.
//!
//! The pieces:
//!
//! * [`Clock`] — wall microseconds anchored to the coordinator's session
//!   clock, so timestamps from different processes are comparable;
//! * [`Counters`] — created/finished work counts, the node's contribution
//!   to the cluster-wide quiescence check (see `backend.rs`);
//! * [`Directory`] — the machine → (generation, data port) table, updated
//!   by `MachineUp` frames; writer threads block here until their
//!   destination is reachable, which is what makes trigger-time
//!   provisioning race-free (a send to a machine the controller just
//!   provisioned simply waits for that machine's `Ready`, and a send to
//!   a slot whose old generation is still retiring waits for the new
//!   one);
//! * [`Writers`] — one connection per (destination, class), each bound
//!   to the generation it dials: per-class FIFO falls out of TCP's
//!   byte-stream ordering, and a backed-up data stream cannot delay
//!   migration or control traffic (the §4.3.2 service-rate property
//!   end-to-end);
//! * [`spawn_reader`]/[`spawn_acceptor`] — inbound connections push into
//!   the bounded mailbox, so TCP backpressure propagates into the same
//!   tuple-unit accounting the threaded runtime uses; the acceptor blocks
//!   in `accept` and teardown wakes it with [`wake_acceptor`];
//! * [`run_machine_loop`] — the handler loop: the runtime's
//!   [`dispatch`] per work item, effects staged onto the sockets, one
//!   finish count per item, and one end-of-batch hook (a worker ships
//!   its buffered matches there).
//!
//! Retirement is the threaded runtime's flush-token barrier carried over
//! the data plane. The node that applies `Effect::Retire(m)` sends what
//! it staged, closes its connections to `m`'s current generation and
//! stages a [`K_FLUSH`] token to every other live peer on its Control
//! connection — FIFO behind the epoch change that stopped that peer
//! sending to `m`. A peer's machine loop consumes the token the way the
//! runtime's workers do: it sends what it staged, closes its own
//! connections to that generation (each ends in a [`K_EOS`] the retiree
//! counts), and reports `DrainDone` to the coordinator. Sends to `m`
//! after the token dial its next generation and wait for it. A token is
//! FIFO only with its own socket, and an epoch change's signals travel on
//! the Data one; so the controller, re-provisioning a slot it retired,
//! waits until the old generation is gone — every token consumed —
//! before it sends anything more, as the runtime's `Provision` does.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoj_operators::messages::OpMsg;
use aoj_runtime::mailbox::{dispatch, Mailbox, Work};
use aoj_simnet::{
    ExecBackend, MachineId, Metrics, MsgClass, NetworkConfig, Process, SimMessage, SimTime, TaskId,
};

use crate::wire::{
    self, append_frame, read_frame, write_frame, BufPool, DrainDone, Preamble, RetireReq, TaskMsg,
    Wire, K_EOS, K_FLUSH, K_PREAMBLE, K_TASK_MSG,
};

/// A boxed operator task, as registered into the topology recorder and
/// hosted by a node's machine loop.
pub type BoxedTask = Box<dyn Process<OpMsg> + Send>;

/// How long a writer waits for its destination to appear in the
/// directory (or a retiree waits for its end-of-stream barrier) before
/// declaring the cluster wedged. Generous: provisioning a worker is a
/// process spawn plus a topology rebuild.
pub const PEER_WAIT: Duration = Duration::from_secs(60);

/// Total wall-clock budget one [`dial_with_retry`] spends before giving
/// up with [`DialError::Timeout`]. A listener that is coming up accepts
/// within milliseconds; ten seconds of refusals means the peer is gone,
/// not slow.
pub const DIAL_BUDGET: Duration = Duration::from_secs(10);

/// A failed [`dial_with_retry`]: the typed form of "the peer never
/// accepted", carrying everything a postmortem needs.
#[derive(Debug)]
pub enum DialError {
    /// The retry budget ran out.
    Timeout {
        /// Loopback port dialed.
        port: u16,
        /// Connection attempts made.
        attempts: u32,
        /// Wall-clock time spent retrying.
        waited: Duration,
        /// The last connect error observed.
        last: std::io::Error,
    },
}

impl std::fmt::Display for DialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DialError::Timeout {
                port,
                attempts,
                waited,
                last,
            } => write!(
                f,
                "dial 127.0.0.1:{port} timed out after {attempts} attempts over {waited:?} \
                 (last error: {last})"
            ),
        }
    }
}

impl std::error::Error for DialError {}

/// Connect to a loopback `port` with bounded retry: exponential backoff
/// from 1 ms to 100 ms with deterministic jitter (a xorshift over
/// `seed`, so two workers dialing the same coordinator don't retry in
/// lockstep), giving up after [`DIAL_BUDGET`]. A freshly-spawned peer's
/// listener can lose the race with our first connect; one refused
/// connect must not kill the cluster.
pub fn dial_with_retry(port: u16, seed: u64) -> Result<TcpStream, DialError> {
    let started = Instant::now();
    let mut rng = seed | 1; // xorshift state must be non-zero
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => return Ok(s),
            Err(last) => {
                if started.elapsed() >= DIAL_BUDGET {
                    return Err(DialError::Timeout {
                        port,
                        attempts,
                        waited: started.elapsed(),
                        last,
                    });
                }
                let backoff_us = (1_000u64 << attempts.min(7)).min(100_000);
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let jitter_us = rng % (backoff_us / 2 + 1);
                std::thread::sleep(Duration::from_micros(backoff_us + jitter_us));
            }
        }
    }
}

/// Wall-clock microseconds anchored to the coordinator's session clock.
///
/// The coordinator anchors at `run()` entry with base 0; workers anchor
/// at handshake time with the base the plan carries. Cross-process skew
/// is one loopback round-trip — microseconds — against latencies the
/// cost model prices in the same unit.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    base_us: u64,
    started: Instant,
}

impl Clock {
    /// Anchor now at `base_us`.
    pub fn new(base_us: u64) -> Clock {
        Clock {
            base_us,
            started: Instant::now(),
        }
    }

    /// Microseconds on the shared session clock.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.base_us + self.started.elapsed().as_micros() as u64
    }
}

/// Created/finished work counters — this node's contribution to the
/// cluster-wide quiescence check. `created` counts sends and scheduled
/// timers (at the node that emitted them); `finished` counts serviced
/// work items. The session is quiescent exactly when, simultaneously at
/// every node, created equals finished cluster-wide — which the
/// coordinator detects with a double probe (see `backend.rs`).
#[derive(Debug, Default)]
pub struct Counters {
    /// Work items created (sends + timers).
    pub created: AtomicU64,
    /// Work items fully serviced.
    pub finished: AtomicU64,
}

impl Counters {
    /// Snapshot `(created, finished)`.
    pub fn snapshot(&self) -> (u64, u64) {
        // Finished first: reading it before created keeps the invariant
        // finished ≤ created even if a handler completes between loads.
        let finished = self.finished.load(Ordering::Acquire);
        let created = self.created.load(Ordering::Acquire);
        (created, finished)
    }
}

/// A peer's reachability state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Peer {
    /// Data listener up at this generation/port.
    Live { gen: u32, port: u16 },
    /// Generation `gen` is draining toward process exit: a new channel
    /// to it is a protocol error, one to a later generation waits.
    Retiring { gen: u32 },
}

/// The machine directory: who is reachable, where, at which incarnation.
#[derive(Default)]
pub struct Directory {
    state: Mutex<HashMap<usize, Peer>>,
    cv: Condvar,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Arc<Directory> {
        Arc::new(Directory::default())
    }

    /// Record a machine's data listener (from a `MachineUp` frame). A
    /// re-provisioned machine overwrites its `Retiring` tombstone.
    pub fn set_live(&self, machine: usize, gen: u32, port: u16) {
        let mut st = self.state.lock().unwrap();
        st.insert(machine, Peer::Live { gen, port });
        drop(st);
        self.cv.notify_all();
    }

    /// Mark generation `gen` of `machine` as draining (see
    /// [`Writers::retire`]). A later generation already live is left
    /// alone.
    fn set_retiring(&self, machine: usize, gen: u32) {
        let mut st = self.state.lock().unwrap();
        if !matches!(st.get(&machine), Some(Peer::Live { gen: g, .. }) if *g > gen) {
            st.insert(machine, Peer::Retiring { gen });
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The generation `machine` is live at, if it is live.
    pub(crate) fn live_gen(&self, machine: usize) -> Option<u32> {
        match self.state.lock().unwrap().get(&machine) {
            Some(Peer::Live { gen, .. }) => Some(*gen),
            _ => None,
        }
    }

    /// The generation `machine` is retiring, if it is retiring.
    pub(crate) fn retiring_gen(&self, machine: usize) -> Option<u32> {
        match self.state.lock().unwrap().get(&machine) {
            Some(Peer::Retiring { gen }) => Some(*gen),
            _ => None,
        }
    }

    /// Every machine currently live, ascending.
    pub(crate) fn live_machines(&self) -> Vec<usize> {
        let st = self.state.lock().unwrap();
        let mut live: Vec<usize> = st
            .iter()
            .filter(|(_, p)| matches!(p, Peer::Live { .. }))
            .map(|(&m, _)| m)
            .collect();
        live.sort_unstable();
        live
    }

    /// `machine`'s `(gen, port)` if it is live at `min_gen` or later.
    /// Panics on a send to a retiring generation at or past `min_gen`.
    fn resolve(st: &HashMap<usize, Peer>, machine: usize, min_gen: u32) -> Option<(u32, u16)> {
        match st.get(&machine) {
            Some(Peer::Live { gen, port }) if *gen >= min_gen => Some((*gen, *port)),
            Some(Peer::Retiring { gen }) if *gen >= min_gen => {
                panic!("protocol error: send to retiring machine {machine} (generation {gen})")
            }
            _ => None,
        }
    }

    /// `machine`'s `(gen, port)` if it is live at `min_gen` or later,
    /// without waiting.
    fn lookup(&self, machine: usize, min_gen: u32) -> Option<(u32, u16)> {
        Directory::resolve(&self.state.lock().unwrap(), machine, min_gen)
    }

    /// Block until `machine` is live at generation `min_gen` or later and
    /// return its `(gen, port)`. An older generation — live or retiring —
    /// is waited out: its successor is being provisioned.
    ///
    /// # Panics
    ///
    /// If generation `min_gen` or later is marked retiring (sending to a
    /// retiring generation is a protocol error, mirroring the threaded
    /// runtime's panics) or does not come up within [`PEER_WAIT`].
    pub fn wait_live(&self, machine: usize, min_gen: u32) -> (u32, u16) {
        let deadline = Instant::now() + PEER_WAIT;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(target) = Directory::resolve(&st, machine, min_gen) {
                return target;
            }
            let now = Instant::now();
            assert!(
                now < deadline,
                "machine {machine} generation {min_gen} did not come up within {PEER_WAIT:?}"
            );
            st = self.cv.wait_timeout(st, deadline - now).unwrap().0;
        }
    }
}

/// Counts `Eos` frames received on inbound connections — the retirement
/// barrier. A retiring worker is told how many connections its peers
/// closed ([`wire::K_RETIRE_NOW`] carries the sum) and waits here until
/// every one of them has delivered its end-of-stream marker, at which
/// point nothing can be in flight toward it.
#[derive(Default)]
pub struct EosGate {
    n: Mutex<u64>,
    cv: Condvar,
}

impl EosGate {
    /// A zeroed gate.
    pub fn new() -> Arc<EosGate> {
        Arc::new(EosGate::default())
    }

    /// Record one end-of-stream marker.
    pub fn arrived(&self) {
        let mut n = self.n.lock().unwrap();
        *n += 1;
        drop(n);
        self.cv.notify_all();
    }

    /// Block until at least `target` markers have arrived.
    ///
    /// # Panics
    ///
    /// If the barrier does not complete within [`PEER_WAIT`].
    pub fn wait_for(&self, target: u64) {
        let deadline = Instant::now() + PEER_WAIT;
        let mut n = self.n.lock().unwrap();
        while *n < target {
            let now = Instant::now();
            assert!(
                now < deadline,
                "eos barrier stuck at {}/{target} after {PEER_WAIT:?}",
                *n
            );
            n = self.cv.wait_timeout(n, deadline - now).unwrap().0;
        }
    }
}

/// The write half of a control connection: small frames written under a
/// lock, shared between a node's control loop and its machine loop
/// (which sends lifecycle requests from inside handlers). The lock also
/// guards the frame buffer every send encodes into, so periodic frames
/// (gauges, matches, probes) reuse one allocation.
pub struct ControlOut(Mutex<(TcpStream, Vec<u8>)>);

impl ControlOut {
    /// Wrap a connected control stream.
    pub fn new(stream: TcpStream) -> ControlOut {
        ControlOut(Mutex::new((stream, Vec::new())))
    }

    /// Write one frame; control frames are small and immediate, so no
    /// buffering. Best-effort: a write to a peer that died (SIGKILL,
    /// crash) fails with a broken pipe, and the failure detector — not
    /// this send path — is responsible for surfacing the death. A probe
    /// broadcast racing a worker's demise must not panic the reactor.
    pub fn send(&self, kind: u8, msg: &impl Wire) {
        let mut guard = self.0.lock().unwrap();
        let (stream, buf) = &mut *guard;
        buf.clear();
        append_frame(buf, kind, msg);
        let _ = stream.write_all(buf);
        if buf.capacity() > wire::POOL_MAX_CAPACITY {
            // A one-off giant (a plan carrying a checkpoint, a finals
            // bundle with a match log) must not pin its size.
            *buf = Vec::new();
        }
    }
}

/// One outbound connection's state, behind a mutex shared by the sender
/// (the machine loop, writing inline) and the dialer thread.
struct Conn {
    /// `Some` once the dialer has connected and written the preamble;
    /// from then on senders write directly, with no thread handoff.
    stream: Option<BufWriter<TcpStream>>,
    /// Pre-framed buffers staged before the connection came up; the
    /// dialer drains them, in order, ahead of any inline write.
    backlog: VecDeque<Vec<u8>>,
    /// Set when the channel was closed before the dial finished; the
    /// dialer appends the end-of-stream frame after the backlog.
    eos: bool,
    /// Set when an inline write failed (the peer died): subsequent
    /// frames are dropped silently — the failure detector owns the
    /// death, the data path must neither panic nor accumulate backlog.
    broken: bool,
}

struct WriterState {
    conn: Mutex<Conn>,
}

struct WriterHandle {
    state: Arc<WriterState>,
    /// The dialer; joined on close so the backlog + EOS handover is
    /// complete before the close is reported upstream.
    dialer: JoinHandle<()>,
    /// The lowest generation of the destination this connection may
    /// dial (its floor when it was opened).
    gen: u32,
}

/// The connections of a [`Writers`] set, by state.
#[derive(Default)]
struct Handles {
    /// One per (destination, class) for the generation sends go to now.
    open: HashMap<(usize, MsgClass), WriterHandle>,
    /// Connections to a retiring generation, parked by
    /// [`Writers::retire`] until [`Writers::close_to`].
    parked: Vec<(usize, WriterHandle)>,
    /// Per destination: the lowest generation a new connection may dial
    /// (0 when absent), raised past each retired generation.
    floor: HashMap<usize, u32>,
}

/// Outbound connections: one per (destination machine, message class),
/// dialed lazily by a short-lived dialer thread. Once a connection is
/// up, senders write to it inline — the per-message writer-thread
/// wakeup is gone from the steady-state path, which matters enormously
/// on a host where every wakeup is a contended scheduler handoff. All
/// connections on a node share one [`BufPool`], closing the encode →
/// socket → return recycling loop.
pub struct Writers {
    inner: Mutex<Handles>,
    directory: Arc<Directory>,
    pool: Arc<BufPool>,
    self_machine: usize,
    self_gen: u32,
}

impl Writers {
    /// A writer set for the node hosting `self_machine` at incarnation
    /// `self_gen`.
    pub fn new(directory: Arc<Directory>, self_machine: usize, self_gen: u32) -> Arc<Writers> {
        Arc::new(Writers {
            inner: Mutex::new(Handles::default()),
            directory,
            pool: Arc::new(BufPool::new()),
            self_machine,
            self_gen,
        })
    }

    /// The node's shared frame-buffer pool.
    pub fn pool(&self) -> Arc<BufPool> {
        Arc::clone(&self.pool)
    }

    /// Send a buffer of pre-framed [`K_TASK_MSG`] bytes toward `dest` on
    /// the `class` connection, dialing it first if needed. An
    /// established connection is written inline — one `write` plus one
    /// flush per call, no thread handoff; one call may carry a whole
    /// mailbox batch's frames. While the dial is still in flight the
    /// buffer parks in the connection's backlog, so a send to a machine
    /// that is still provisioning never blocks the sender. A new
    /// connection dials the lowest generation of `dest` not yet retired.
    pub fn enqueue(&self, dest: usize, class: MsgClass, frames: Vec<u8>) {
        let mut map = self.inner.lock().unwrap();
        let Handles { open, floor, .. } = &mut *map;
        let handle = open.entry((dest, class)).or_insert_with(|| {
            let gen = floor.get(&dest).copied().unwrap_or(0);
            // Bind to the generation live right now, if any: a retire
            // that parks this connection before its dialer runs must
            // not leave the dialer facing a retiring directory entry.
            let target = self.directory.lookup(dest, gen);
            let state = Arc::new(WriterState {
                conn: Mutex::new(Conn {
                    stream: None,
                    backlog: VecDeque::new(),
                    eos: false,
                    broken: false,
                }),
            });
            let st = Arc::clone(&state);
            let directory = Arc::clone(&self.directory);
            let pool = Arc::clone(&self.pool);
            let preamble = Preamble {
                from_machine: self.self_machine as u64,
                gen: self.self_gen,
                class,
            };
            let dialer = std::thread::Builder::new()
                .name(format!("aoj-net-w{}m{dest}{class:?}", self.self_machine))
                .spawn(move || {
                    let (_gen, port) = target.unwrap_or_else(|| directory.wait_live(dest, gen));
                    dialer_main(st, pool, dest, port, preamble)
                })
                .expect("spawn dialer thread");
            WriterHandle { state, dialer, gen }
        });
        let state = Arc::clone(&handle.state);
        drop(map);
        let mut conn = state.conn.lock().unwrap();
        if conn.broken {
            drop(conn);
            self.pool.put(frames);
            return;
        }
        match conn.stream.as_mut() {
            Some(w) => {
                // A failed write means the peer is gone (SIGKILL mid-run
                // lands here as a broken pipe). Mark the connection and
                // carry on: crash surfacing is the failure detector's
                // job, and a panic here would take the whole node down
                // before the detector gets to report a typed death.
                if w.write_all(&frames).and_then(|()| w.flush()).is_err() {
                    conn.stream = None;
                    conn.broken = true;
                }
                drop(conn);
                self.pool.put(frames);
            }
            None => conn.backlog.push_back(frames),
        }
    }

    fn close(handle: WriterHandle) {
        let mut conn = handle.state.conn.lock().unwrap();
        if let Some(w) = conn.stream.as_mut() {
            // Best-effort toward a possibly-dead peer: the EOS marker
            // only matters to a live retirement barrier, and a live peer
            // reliably receives it.
            let _ = write_frame(w, K_EOS, &()).and_then(|()| w.flush());
        } else if !conn.broken {
            conn.eos = true;
        }
        drop(conn);
        // The dialer exits once the connection is up (or, when `eos` was
        // set first, once it has delivered the backlog and the marker).
        handle.dialer.join().expect("dialer thread panicked");
    }

    /// Retire generation `gen` of `dest`: park every connection that may
    /// carry traffic to it for [`close_to`](Writers::close_to), mark it
    /// retiring in the directory, and route later sends to `dest` onto
    /// fresh connections that wait for generation `gen + 1`.
    pub fn retire(&self, dest: usize, gen: u32) {
        let mut map = self.inner.lock().unwrap();
        let keys: Vec<_> = map
            .open
            .iter()
            .filter(|((d, _), h)| *d == dest && h.gen <= gen)
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            let handle = map.open.remove(&k).unwrap();
            map.parked.push((dest, handle));
        }
        let floor = map.floor.entry(dest).or_insert(0);
        *floor = (*floor).max(gen + 1);
        self.directory.set_retiring(dest, gen);
    }

    /// Close the connections [`retire`](Writers::retire) parked toward
    /// `dest` (flush + trailing [`K_EOS`] + join), returning how many
    /// were closed — the count the retirement barrier at `dest` will
    /// wait on. Connections to a later generation stay open.
    pub fn close_to(&self, dest: usize) -> u32 {
        let mut map = self.inner.lock().unwrap();
        let (to_dest, rest) = std::mem::take(&mut map.parked)
            .into_iter()
            .partition::<Vec<_>, _>(|(d, _)| *d == dest);
        map.parked = rest;
        let closed = to_dest.len() as u32;
        for (_, handle) in to_dest {
            Writers::close(handle);
        }
        closed
    }

    /// Close every connection (flush + trailing [`K_EOS`] + join); the
    /// node's shutdown path. Returns how many connections were closed
    /// toward each destination — a retiring worker reports these in its
    /// `Exiting` frame so the coordinator's end-of-stream bookkeeping
    /// stays exact for *later* retirement barriers.
    pub fn close_all(&self) -> Vec<(usize, u32)> {
        let mut map = self.inner.lock().unwrap();
        let Handles { open, parked, .. } = &mut *map;
        let all: Vec<_> = open
            .drain()
            .map(|((dest, _), h)| (dest, h))
            .chain(parked.drain(..))
            .collect();
        let mut per_dest: HashMap<usize, u32> = HashMap::new();
        for (dest, handle) in all {
            Writers::close(handle);
            *per_dest.entry(dest).or_insert(0) += 1;
        }
        let mut out: Vec<(usize, u32)> = per_dest.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// Establish one outbound connection, then get out of the way: dial
/// the destination's resolved `port`, send the preamble, drain whatever
/// the senders staged in the meantime, and publish the stream for
/// inline writing. The thread's whole life is the dial — it plays no
/// part in steady-state traffic.
fn dialer_main(
    state: Arc<WriterState>,
    pool: Arc<BufPool>,
    dest: usize,
    port: u16,
    preamble: Preamble,
) {
    let seed = (preamble.from_machine << 32) ^ (dest as u64) ^ (port as u64);
    let stream = dial_with_retry(port, seed).unwrap_or_else(|e| panic!("dial machine {dest}: {e}"));
    stream.set_nodelay(true).ok();
    let mut w = BufWriter::new(stream);
    write_frame(&mut w, K_PREAMBLE, &preamble).expect("write preamble");
    // Backlog drain and stream publication happen in one critical
    // section, so a sender blocked on the lock either lands in the
    // backlog (and is drained here, in order) or writes inline strictly
    // after everything drained.
    let mut conn = state.conn.lock().unwrap();
    while let Some(frames) = conn.backlog.pop_front() {
        w.write_all(&frames).expect("write task frames");
        pool.put(frames);
    }
    if conn.eos {
        // Closed before the dial finished: deliver the marker and leave
        // the stream unpublished.
        write_frame(&mut w, K_EOS, &()).expect("write eos");
        w.flush().expect("flush eos");
        return;
    }
    w.flush().expect("flush data connection");
    conn.stream = Some(w);
}

/// Per-batch outbound staging: while the machine loop works through one
/// mailbox batch, frames bound for the same (destination, class) are
/// encoded back to back into one pooled buffer, then handed to the
/// socket writer as a single queue item at batch end. One map lock, one
/// queue lock, one condvar wakeup, and one socket write cover the whole
/// batch — and in steady state the buffers cycle through the
/// [`BufPool`] without touching the allocator.
pub struct OutStage {
    pool: Arc<BufPool>,
    slots: HashMap<(usize, MsgClass), Vec<u8>>,
}

impl OutStage {
    /// A staging area drawing buffers from `pool` (normally the writer
    /// set's own pool, so returned buffers come back here).
    pub fn new(pool: Arc<BufPool>) -> OutStage {
        OutStage {
            pool,
            slots: HashMap::new(),
        }
    }

    fn slot(&mut self, dest: usize, class: MsgClass) -> &mut Vec<u8> {
        let pool = &self.pool;
        let buf = self.slots.entry((dest, class)).or_default();
        if buf.capacity() == 0 {
            *buf = pool.get();
        }
        buf
    }

    /// Append one task message, framed, to the staging buffer for
    /// `(dest, class)`.
    pub fn push(&mut self, dest: usize, class: MsgClass, msg: &TaskMsg) {
        append_frame(self.slot(dest, class), K_TASK_MSG, msg);
    }

    /// Append a retirement token for generation `gen` of `machine` to
    /// `dest`'s Control-class buffer, behind every Control message
    /// already staged there.
    pub fn push_flush(&mut self, dest: usize, machine: usize, gen: u32) {
        append_frame(
            self.slot(dest, MsgClass::Control),
            K_FLUSH,
            &(machine as u64, gen),
        );
    }

    /// Hand every dirty staging buffer to its writer. Buffers leave by
    /// value and come back through the pool once written.
    pub fn flush(&mut self, writers: &Writers) {
        for (&(dest, class), buf) in self.slots.iter_mut() {
            if buf.is_empty() {
                continue;
            }
            writers.enqueue(dest, class, std::mem::take(buf));
        }
    }
}

/// Service one accepted data-plane connection: read the [`Preamble`],
/// then push every [`K_TASK_MSG`] into the mailbox under the sender's
/// declared class (bounded for data, so TCP backpressure feeds the same
/// tuple-unit accounting the threaded runtime uses). A [`K_EOS`] marks
/// the channel closed and trips the retirement barrier; a [`K_FLUSH`]
/// token joins the Control queue as a `Work::Flush`, in order.
pub fn spawn_reader(
    stream: TcpStream,
    mailbox: Arc<Mailbox<OpMsg>>,
    done: Arc<AtomicBool>,
    eos: Arc<EosGate>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("aoj-net-reader".into())
        .spawn(move || {
            stream.set_nodelay(true).ok();
            let mut r = BufReader::new(stream);
            let preamble = match read_frame(&mut r) {
                Ok((K_PREAMBLE, p)) => Preamble::from_bytes(&p).expect("decode preamble"),
                Ok((k, _)) => panic!("protocol error: first frame kind {k}, want preamble"),
                Err(_) => return, // dialed and dropped before the preamble
            };
            // One payload buffer serves the whole connection; frames are
            // decoded out of it in place.
            let mut payload = Vec::new();
            loop {
                match wire::read_frame_into(&mut r, &mut payload) {
                    Ok(K_TASK_MSG) => {
                        let (from, to, msg) =
                            TaskMsg::from_bytes(&payload).expect("decode task msg");
                        debug_assert_eq!(msg.class(), preamble.class);
                        let units = msg.tuples();
                        mailbox.push_msg(
                            msg.class(),
                            Work::Msg { from, to, msg },
                            units,
                            true,
                            &done,
                        );
                    }
                    Ok(K_FLUSH) => {
                        debug_assert_eq!(preamble.class, MsgClass::Control);
                        let (machine, gen) =
                            <(u64, u32)>::from_bytes(&payload).expect("decode flush token");
                        mailbox.push_msg(
                            MsgClass::Control,
                            Work::Flush {
                                machine: machine as usize,
                                gen,
                            },
                            1,
                            true,
                            &done,
                        );
                    }
                    Ok(K_EOS) => {
                        eos.arrived();
                        return;
                    }
                    Ok(k) => panic!("protocol error: frame kind {k} on data connection"),
                    Err(e) => {
                        // A reset is normal once the session is done (the
                        // peer exits without per-connection goodbyes).
                        if !done.load(Ordering::Relaxed) {
                            eprintln!("aoj-net: data connection dropped: {e}");
                        }
                        return;
                    }
                }
            }
        })
        .expect("spawn reader thread")
}

/// Accept data-plane connections until `done`, handing each to
/// [`spawn_reader`]. The thread blocks in `accept`; teardown sets `done`
/// and then wakes it with [`wake_acceptor`]. A worker's acceptor is
/// never woken: it ends with its process.
pub fn spawn_acceptor(
    listener: TcpListener,
    mailbox: Arc<Mailbox<OpMsg>>,
    done: Arc<AtomicBool>,
    eos: Arc<EosGate>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("aoj-net-accept".into())
        .spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if done.load(Ordering::SeqCst) {
                        return; // the teardown's wake-up call
                    }
                    spawn_reader(
                        stream,
                        Arc::clone(&mailbox),
                        Arc::clone(&done),
                        Arc::clone(&eos),
                    );
                }
                Err(e) => {
                    if !done.load(Ordering::Relaxed) {
                        eprintln!("aoj-net: accept failed: {e}");
                    }
                    return;
                }
            }
        })
        .expect("spawn acceptor thread")
}

/// Wake an acceptor blocked on the loopback listener at `port` whose
/// `done` flag is already set: one connect, which it accepts, drops and
/// returns on — closing the listener with it.
pub fn wake_acceptor(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

/// A lifecycle request surfaced by a handler on this node, to be acted
/// on by the coordinator (locally, or via a control frame from a
/// worker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// `Effect::Provision` — spawn the machine's worker process.
    Provision(usize),
    /// `Effect::Retire`, applied here: this node's connections to the
    /// retiring generation are closed and each listed peer holds a
    /// token. The coordinator lets the retiree exit once every peer
    /// reported [`Lifecycle::Drained`].
    Retire(RetireReq),
    /// A retirement token consumed: this node's connections to the
    /// retiring generation are closed.
    Drained(DrainDone),
    /// A task requested the run to stop.
    Stopped,
}

/// Everything the machine loop shares with the rest of its node.
pub struct NodeShared {
    /// The machine this node hosts.
    pub machine: usize,
    /// The node's inbound queue set.
    pub mailbox: Arc<Mailbox<OpMsg>>,
    /// Global shutdown flag.
    pub done: Arc<AtomicBool>,
    /// The anchored session clock.
    pub clock: Clock,
    /// Quiescence counters.
    pub counters: Arc<Counters>,
    /// Outbound connections.
    pub writers: Arc<Writers>,
    /// The machine directory the writers dial through.
    pub directory: Arc<Directory>,
    /// Task index → hosting machine (identical in every process: it is
    /// derived from the same plan).
    pub task_machine: Arc<Vec<usize>>,
}

/// Run this node's machine loop to completion: service the mailbox
/// batch-wise through the runtime's [`dispatch`], applying effects as
/// they surface and consuming retirement tokens in queue order. After
/// each batch's staged frames leave, `batch_end` runs (a worker ships
/// its buffered matches there). Returns the metrics shard and the tasks
/// (so finals can be harvested) once the node shuts down or its
/// retirement drain completes.
pub fn run_machine_loop(
    shared: &NodeShared,
    mut tasks: HashMap<usize, BoxedTask>,
    mut shard: Metrics,
    drain_batch: usize,
    lifecycle: &(dyn Fn(Lifecycle) + Sync),
    batch_end: Option<&dyn Fn()>,
) -> (Metrics, HashMap<usize, BoxedTask>) {
    let mid = MachineId(shared.machine);
    let mut batch: Vec<Work<OpMsg>> = Vec::with_capacity(drain_batch);
    let mut stage = OutStage::new(shared.writers.pool());
    loop {
        if !shared.mailbox.pop_batch(
            drain_batch,
            &mut batch,
            || shared.clock.now_us(),
            &shared.done,
        ) {
            stage.flush(&shared.writers);
            if !shared.done.load(Ordering::Relaxed) {
                // Retirement drain complete: the backlog (and every
                // straggler behind the flush barrier) has been serviced.
                shared.mailbox.release_storage();
            }
            return (shard, tasks);
        }
        for work in batch.drain(..) {
            if let Work::Flush { machine, gen } = work {
                // The epoch change that stopped this node sending to the
                // retiree was consumed ahead of the token: ship what is
                // staged, then close the retiring generation's
                // connections behind it, as the runtime's workers do.
                stage.flush(&shared.writers);
                shared.writers.retire(machine, gen);
                let closed = shared.writers.close_to(machine);
                lifecycle(Lifecycle::Drained(DrainDone {
                    machine: machine as u64,
                    gen,
                    closed,
                }));
                shared.counters.finished.fetch_add(1, Ordering::AcqRel);
                continue;
            }
            let now = SimTime(shared.clock.now_us());
            let (self_task, effects, stopped) = dispatch(work, &mut tasks, &mut shard, mid, now);
            for effect in effects {
                apply_effect(shared, self_task, effect, &mut shard, &mut stage, lifecycle);
            }
            shared.counters.finished.fetch_add(1, Ordering::AcqRel);
            if stopped {
                lifecycle(Lifecycle::Stopped);
            }
        }
        // One handoff to the socket writers per mailbox batch, not per
        // message: everything the batch staged goes out now, before the
        // loop can block in pop_batch.
        stage.flush(&shared.writers);
        if let Some(hook) = batch_end {
            hook();
        }
    }
}

fn apply_effect(
    shared: &NodeShared,
    self_task: TaskId,
    effect: aoj_simnet::Effect<OpMsg>,
    shard: &mut Metrics,
    stage: &mut OutStage,
    lifecycle: &(dyn Fn(Lifecycle) + Sync),
) {
    match effect {
        aoj_simnet::Effect::Send { to, msg } => {
            shared.counters.created.fetch_add(1, Ordering::AcqRel);
            let dest = shared.task_machine[to.index()];
            if dest == shared.machine {
                // Loopback: straight into our own mailbox, unbounded
                // (blocking on our own full queue would self-deadlock)
                // and without traffic accounting — same as the runtime.
                let units = msg.tuples();
                shared.mailbox.push_msg(
                    msg.class(),
                    Work::Msg {
                        from: self_task,
                        to,
                        msg,
                    },
                    units,
                    false,
                    &shared.done,
                );
            } else {
                shard.on_send(MachineId(shared.machine), msg.bytes());
                stage.push(dest, msg.class(), &(self_task, to, msg));
            }
        }
        aoj_simnet::Effect::Timer { delay, key } => {
            shared.counters.created.fetch_add(1, Ordering::AcqRel);
            shared
                .mailbox
                .push_timer(shared.clock.now_us() + delay.as_micros(), self_task, key);
        }
        aoj_simnet::Effect::Provision { machine } => {
            let m = machine.index();
            lifecycle(Lifecycle::Provision(m));
            // Re-provisioning a slot whose retirement this node started
            // waits, like the threaded runtime's `Provision`, until the
            // retiring generation is gone: the coordinator brings up the
            // next one only after every peer consumed its token and the
            // old process exited. Nothing this handler sends afterwards —
            // the new generation's activation, the epoch change whose
            // signals reach peers on their Data connections — can then
            // overtake a token and reach the old generation.
            if let Some(gen) = shared.directory.retiring_gen(m) {
                stage.flush(&shared.writers);
                shared.directory.wait_live(m, gen + 1);
            }
        }
        aoj_simnet::Effect::Retire { machine } => {
            // The runtime's flush-token post, across processes: what this
            // node sent the retiree leaves on the retiring generation's
            // connections, which close behind it; every live peer this
            // node has not itself retired gets a token behind what it was
            // sent. (A peer retired here already — a contraction retires
            // several machines in one handler — is skipped: its token
            // would wait for a generation that is not coming.)
            let m = machine.index();
            stage.flush(&shared.writers);
            let gen = shared
                .directory
                .live_gen(m)
                .unwrap_or_else(|| panic!("retire of machine {m}, which is not live"));
            shared.writers.retire(m, gen);
            let closed = shared.writers.close_to(m);
            let peers: Vec<u64> = shared
                .directory
                .live_machines()
                .into_iter()
                .filter(|&p| p != shared.machine)
                .map(|p| p as u64)
                .collect();
            for &p in &peers {
                shared.counters.created.fetch_add(1, Ordering::AcqRel);
                stage.push_flush(p as usize, m, gen);
            }
            lifecycle(Lifecycle::Retire(RetireReq {
                machine: m as u64,
                gen,
                peers,
                closed,
            }));
        }
    }
}

/// An [`ExecBackend`] that only records the topology: machines, tasks,
/// bootstrap timers. Both sides of the wire build the session topology
/// through `aoj_operators::assemble_topology` into one of these and take
/// out their own machine's tasks to run — the coordinator the source
/// machine's, each worker its joiner machine's — so task ids and machine
/// assignments agree across processes by construction.
#[derive(Default)]
pub struct TopoRecorder {
    /// Per machine slot: was it registered deferred?
    pub deferred: Vec<bool>,
    /// Per machine slot: the explicit network config, if any (the
    /// operator driver uses one only for the source machine, which is
    /// how the coordinator knows which machine it hosts itself).
    pub networked: Vec<Option<NetworkConfig>>,
    /// Task id → (hosting machine, the task object). The box is taken
    /// (`None`) while a live node runs it.
    pub tasks: Vec<(usize, Option<BoxedTask>)>,
    /// Bootstrap timers `(at_us, task, key)`.
    pub timers: Vec<(u64, TaskId, u64)>,
    /// The metrics sink (machines registered; counters filled post-run).
    pub metrics: Metrics,
}

impl TopoRecorder {
    /// Task index → hosting machine, for every registered task.
    pub fn task_machine(&self) -> Vec<usize> {
        self.tasks.iter().map(|(m, _)| *m).collect()
    }

    /// The machine registered with an explicit network config (the
    /// operator driver's source machine), if any.
    pub fn networked_machine(&self) -> Option<usize> {
        self.networked.iter().position(|n| n.is_some())
    }

    /// Take the task boxes hosted on `machine`, keyed by task index.
    pub fn take_machine_tasks(&mut self, machine: usize) -> HashMap<usize, BoxedTask> {
        let mut out = HashMap::new();
        for (idx, (m, slot)) in self.tasks.iter_mut().enumerate() {
            if *m == machine {
                out.insert(idx, slot.take().expect("task already taken"));
            }
        }
        out
    }

    /// Put harvested task boxes back into their recorder slots.
    pub fn restore_tasks(&mut self, tasks: HashMap<usize, BoxedTask>) {
        for (idx, task) in tasks {
            self.tasks[idx].1 = Some(task);
        }
    }
}

impl ExecBackend<OpMsg> for TopoRecorder {
    fn backend_name(&self) -> &'static str {
        "tcp"
    }

    fn add_machine(&mut self) -> MachineId {
        self.deferred.push(false);
        self.networked.push(None);
        self.metrics.add_machine();
        MachineId(self.deferred.len() - 1)
    }

    fn add_machine_with_network(&mut self, network: NetworkConfig) -> MachineId {
        let id = self.add_machine();
        self.networked[id.index()] = Some(network);
        id
    }

    fn add_deferred_machine(&mut self) -> MachineId {
        let id = self.add_machine();
        self.deferred[id.index()] = true;
        id
    }

    fn provisioned_machines(&self) -> usize {
        self.deferred.iter().filter(|d| !**d).count()
    }

    fn peak_provisioned_machines(&self) -> usize {
        self.provisioned_machines()
    }

    fn add_task(&mut self, machine: MachineId, task: BoxedTask) -> TaskId {
        self.tasks.push((machine.index(), Some(task)));
        TaskId(self.tasks.len() - 1)
    }

    fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        self.timers.push((at.as_micros(), task, key));
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn run(&mut self) -> SimTime {
        unreachable!("the topology recorder never executes")
    }

    fn task_any(&self, id: TaskId) -> &dyn std::any::Any {
        self.tasks[id.index()]
            .1
            .as_ref()
            .expect("task is live on a node")
            .as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accept one connection within five seconds (a dialer that never
    /// comes fails the test instead of hanging it).
    fn accept(listener: &TcpListener) -> BufReader<TcpStream> {
        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    return BufReader::new(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no connection arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    /// One framed payload, as the machine loop's stage would hand it over.
    fn frames(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        append_frame(&mut buf, K_TASK_MSG, &n);
        buf
    }

    /// The next frame on `conn`: the payload of a task frame, `None` for
    /// the end-of-stream marker.
    fn next(conn: &mut BufReader<TcpStream>) -> Option<u64> {
        match read_frame(conn).expect("read frame") {
            (K_TASK_MSG, p) => Some(u64::from_bytes(&p).unwrap()),
            (K_EOS, _) => None,
            (k, _) => panic!("unexpected frame kind {k}"),
        }
    }

    /// A connection's preamble: the class it carries.
    fn class_of(conn: &mut BufReader<TcpStream>) -> MsgClass {
        match read_frame(conn).expect("read preamble") {
            (K_PREAMBLE, p) => Preamble::from_bytes(&p).unwrap().class,
            (k, _) => panic!("first frame kind {k}, want preamble"),
        }
    }

    /// Two loopback listeners stand in for generations 0 and 1 of machine
    /// 3. Retiring generation 0 parks its connections: later sends dial
    /// generation 1 once it comes up, `close_to` ends only the parked
    /// connections, and the new one stays open until the node shuts down.
    #[test]
    fn retire_parks_the_old_generation_and_sends_dial_the_next() {
        let gen0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let gen1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let directory = Directory::new();
        directory.set_live(3, 0, gen0.local_addr().unwrap().port());
        let writers = Writers::new(Arc::clone(&directory), 9, 0);

        writers.enqueue(3, MsgClass::Data, frames(1));
        let mut data0 = accept(&gen0);
        assert_eq!(class_of(&mut data0), MsgClass::Data);
        assert_eq!(next(&mut data0), Some(1));
        writers.enqueue(3, MsgClass::Control, frames(2));
        let mut control0 = accept(&gen0);
        assert_eq!(class_of(&mut control0), MsgClass::Control);
        assert_eq!(next(&mut control0), Some(2));

        writers.retire(3, 0);
        // Generation 1 is not up yet: the send parks in the backlog of a
        // connection that waits for it.
        writers.enqueue(3, MsgClass::Data, frames(3));
        directory.set_live(3, 1, gen1.local_addr().unwrap().port());
        let mut data1 = accept(&gen1);
        assert_eq!(class_of(&mut data1), MsgClass::Data);
        assert_eq!(next(&mut data1), Some(3));

        assert_eq!(writers.close_to(3), 2, "only generation 0 is closed");
        assert_eq!(next(&mut data0), None);
        assert_eq!(next(&mut control0), None);
        writers.enqueue(3, MsgClass::Data, frames(4));
        assert_eq!(next(&mut data1), Some(4));

        assert_eq!(writers.close_all(), vec![(3, 1)]);
        assert_eq!(next(&mut data1), None);
    }

    /// Sending to the generation being retired is still a protocol error.
    #[test]
    #[should_panic(expected = "send to retiring machine 3 (generation 0)")]
    fn a_send_to_the_retiring_generation_panics() {
        let gen0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let directory = Directory::new();
        directory.set_live(3, 0, gen0.local_addr().unwrap().port());
        Writers::new(Arc::clone(&directory), 9, 0).retire(3, 0);
        directory.wait_live(3, 0);
    }
}
