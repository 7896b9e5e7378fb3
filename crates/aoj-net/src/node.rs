//! Per-process node machinery shared by workers and the coordinator.
//!
//! Every process in a TCP session — the coordinator included — runs one
//! **node**: a machine loop servicing an [`aoj_runtime::mailbox::Mailbox`] with
//! the exact weighted-class semantics of the threaded runtime, an
//! accept loop feeding inbound connections into that mailbox, and a set
//! of lazily-dialed connections carrying outbound traffic.
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
//! * [`Writers`] — one connection per destination, bound to the
//!   generation it dials, carrying every message class in send order:
//!   per-channel FIFO falls out of TCP's byte-stream ordering, and the
//!   receiving mailbox applies the weighted class service (§4.3.2), as
//!   the threaded runtime's does;
//! * [`spawn_reader`]/[`spawn_acceptor`] — inbound connections push into
//!   the bounded mailbox, so TCP backpressure propagates into the same
//!   tuple-unit accounting the threaded runtime uses; the acceptor blocks
//!   in `accept` and teardown wakes it with [`wake_acceptor`];
//! * [`DrainCount`] — the retiree's side of the retirement barrier;
//! * [`run_machine_loop`] — the handler loop: the runtime's
//!   [`dispatch`] per work item, effects staged onto the sockets, one
//!   finish count per item, and one end-of-batch hook (a worker ships
//!   its buffered matches there).
//!
//! Retirement is the threaded runtime's flush-token barrier carried over
//! the data plane. The node that applies `Effect::Retire(m)` stages a
//! [`K_FLUSH`] token to every other live peer — FIFO behind the epoch
//! change that stopped that peer sending to `m` — and ends its link to
//! `m`'s current generation with a [`K_FLUSH_SENT`] naming how many
//! tokens it sent. A peer's machine loop consumes its token the way the
//! runtime's workers do: it ends its own link to that generation with a
//! [`K_FLUSHED`] answer behind everything it staged, dialing first if it
//! never sent `m` anything. Each link is FIFO, so `m` has received
//! everything it will once the announcement and every answer are in —
//! the runtime's rule that the last consumed token completes the drain.
//! Sends to `m` after the token dial its next generation and wait for
//! it. A peer can still receive another machine's `Signal` before its
//! token; so the controller, re-provisioning a slot it retired, waits
//! until the old generation is gone — every token consumed — before it
//! sends anything more, as the runtime's `Provision` does.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoj_operators::messages::OpMsg;
use aoj_runtime::mailbox::{dispatch, install_wakers, Mailbox, Work};
use aoj_runtime::DRAIN_BATCH;
use aoj_simnet::{MachineId, Metrics, MsgClass, SimMessage, SimTime, TaskId, TaskMap};

use crate::wire::{
    self, append_frame, read_frame, write_frame, BufPool, Preamble, RetireReq, TaskMsg, Wire,
    K_EOS, K_FLUSH, K_FLUSHED, K_FLUSH_SENT, K_PREAMBLE, K_TASK_MSG,
};

/// How long a writer waits for its destination to appear in the
/// directory (or a retiree waits for its drain to complete) before
/// declaring the cluster wedged. Generous: provisioning a worker is a
/// process spawn plus a topology rebuild.
pub(crate) const PEER_WAIT: Duration = Duration::from_secs(60);

/// Total wall-clock budget one [`dial_with_retry`] spends before giving
/// up with [`DialError::Timeout`]. A listener that is coming up accepts
/// within milliseconds; ten seconds of refusals means the peer is gone,
/// not slow.
pub(crate) const DIAL_BUDGET: Duration = Duration::from_secs(10);

/// A failed [`dial_with_retry`]: the typed form of "the peer never
/// accepted", carrying everything a postmortem needs.
#[derive(Debug)]
pub(crate) enum DialError {
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
pub(crate) fn dial_with_retry(port: u16, seed: u64) -> Result<TcpStream, DialError> {
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
pub(crate) struct Clock {
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
    pub(crate) fn now_us(&self) -> u64 {
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
pub(crate) struct Counters {
    /// Work items created (sends + timers).
    pub(crate) created: AtomicU64,
    /// Work items fully serviced.
    pub(crate) finished: AtomicU64,
}

impl Counters {
    /// Snapshot `(created, finished)`.
    pub(crate) fn snapshot(&self) -> (u64, u64) {
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
pub(crate) struct Directory {
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
    pub(crate) fn set_live(&self, machine: usize, gen: u32, port: u16) {
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
    pub(crate) fn wait_live(&self, machine: usize, min_gen: u32) -> (u32, u16) {
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

/// The retiree's side of the retirement barrier, counted by its readers:
/// the [`K_FLUSH_SENT`] announcement of the node that applied the retire
/// (how many peers it gave a token) and one [`K_FLUSHED`] answer per peer
/// that consumed its token, in either order. Each arrives last on its
/// link, behind everything that sender sent this generation, so once the
/// announcement and as many answers as it names are in, nothing is in
/// flight toward the retiree.
#[derive(Default)]
pub(crate) struct DrainCount {
    /// `(tokens announced, once the announcement is in; answers in)`.
    st: Mutex<(Option<u64>, u64)>,
    cv: Condvar,
}

impl DrainCount {
    /// A count with nothing in.
    pub fn new() -> Arc<DrainCount> {
        Arc::new(DrainCount::default())
    }

    /// The applying node gave `tokens` peers a token.
    pub(crate) fn announced(&self, tokens: u64) {
        self.st.lock().unwrap().0 = Some(tokens);
        self.cv.notify_all();
    }

    /// One peer consumed its token.
    pub(crate) fn answered(&self) {
        self.st.lock().unwrap().1 += 1;
        self.cv.notify_all();
    }

    fn complete(st: &(Option<u64>, u64)) -> bool {
        matches!(*st, (Some(k), n) if n >= k)
    }

    /// Block until the drain is complete.
    ///
    /// # Panics
    ///
    /// If it does not complete within [`PEER_WAIT`].
    pub(crate) fn wait(&self) {
        let deadline = Instant::now() + PEER_WAIT;
        let mut st = self.st.lock().unwrap();
        while !DrainCount::complete(&st) {
            let now = Instant::now();
            assert!(
                now < deadline,
                "retirement drain stuck at {:?} after {PEER_WAIT:?}",
                *st
            );
            st = self.cv.wait_timeout(st, deadline - now).unwrap().0;
        }
    }
}

/// The write half of a control connection: small frames written under a
/// lock, shared between a node's control loop and its machine loop
/// (which sends lifecycle requests from inside handlers). The lock also
/// guards the frame buffer every send encodes into, so periodic frames
/// (gauges, matches, probes) reuse one allocation.
pub(crate) struct ControlOut(Mutex<(TcpStream, Vec<u8>)>);

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
    pub(crate) fn send(&self, kind: u8, msg: &impl Wire) {
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
    /// Set when the connection was closed before the dial finished; the
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
    /// One per destination, for the generation sends go to now.
    open: HashMap<usize, WriterHandle>,
    /// Connections to a retiring generation, parked by
    /// [`Writers::retire`] until [`Writers::close_to`].
    parked: Vec<(usize, WriterHandle)>,
    /// Per destination: the lowest generation a new connection may dial
    /// (0 when absent), raised past each retired generation.
    floor: HashMap<usize, u32>,
}

/// Outbound connections: one per destination machine, carrying every
/// message class in send order, dialed lazily by a short-lived dialer
/// thread. Once a connection is up, senders write to it inline — the
/// per-message writer-thread wakeup is gone from the steady-state path,
/// which matters enormously on a host where every wakeup is a contended
/// scheduler handoff. All
/// connections on a node share one [`BufPool`], closing the encode →
/// socket → return recycling loop.
pub(crate) struct Writers {
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
    pub(crate) fn pool(&self) -> Arc<BufPool> {
        Arc::clone(&self.pool)
    }

    /// Send a buffer of pre-framed bytes toward `dest`, dialing its
    /// connection first if needed. An established connection is written
    /// inline — one `write` plus one flush per call, no thread handoff;
    /// one call may carry a whole mailbox batch's frames. While the dial is still in flight the
    /// buffer parks in the connection's backlog, so a send to a machine
    /// that is still provisioning never blocks the sender. A new
    /// connection dials the lowest generation of `dest` not yet retired.
    pub(crate) fn enqueue(&self, dest: usize, frames: Vec<u8>) {
        let mut map = self.inner.lock().unwrap();
        let Handles { open, floor, .. } = &mut *map;
        let handle = open.entry(dest).or_insert_with(|| {
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
            };
            let dialer = std::thread::Builder::new()
                .name(format!("aoj-net-w{}m{dest}", self.self_machine))
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
            // Best-effort toward a possibly-dead peer: the EOS marker is
            // an uncounted goodbye that ends the peer's reader quietly.
            let _ = write_frame(w, K_EOS, &()).and_then(|()| w.flush());
        } else if !conn.broken {
            conn.eos = true;
        }
        drop(conn);
        // The dialer exits once the connection is up (or, when `eos` was
        // set first, once it has delivered the backlog and the marker).
        handle.dialer.join().expect("dialer thread panicked");
    }

    /// Retire generation `gen` of `dest`: park the connection that may
    /// carry traffic to it for [`close_to`](Writers::close_to), mark it
    /// retiring in the directory, and route later sends to `dest` onto a
    /// fresh connection that waits for generation `gen + 1`.
    pub(crate) fn retire(&self, dest: usize, gen: u32) {
        let mut map = self.inner.lock().unwrap();
        if map.open.get(&dest).is_some_and(|h| h.gen <= gen) {
            let handle = map.open.remove(&dest).unwrap();
            map.parked.push((dest, handle));
        }
        let floor = map.floor.entry(dest).or_insert(0);
        *floor = (*floor).max(gen + 1);
        self.directory.set_retiring(dest, gen);
    }

    /// Close the connection [`retire`](Writers::retire) parked toward
    /// `dest` (flush + trailing [`K_EOS`] + join). A connection to a later
    /// generation stays open.
    pub(crate) fn close_to(&self, dest: usize) {
        let mut map = self.inner.lock().unwrap();
        let (to_dest, rest) = std::mem::take(&mut map.parked)
            .into_iter()
            .partition::<Vec<_>, _>(|(d, _)| *d == dest);
        map.parked = rest;
        for (_, handle) in to_dest {
            Writers::close(handle);
        }
    }

    /// Close every connection (flush + trailing [`K_EOS`] + join); the
    /// node's shutdown path.
    pub(crate) fn close_all(&self) {
        let mut map = self.inner.lock().unwrap();
        let Handles { open, parked, .. } = &mut *map;
        for (_, handle) in open.drain().chain(parked.drain(..)) {
            Writers::close(handle);
        }
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
/// mailbox batch, frames bound for the same destination are encoded back
/// to back into one pooled buffer, in send order, then handed to its
/// connection as a single write at batch end. One map lock and one
/// socket write cover the whole batch — and in steady state the buffers
/// cycle through the [`BufPool`] without touching the allocator.
pub(crate) struct OutStage {
    pool: Arc<BufPool>,
    slots: HashMap<usize, Vec<u8>>,
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

    /// Append one frame of `kind` to `dest`'s staging buffer, behind
    /// everything already staged there.
    pub(crate) fn push(&mut self, dest: usize, kind: u8, msg: &impl Wire) {
        let buf = self.slots.entry(dest).or_default();
        if buf.capacity() == 0 {
            *buf = self.pool.get();
        }
        append_frame(buf, kind, msg);
    }

    /// Hand every dirty staging buffer to its writer. Buffers leave by
    /// value and come back through the pool once written.
    pub(crate) fn flush(&mut self, writers: &Writers) {
        for (&dest, buf) in self.slots.iter_mut() {
            if buf.is_empty() {
                continue;
            }
            writers.enqueue(dest, std::mem::take(buf));
        }
    }
}

/// Service one accepted data-plane connection: read the [`Preamble`],
/// then push every [`K_TASK_MSG`] into the mailbox under its message's
/// class (bounded for data, so TCP backpressure feeds the same
/// tuple-unit accounting the threaded runtime uses). A [`K_FLUSH`] token
/// joins the Control queue as a `Work::Flush`, in order; a
/// [`K_FLUSH_SENT`] or [`K_FLUSHED`] counts toward this node's own
/// retirement `drain`; a [`K_EOS`] ends the connection.
pub(crate) fn spawn_reader(
    stream: TcpStream,
    mailbox: Arc<Mailbox<OpMsg>>,
    done: Arc<AtomicBool>,
    drain: Arc<DrainCount>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("aoj-net-reader".into())
        .spawn(move || {
            stream.set_nodelay(true).ok();
            let mut r = BufReader::new(stream);
            match read_frame(&mut r) {
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
                    Ok(K_FLUSH_SENT) => {
                        drain.announced(u64::from_bytes(&payload).expect("decode flush count"))
                    }
                    Ok(K_FLUSHED) => drain.answered(),
                    Ok(K_EOS) => return,
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
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    mailbox: Arc<Mailbox<OpMsg>>,
    done: Arc<AtomicBool>,
    drain: Arc<DrainCount>,
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
                        Arc::clone(&drain),
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
pub(crate) fn wake_acceptor(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

/// A lifecycle request surfaced by a handler on this node, to be acted
/// on by the coordinator (locally, or via a control frame from a
/// worker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// `Effect::Provision` — spawn the machine's worker process.
    Provision(usize),
    /// `Effect::Retire`, applied here: every live peer holds a token and
    /// the retiree counts its own drain. The coordinator gives it the
    /// go-ahead to exit when the retirement's turn comes.
    Retire(RetireReq),
}

/// Everything the machine loop shares with the rest of its node.
pub(crate) struct NodeShared {
    /// The machine this node hosts.
    pub machine: usize,
    /// The node's inbound queue set.
    pub(crate) mailbox: Arc<Mailbox<OpMsg>>,
    /// Global shutdown flag.
    pub(crate) done: Arc<AtomicBool>,
    /// The anchored session clock.
    pub(crate) clock: Clock,
    /// Quiescence counters.
    pub(crate) counters: Arc<Counters>,
    /// Outbound connections.
    pub(crate) writers: Arc<Writers>,
    /// The machine directory the writers dial through.
    pub(crate) directory: Arc<Directory>,
    /// Task index → hosting machine (identical in every process: it is
    /// derived from the same plan).
    pub(crate) task_machine: Arc<Vec<MachineId>>,
}

/// Run this node's machine loop to completion: service the mailbox
/// batch-wise through the runtime's [`dispatch`], applying effects as
/// they surface and consuming retirement tokens in queue order. After
/// each batch's staged frames leave, `batch_end` runs (a worker ships
/// its buffered matches there). Returns the metrics shard and the tasks
/// (so finals can be harvested) once the node shuts down or its
/// retirement drain completes.
pub(crate) fn run_machine_loop(
    shared: &NodeShared,
    mut tasks: TaskMap<OpMsg>,
    mut shard: Metrics,
    lifecycle: &(dyn Fn(Lifecycle) + Sync),
    batch_end: Option<&dyn Fn()>,
) -> (Metrics, TaskMap<OpMsg>) {
    let mid = MachineId(shared.machine);
    install_wakers(&shared.mailbox, &mut tasks);
    let mut batch: Vec<Work<OpMsg>> = Vec::with_capacity(DRAIN_BATCH);
    let mut stage = OutStage::new(shared.writers.pool());
    loop {
        if !shared.mailbox.pop_batch(
            DRAIN_BATCH,
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
                // retiree was consumed ahead of the token: answer it
                // behind what is staged and close the link to the
                // retiring generation, as the runtime's workers do.
                stage.push(machine, K_FLUSHED, &());
                stage.flush(&shared.writers);
                shared.writers.retire(machine, gen);
                shared.writers.close_to(machine);
                shared.counters.finished.fetch_add(1, Ordering::AcqRel);
                continue;
            }
            let now = SimTime(shared.clock.now_us());
            let (self_task, effects) = dispatch(work, &mut tasks, &mut shard, mid, now);
            for effect in effects {
                apply_effect(shared, self_task, effect, &mut shard, &mut stage, lifecycle);
            }
            shared.counters.finished.fetch_add(1, Ordering::AcqRel);
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
            let dest = shared.task_machine[to.index()].index();
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
                stage.push(dest, K_TASK_MSG, &(self_task, to, msg));
            }
        }
        aoj_simnet::Effect::Timer {
            delay,
            key,
            or_idle,
        } => {
            shared.counters.created.fetch_add(1, Ordering::AcqRel);
            let at = shared.clock.now_us() + delay.as_micros();
            shared.mailbox.push_timer(at, self_task, key, or_idle);
        }
        // Counted as created until it fires, so the quiescence probe
        // sees an open session's parked source as work in flight.
        aoj_simnet::Effect::Park { key } => {
            shared.counters.created.fetch_add(1, Ordering::AcqRel);
            shared.mailbox.park(self_task, key);
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
            // signals other machines relay to a peer — can then overtake
            // a token and reach the old generation.
            if let Some(gen) = shared.directory.retiring_gen(m) {
                stage.flush(&shared.writers);
                shared.directory.wait_live(m, gen + 1);
            }
        }
        aoj_simnet::Effect::Retire { machine } => {
            // The runtime's flush-token post, across processes: every live
            // peer this node has not itself retired gets a token behind
            // what it was sent, and the link to the retiree ends with how
            // many went out. (A peer retired here already — a contraction
            // retires several machines in one handler — is skipped: its
            // token would wait for a generation that is not coming.)
            let m = machine.index();
            let gen = shared
                .directory
                .live_gen(m)
                .unwrap_or_else(|| panic!("retire of machine {m}, which is not live"));
            let mut tokens = 0u64;
            for p in shared.directory.live_machines() {
                if p != shared.machine && p != m {
                    shared.counters.created.fetch_add(1, Ordering::AcqRel);
                    stage.push(p, K_FLUSH, &(m as u64, gen));
                    tokens += 1;
                }
            }
            stage.push(m, K_FLUSH_SENT, &tokens);
            stage.flush(&shared.writers);
            shared.writers.retire(m, gen);
            shared.writers.close_to(m);
            lifecycle(Lifecycle::Retire(RetireReq {
                machine: m as u64,
                gen,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The oracle of the drain-count test.
    impl DrainCount {
        /// The announcement and every answer it names are in.
        fn is_complete(&self) -> bool {
            DrainCount::complete(&self.st.lock().unwrap())
        }
    }

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

    /// A connection's preamble: who dialed it, at which generation.
    fn preamble(conn: &mut BufReader<TcpStream>) -> Preamble {
        match read_frame(conn).expect("read preamble") {
            (K_PREAMBLE, p) => Preamble::from_bytes(&p).unwrap(),
            (k, _) => panic!("first frame kind {k}, want preamble"),
        }
    }

    /// A Data, a Migration and a Control message, then a retirement
    /// token, staged to one peer leave on one connection in that order:
    /// the class is the receiving mailbox's business, not the link's.
    #[test]
    fn one_connection_per_peer_carries_every_class_in_send_order() {
        use aoj_core::tuple::{Rel, Tuple};
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let directory = Directory::new();
        directory.set_live(3, 0, peer.local_addr().unwrap().port());
        let writers = Writers::new(Arc::clone(&directory), 9, 0);
        let sent = [
            OpMsg::DataBatch {
                tag: 0,
                store: true,
                tuples: vec![Tuple::new(Rel::R, 7, 0, 0)],
                arrived: vec![SimTime::ZERO],
            },
            OpMsg::MigDone,
            OpMsg::Ack {
                joiner: 3,
                epoch: 1,
            },
        ];
        let mut stage = OutStage::new(writers.pool());
        for msg in &sent {
            stage.push(3, K_TASK_MSG, &(TaskId(0), TaskId(1), msg.clone()));
        }
        stage.push(3, K_FLUSH, &(5u64, 2u32));
        stage.flush(&writers);

        let mut conn = accept(&peer);
        assert_eq!(
            preamble(&mut conn),
            Preamble {
                from_machine: 9,
                gen: 0
            }
        );
        let mut classes = Vec::new();
        for msg in &sent {
            let (kind, payload) = read_frame(&mut conn).unwrap();
            assert_eq!(kind, K_TASK_MSG);
            let (from, to, got) = TaskMsg::from_bytes(&payload).unwrap();
            assert_eq!((from, to), (TaskId(0), TaskId(1)));
            assert_eq!(got.to_bytes(), msg.to_bytes());
            classes.push(got.class());
        }
        assert_eq!(
            classes,
            [MsgClass::Data, MsgClass::Migration, MsgClass::Control]
        );
        let (kind, payload) = read_frame(&mut conn).unwrap();
        assert_eq!(kind, K_FLUSH);
        assert_eq!(<(u64, u32)>::from_bytes(&payload).unwrap(), (5, 2));

        // Closing joins every dialer: a second connection would be in
        // the listener's queue by now.
        writers.close_all();
        assert_eq!(next(&mut conn), None);
        assert_eq!(
            peer.accept().map(|_| ()).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock,
            "a second connection was dialed"
        );
    }

    /// The retiree's drain completes once the announcement and the k-th
    /// answer are in, whichever comes last; k - 1 answers never do, and
    /// an announcement of no tokens completes it at once.
    #[test]
    fn the_retiree_drain_completes_on_the_announcement_and_every_answer() {
        let announced_first = DrainCount::new();
        announced_first.announced(2);
        announced_first.answered();
        assert!(!announced_first.is_complete(), "k - 1 answers");
        announced_first.answered();
        assert!(announced_first.is_complete());
        announced_first.wait();

        let answered_first = DrainCount::new();
        answered_first.answered();
        answered_first.answered();
        assert!(!answered_first.is_complete(), "no announcement yet");
        answered_first.announced(3);
        assert!(!answered_first.is_complete(), "k - 1 answers");
        answered_first.answered();
        assert!(answered_first.is_complete());

        let no_peers = DrainCount::new();
        assert!(!no_peers.is_complete());
        no_peers.announced(0);
        assert!(no_peers.is_complete());
        no_peers.wait();
    }

    /// Two loopback listeners stand in for generations 0 and 1 of machine
    /// 3. Retiring generation 0 parks its one connection: later sends dial
    /// generation 1 once it comes up, `close_to` ends only the parked
    /// connection, and the new one stays open until the node shuts down.
    #[test]
    fn retire_parks_the_old_generation_and_sends_dial_the_next() {
        let gen0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let gen1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let directory = Directory::new();
        directory.set_live(3, 0, gen0.local_addr().unwrap().port());
        let writers = Writers::new(Arc::clone(&directory), 9, 0);

        writers.enqueue(3, frames(1));
        let mut conn0 = accept(&gen0);
        assert_eq!(
            preamble(&mut conn0),
            Preamble {
                from_machine: 9,
                gen: 0
            }
        );
        assert_eq!(next(&mut conn0), Some(1));
        writers.enqueue(3, frames(2));
        assert_eq!(next(&mut conn0), Some(2), "one connection per generation");

        writers.retire(3, 0);
        // Generation 1 is not up yet: the send parks in the backlog of a
        // connection that waits for it.
        writers.enqueue(3, frames(3));
        directory.set_live(3, 1, gen1.local_addr().unwrap().port());
        let mut conn1 = accept(&gen1);
        assert_eq!(preamble(&mut conn1).from_machine, 9);
        assert_eq!(next(&mut conn1), Some(3));

        writers.close_to(3);
        assert_eq!(next(&mut conn0), None, "generation 0 is closed");
        writers.enqueue(3, frames(4));
        assert_eq!(next(&mut conn1), Some(4), "generation 1 stays open");

        writers.close_all();
        assert_eq!(next(&mut conn1), None);
        for listener in [&gen0, &gen1] {
            assert_eq!(
                listener.accept().map(|_| ()).unwrap_err().kind(),
                std::io::ErrorKind::WouldBlock,
                "one connection per generation"
            );
        }
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
