//! # aoj-net — the multi-process TCP execution backend
//!
//! The third [`aoj_simnet::ExecBackend`], alongside the deterministic
//! simulator (`Sim`) and the threaded runtime (`Threaded`): here every
//! machine of a [`aoj_operators::JoinSession`] is a real **OS
//! process**, reached over loopback TCP. The crate uses `std::net`
//! only — no async runtime, no serialization framework; the wire
//! format is hand-rolled length-prefixed binary (see [`wire`]).
//!
//! ## Topology
//!
//! * The **coordinator** (`backend::TcpBackend`) lives in the
//!   session's process and is built from the session's
//!   [`aoj_simnet::Topology`]. It runs the source machine's node itself (so
//!   ingest pushes feed the data plane directly), spawns one **worker
//!   process** per joiner machine by re-executing the current binary
//!   with `AOJ_NET_WORKER=1`, and services the control plane.
//! * Each **worker** rebuilds the identical `Topology` from the plan
//!   frame (a serialized [`aoj_operators::SessionBuilder`], guarded by
//!   a version byte and a fingerprint, plus the checkpoint a restored
//!   session starts from), takes only its own machine's tasks, and runs
//!   them on a mailbox with the same per-class
//!   bounded semantics as the threaded runtime.
//! * **One link per machine pair:** every directed pair of machine
//!   incarnations uses one TCP connection, carrying control, data and
//!   migration traffic in send order; the receiver's mailbox serves the
//!   classes by the same weighted policy as `aoj-runtime`'s.
//!
//! ## Elasticity as process lifecycle
//!
//! `Effect::Provision` from the controller surfaces at the coordinator
//! as a **process spawn at trigger time**; `Effect::Retire` runs the
//! threaded runtime's flush-token barrier over the data plane: the node
//! that applies it sends every live peer a retirement token, FIFO
//! behind the epoch change that stopped that peer sending there, and
//! tells the retiree how many it sent; each peer consumes its token in
//! its machine loop and answers the retiree last on its link. The
//! retiree counts its own drain — the announcement and every answer —
//! and, given the coordinator's go-ahead, drains and ends in
//! `std::process::exit(0)`; the coordinator waitpid-reaps the child,
//! so retirement is confirmed by the OS, not inferred. Writers
//! are generation-aware: a slot re-provisioned while its old process
//! still drains gets a fresh process whose connections are new ones,
//! and the controller re-provisioning a slot it retired waits for the
//! old generation to be gone first, as the threaded runtime's
//! `Provision` does.
//!
//! ## Using it
//!
//! Call [`worker_entry!`] once in the test binary (or call
//! [`init_worker`] first thing in `main` for a plain binary), then
//! [`install`] before opening a session with
//! [`BackendChoice::Tcp`](aoj_operators::BackendChoice::Tcp):
//!
//! ```ignore
//! aoj_net::worker_entry!();
//!
//! #[test]
//! fn over_tcp() {
//!     aoj_net::install();
//!     let mut session = JoinSession::open(builder.with_backend(BackendChoice::Tcp));
//!     // push / drain / close as on any other backend
//! }
//! ```

pub mod backend;
mod node;
pub mod wire;
pub mod worker;

use std::sync::Mutex;

/// One reaped worker process.
#[derive(Clone, Debug)]
pub struct ReapRecord {
    /// The machine slot the process served.
    pub machine: usize,
    /// Its incarnation number (0 for the initial spawn, +1 per
    /// re-provision of the same slot).
    pub gen: u32,
    /// The exit code reported by `waitpid` (None if killed by signal).
    pub exit_code: Option<i32>,
    /// True when the process exited mid-session (a retirement), false
    /// when it exited during final shutdown.
    pub mid_run: bool,
}

/// What one `run()` of the TCP backend did with its processes.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Total worker processes spawned (eager + trigger-time).
    pub spawned: u64,
    /// Every worker exit, in reap order.
    pub reaped: Vec<ReapRecord>,
    /// The coordinator's listening ports, control then data. Both are
    /// closed by the time `run()` returns.
    pub listeners: [u16; 2],
}

static LAST_RUN: Mutex<Option<RunSummary>> = Mutex::new(None);

pub(crate) fn record_run(summary: RunSummary) {
    *LAST_RUN.lock().unwrap() = Some(summary);
}

/// The [`RunSummary`] of the most recently completed TCP-backend run in
/// this process, if any. Tests use it to assert that trigger-time
/// spawns happened and that retired workers really exited.
pub fn last_run_summary() -> Option<RunSummary> {
    LAST_RUN.lock().unwrap().clone()
}

/// Register the TCP backend factory with `aoj-operators` so
/// `Backend::Tcp` sessions route here. Idempotent; first registration
/// wins (the operators side guarantees that).
pub fn install() {
    aoj_operators::register_tcp_backend(backend::TcpBackend::factory);
}

/// Divert into the worker main loop if this process was spawned as a
/// worker (the `AOJ_NET_WORKER` environment variable is set). Call this
/// before anything else in a binary that opens TCP-backend sessions;
/// test binaries use [`worker_entry!`] instead. Returns normally only
/// in the parent.
pub fn init_worker() {
    if std::env::var_os(worker::ENV_WORKER).is_some() {
        worker::worker_main();
    }
}

/// Declare the re-exec entry point in a test binary. The coordinator
/// spawns workers as `current_exe() aoj_net_worker_entry --exact`; under
/// the libtest harness that runs exactly this one "test", which never
/// returns (the worker exits the process when done).
#[macro_export]
macro_rules! worker_entry {
    () => {
        #[test]
        fn aoj_net_worker_entry() {
            $crate::init_worker();
        }
    };
}
