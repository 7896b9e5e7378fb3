//! Closing a TCP session leaves nothing behind in the coordinator's
//! process. Both of its acceptors block in `accept`; teardown wakes each
//! with one connect to its own listener. Without that wake every closed
//! session would leak two blocked threads and two listening sockets.
//!
//! This lives in its own integration-test binary because it counts the
//! whole process's threads: here the sessions it opens are the only
//! thing running.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{BackendChoice, JoinSession, OperatorKind, SessionBuilder};

aoj_net::worker_entry!();

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn closed_sessions_release_their_threads_and_listeners() {
    aoj_net::install();
    let item = |key| StreamItem {
        key,
        aux: 0,
        bytes: 64,
    };
    let w = Workload {
        name: "teardown",
        predicate: Predicate::Equi,
        r_items: (0..40).map(item).collect(),
        s_items: (0..200).map(|k| item(k % 40)).collect(),
    };
    let arrivals = interleave(&w, 7);
    // Measured inside the test: the harness's own threads are counted
    // (and the worker-entry test may still be winding down, which only
    // raises the baseline).
    let start = threads();
    for round in 0..20 {
        let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
            .with_predicate(Predicate::Equi)
            .with_backend(BackendChoice::Tcp);
        let mut session = JoinSession::open(builder);
        let mut sub = session.subscribe();
        session.push_batch(arrivals.iter().copied()).unwrap();
        let report = session.close();
        // Every match reached the subscriber (they leave the workers at
        // the end of the batch that made them, the rest at exit).
        assert_eq!(sub.by_ref().count() as u64, report.matches, "round {round}");
        assert_eq!(report.matches, 200, "round {round}");
        let summary = aoj_net::last_run_summary().expect("a tcp run summary");
        for port in summary.listeners {
            assert!(
                TcpStream::connect(("127.0.0.1", port)).is_err(),
                "round {round}: listener port {port} still accepts after close"
            );
        }
    }
    // The coordinator's per-worker control readers and inbound data
    // readers end as the workers' sockets close, just after `close`
    // returns; everything else was joined inside it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > start {
        assert!(
            Instant::now() < deadline,
            "{} threads before 20 closed sessions, {} after",
            start,
            threads()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
