//! The live session API's contracts:
//!
//! * a subscriber receives matches **before** the last tuple is pushed,
//!   on both backends;
//! * the streamed match multiset equals `RunReport::match_pairs` exactly,
//!   including across a live ×4 elastic expansion;
//! * backpressure surfaces to the caller: `try_push` reports `Full`
//!   exactly when the ingest queue (behind the closed flow-control
//!   window) is exhausted, a blocked `push` wakes once the operator
//!   returns credits, and a slow — even fully stalled — subscriber never
//!   deadlocks the data plane or the close/drain path;
//! * `stats()` reports each machine's match count live, on every backend,
//!   and the per-machine counts add up to the session total once the
//!   pushed input has drained.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{reference_match_count, StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{
    BackendChoice, ElasticConfig, JoinSession, KeyFilter, OperatorKind, PushError, RunReport,
    SessionBuilder, SessionHandle,
};

// TCP session tests re-exec this binary as the worker process.
aoj_net::worker_entry!();

/// TCP runs record a process-global [`aoj_net::last_run_summary`], so
/// they must not interleave within this binary.
static TCP_RUNS: Mutex<()> = Mutex::new(());
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aoj_core::tuple::Rel;

fn workload(nr: usize, ns: usize, key_space: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |space: i64| StreamItem {
        key: rng.gen_range(0..space),
        aux: rng.gen_range(0..100i32),
        bytes: 64,
    };
    Workload {
        name: "session",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(key_space)).collect(),
        s_items: (0..ns).map(|_| item(key_space)).collect(),
    }
}

/// The live per-machine `matches` gauges, summed.
fn matches_by_machine(session: &SessionHandle) -> u64 {
    session.stats().machines.iter().map(|m| m.matches).sum()
}

/// Once everything pushed so far has drained, the per-machine gauges add
/// up to the session's match total (`expected`). Live backends publish
/// gauges asynchronously — per batch on threads, every few milliseconds
/// over TCP — so poll.
fn await_machine_matches(session: &SessionHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while (matches_by_machine(session), session.stats().matches) != (expected, expected) {
        assert!(
            Instant::now() < deadline,
            "per-machine matches settled at {} of {expected} (session total {})",
            matches_by_machine(session),
            session.stats().matches
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The final report's per-machine rows carry the same split.
fn assert_report_splits_matches(report: &RunReport) {
    let by_machine: u64 = report.machines.iter().map(|m| m.matches).sum();
    assert_eq!(by_machine, report.matches);
}

/// Simulator sessions interleave caller pushes with virtual time: after
/// a prefix of the stream is pushed, its matches are already available —
/// long before the last tuple — and the final output is exact.
#[test]
fn sim_session_streams_matches_before_the_last_push() {
    let seed = 0x5E55_0001;
    let w = workload(300, 2_700, 200, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_seed(seed);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();

    let half = arrivals.len() / 2;
    session
        .push_batch(arrivals[..half].iter().copied())
        .unwrap();
    let stats = session.stats();
    assert_eq!(stats.pushed_tuples, half as u64);
    assert!(
        stats.matches > 0,
        "half the stream produced no matches — the session is not live"
    );
    assert!(
        stats.total_stored_bytes() > 0,
        "no stored state mid-session"
    );

    // The subscriber sees those matches *now*, before the rest arrives.
    let mut streamed = Vec::new();
    while let Some(m) = sub.try_next() {
        streamed.push(m.pair());
    }
    assert!(!streamed.is_empty(), "subscription lagged the data plane");

    session
        .push_batch(arrivals[half..].iter().copied())
        .unwrap();
    let report = session.close();
    while let Some(m) = sub.try_next() {
        streamed.push(m.pair());
    }
    assert_eq!(sub.next(), None, "subscription must end after close");
    assert_eq!(
        report.matches,
        reference_match_count(&w),
        "output not exact"
    );
    assert_eq!(report.matches as usize, streamed.len());
}

/// The streamed multiset equals `match_pairs` across a live ×4 expansion
/// (simulator backend, chunked pushes so the expansion genuinely fires
/// mid-session).
#[test]
fn subscription_equals_match_pairs_across_live_expansion_sim() {
    let seed = 0x2E_2014;
    let w = workload(500, 3_500, 300, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_elastic(ElasticConfig::new(48 << 10, 2))
        .with_collect_matches(true);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();

    let mut streamed = Vec::new();
    let mut saw_match_before_done = false;
    for chunk in arrivals.chunks(512) {
        session.push_batch(chunk.iter().copied()).unwrap();
        while let Some(m) = sub.try_next() {
            streamed.push(m.pair());
        }
        if !streamed.is_empty() {
            saw_match_before_done = true;
        }
        // Each push pumps the simulator to quiescence: the per-machine
        // split is exact after every chunk, expansion or not.
        assert_eq!(matches_by_machine(&session), session.stats().matches);
    }
    assert!(saw_match_before_done, "no matches arrived mid-session");
    assert_eq!(matches_by_machine(&session), reference_match_count(&w));

    let report = session.close();
    assert_report_splits_matches(&report);
    streamed.extend(sub.by_ref().map(|m| m.pair()));
    streamed.sort_unstable();
    assert!(
        report.expansions >= 1,
        "the elastic expansion never fired (got {})",
        report.expansions
    );
    assert_eq!(
        streamed, report.match_pairs,
        "streamed multiset diverged from the report's match log"
    );
    assert_eq!(report.matches, reference_match_count(&w));
}

/// Same contract on real threads: a producer thread pushes, a subscriber
/// thread consumes concurrently, a ×4 expansion fires mid-session, and
/// the streamed multiset still equals the report's match log exactly.
#[test]
fn subscription_equals_match_pairs_across_live_expansion_threaded() {
    let seed = 0xE1A_2014;
    let w = workload(400, 4_000, 300, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Threaded)
        // Every joiner blows past 32 KB of stored state mid-stream, so
        // one ×4 expansion (J 2 → 8) must fire (same workload as the
        // backend-equivalence pin).
        .with_elastic(ElasticConfig::new(64 << 10, 1))
        .with_collect_matches(true);
    let mut session = JoinSession::open(builder);
    let sub = session.subscribe();
    let ingest = session.ingest();

    let producer = std::thread::spawn({
        let arrivals = arrivals.clone();
        move || ingest.push_batch(arrivals).unwrap()
    });
    let subscriber = std::thread::spawn(move || {
        let mut streamed: Vec<(u64, u64)> = Vec::new();
        for m in sub {
            streamed.push(m.pair());
        }
        streamed
    });
    let pushed = producer.join().unwrap();
    assert_eq!(pushed as usize, arrivals.len());
    await_machine_matches(&session, reference_match_count(&w));
    let report = session.close();
    assert_report_splits_matches(&report);
    let mut streamed = subscriber.join().unwrap();
    streamed.sort_unstable();

    assert!(report.expansions >= 1, "expansion never fired");
    assert_eq!(
        streamed, report.match_pairs,
        "streamed multiset diverged from the report's match log"
    );
    assert_eq!(report.matches, reference_match_count(&w));
}

/// Backpressure end to end on the threaded backend: a stalled subscriber
/// blocks the joiners, which stop returning flow-control credits, which
/// closes the source's window, which fills the ingest queue — at which
/// point (and only then) `try_push` reports `Full`. Draining the
/// subscription releases the whole chain, and a blocked `push` wakes on
/// the returning credits.
#[test]
fn try_push_full_when_window_exhausted_and_push_wakes_on_credits() {
    const QUEUE: usize = 16;
    let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
        .with_predicate(Predicate::Equi)
        .with_backend(BackendChoice::Threaded)
        .with_batch_tuples(1)
        .with_window_copies(16)
        .with_queue_tuples(QUEUE)
        .with_match_buffer(1);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();

    let item = |key: i64| StreamItem {
        key,
        aux: 0,
        bytes: 64,
    };
    // One R row; every S tuple with the same key produces a match.
    session.push(Rel::R, item(0)).unwrap();

    // Stalled subscriber: after ~2 matches the joiner blocks in emit,
    // credits stop, the window closes, the queue fills — Full must
    // appear. Before it does, at least a queue's worth of pushes must
    // have been accepted (`Full` means "queue exhausted", nothing less).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut accepted = 1u64; // the R row above is queued too
    let mut full_seen = false;
    let mut first_full_at = 0u64;
    while Instant::now() < deadline {
        match session.try_push(Rel::S, item(0)) {
            Ok(()) => accepted += 1,
            Err(PushError::Full) => {
                full_seen = true;
                first_full_at = accepted;
                break;
            }
            Err(e) => panic!("unexpected push error {e:?}"),
        }
        if accepted > 10_000 {
            break;
        }
    }
    assert!(
        full_seen,
        "try_push never reported Full though the subscriber stalled the plane \
         ({accepted} pushes accepted)"
    );
    assert!(
        first_full_at >= QUEUE as u64,
        "Full after only {first_full_at} accepted pushes — the queue bound \
         ({QUEUE}) was not exhausted"
    );

    // A blocked `push` (producer thread) must wake once the subscriber
    // drains matches and the operator returns credits.
    let ingest = session.ingest();
    let tail = 32u64;
    let producer = std::thread::spawn(move || {
        for _ in 0..tail {
            ingest.push(Rel::S, item(0)).unwrap();
        }
    });
    // Slowly drain the subscription until the producer gets through.
    let mut received = 0u64;
    while !producer.is_finished() {
        if sub.try_next().is_some() {
            received += 1;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            Instant::now() < deadline,
            "blocked push never woke on credit return ({received} matches drained)"
        );
    }
    producer.join().unwrap();

    let expected = (accepted - 1) + tail; // every S matches the single R row
    let report = session.close();
    assert_eq!(report.matches, expected, "matches lost under backpressure");
    // The drain delivered everything the subscriber had not yet read.
    let mut total = received;
    for _ in sub.by_ref() {
        total += 1;
    }
    assert_eq!(total, expected, "subscription dropped matches");
}

/// A subscriber that never consumes at all must not deadlock `close()`:
/// the drain lifts the buffer bound first, then finishes, and the
/// buffered matches remain readable afterwards.
#[test]
fn fully_stalled_subscriber_never_deadlocks_the_close() {
    let seed = 0xDEAD_0001;
    let w = workload(200, 1_800, 150, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Threaded)
        // Room for the whole stream: with the subscriber stalled, the
        // data plane stops behind the full match buffer, so a smaller
        // queue would (correctly) block the producer — here we isolate
        // the close-path guarantee.
        .with_queue_tuples(arrivals.len())
        .with_match_buffer(8);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();
    let ingest = session.ingest();

    let producer = std::thread::spawn({
        let arrivals = arrivals.clone();
        move || ingest.push_batch(arrivals).unwrap()
    });
    producer.join().unwrap();
    // Nobody consumed a single match; close() must still drain and
    // return.
    let report = session.close();
    assert_eq!(report.matches, reference_match_count(&w));
    let mut streamed = 0u64;
    while sub.next().is_some() {
        streamed += 1;
    }
    assert_eq!(streamed, report.matches, "post-close drain lost matches");
}

/// SHJ sessions serve the same live API (the session layer is
/// operator-agnostic).
#[test]
fn shj_session_streams_live_matches() {
    let seed = 0x5417_0001;
    let w = workload(250, 2_250, 200, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Shj)
        .with_predicate(Predicate::Equi)
        .with_seed(seed);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();
    let half = arrivals.len() / 2;
    session
        .push_batch(arrivals[..half].iter().copied())
        .unwrap();
    let mut streamed = 0u64;
    while sub.try_next().is_some() {
        streamed += 1;
    }
    assert!(streamed > 0, "SHJ session not live");
    session
        .push_batch(arrivals[half..].iter().copied())
        .unwrap();
    let report = session.close();
    streamed += sub.count() as u64;
    assert_eq!(report.matches, reference_match_count(&w));
    assert_eq!(streamed, report.matches);
}

/// A flow-control window at or below the joiners' credit-batching slack
/// could close permanently with no credits in flight — a silent wedge on
/// a live session — so `open()` must refuse it up front.
#[test]
#[should_panic(expected = "window_copies")]
fn open_rejects_a_window_below_the_credit_batching_slack() {
    let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
        .with_predicate(Predicate::Equi)
        .with_window_copies(4); // < CREDIT_BATCH × J = 8
    let _ = JoinSession::open(builder);
}

/// The window follows the batch when the caller sets none — eight
/// batches per joiner, never below the per-tuple plane's `64·J` — and an
/// explicit one is honoured verbatim, 0 (flow control off) included.
#[test]
fn unset_window_follows_the_batch_size_and_an_explicit_one_is_verbatim() {
    let b = |j, batch| SessionBuilder::new(j, OperatorKind::Dynamic).with_batch_tuples(batch);
    assert_eq!(b(4, 64).window_copies(), 8 * 4 * 64);
    assert_eq!(b(16, 256).window_copies(), 8 * 16 * 256);
    assert_eq!(b(4, 1).window_copies(), 64 * 4, "per-tuple goldens hold");
    assert_eq!(b(4, 8).window_copies(), 64 * 4);
    // Order of the setters does not matter: the window resolves on use.
    let late = SessionBuilder::new(4, OperatorKind::Dynamic).with_batch_tuples(16);
    assert_eq!(late.with_batch_tuples(128).window_copies(), 8 * 4 * 128);
    assert_eq!(b(4, 64).with_window_copies(96).window_copies(), 96);
    assert_eq!(b(4, 64).with_window_copies(0).window_copies(), 0);
    // The mailbox bound stays above whichever window is in force.
    assert!(b(16, 256).runtime_config().data_queue_capacity >= 4 * 8 * 16 * 256);
}

/// `run()` is open / `push_batch` / close plus offline knowledge, and
/// nothing else: resolving that knowledge by hand — queue sized to the
/// input, sampling derived from its length, the competitive prefix trace
/// on (live sessions leave it off, so memory does not grow per pushed
/// tuple) — and driving the session explicitly reproduces the wrapper's
/// simulator run bit for bit.
#[test]
fn run_adds_only_offline_knowledge_to_an_explicit_session() {
    let seed = 0x0FF1_0001;
    let w = workload(300, 2_700, 200, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_seed(seed);
    assert!(!builder.backend.track_competitive);
    let wrapped = aoj_operators::run(&arrivals, &builder);

    let resolved = builder
        .with_queue_tuples(arrivals.len())
        .with_sample_every(arrivals.len() as u64 / 200)
        .with_track_competitive(true);
    let mut session = JoinSession::open(resolved);
    session.push_batch(arrivals.iter().copied()).unwrap();
    let explicit = session.close();

    assert!(wrapped.migrations >= 1, "vacuous: nothing adapted");
    assert!(!wrapped.competitive.is_empty(), "run() keeps the trace on");
    assert_eq!(wrapped.exec_time, explicit.exec_time);
    assert_eq!(wrapped.network_messages, explicit.network_messages);
    assert_eq!(wrapped.network_bytes, explicit.network_bytes);
    assert_eq!(wrapped.match_digest, explicit.match_digest);
    assert_eq!(
        format!("{:?}", wrapped.events),
        format!("{:?}", explicit.events)
    );
    assert_eq!(
        format!("{:?}", (&wrapped.samples, &wrapped.competitive)),
        format!("{:?}", (&explicit.samples, &explicit.competitive))
    );
}

/// Pushing after close must fail cleanly, and an unsubscribed session
/// still counts matches in its live stats.
#[test]
fn closed_queue_rejects_pushes_and_stats_count_without_subscriber() {
    let seed = 0xC105_0001;
    let w = workload(100, 900, 100, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed);
    let mut session = JoinSession::open(builder);
    let ingest = session.ingest();
    session.push_batch(arrivals.iter().copied()).unwrap();
    let stats = session.stats();
    assert_eq!(
        stats.matches,
        reference_match_count(&w),
        "stats must count matches without a subscriber"
    );
    let report = session.close();
    assert_eq!(report.matches, stats.matches);
    // The detached ingest endpoint observes the close.
    assert_eq!(
        ingest.push(
            Rel::R,
            StreamItem {
                key: 0,
                aux: 0,
                bytes: 64
            }
        ),
        Err(PushError::Closed)
    );
}

/// The expected filtered pair multiset: every reference match whose R or
/// S key falls in `[lo, hi]`. Computed by brute force over the workload.
fn reference_filtered_pairs(w: &Workload, lo: i64, hi: i64) -> usize {
    let mut n = 0;
    for r in &w.r_items {
        for s in &w.s_items {
            if r.key == s.key && ((lo..=hi).contains(&r.key) || (lo..=hi).contains(&s.key)) {
                n += 1;
            }
        }
    }
    n
}

/// Fan-out on the simulator: two independent full subscribers and one
/// filtered subscriber consume the same live stream. Both full streams
/// see the complete multiset, the filtered one exactly the pairs its
/// `KeyFilter` passes — and each advances at its own pace.
#[test]
fn multiple_subscribers_fan_out_on_sim() {
    let seed = 0xFA_0001;
    let w = workload(200, 1_800, 150, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed);
    let mut session = JoinSession::open(builder);
    let mut full_a = session.subscribe();
    let mut full_b = session.subscribe();
    let mut narrow = session.subscribe_filtered(KeyFilter::range(0, 19));

    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut n = Vec::new();
    for chunk in arrivals.chunks(256) {
        session.push_batch(chunk.iter().copied()).unwrap();
        // Deliberately lag subscriber B: it drains only every other
        // chunk, and must still miss nothing.
        while let Some(m) = full_a.try_next() {
            a.push(m.pair());
        }
        if a.len() % 2 == 0 {
            while let Some(m) = full_b.try_next() {
                b.push(m.pair());
            }
        }
        while let Some(m) = narrow.try_next() {
            assert!(
                (0..20).contains(&m.r_key) || (0..20).contains(&m.s_key),
                "filtered subscription leaked pair with keys ({}, {})",
                m.r_key,
                m.s_key
            );
            n.push(m.pair());
        }
    }
    let report = session.close();
    for m in full_a.by_ref() {
        a.push(m.pair());
    }
    for m in full_b.by_ref() {
        b.push(m.pair());
    }
    for m in narrow.by_ref() {
        n.push(m.pair());
    }
    assert_eq!(report.matches, reference_match_count(&w));
    assert_eq!(
        a.len() as u64,
        report.matches,
        "full subscriber A lost pairs"
    );
    assert_eq!(
        b.len() as u64,
        report.matches,
        "lagging subscriber B lost pairs"
    );
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "independent subscribers saw different multisets");
    assert_eq!(
        n.len(),
        reference_filtered_pairs(&w, 0, 19),
        "filtered subscription multiset is not exactly the passing pairs"
    );
}

/// Fan-out on real threads: two full consumers and one filtered consumer
/// run on their own threads against a producer thread. Slowest-consumer
/// backpressure applies (small match buffer), yet every stream stays
/// exact and `close()` ends all three.
#[test]
fn multiple_subscribers_fan_out_on_threaded() {
    let seed = 0xFA_0002;
    let w = workload(200, 1_800, 150, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Threaded)
        .with_match_buffer(64);
    let mut session = JoinSession::open(builder);
    let full_a = session.subscribe();
    let full_b = session.subscribe();
    let narrow = session.subscribe_filtered(KeyFilter::range(0, 19));
    let ingest = session.ingest();

    let producer = std::thread::spawn({
        let arrivals = arrivals.clone();
        move || ingest.push_batch(arrivals).unwrap()
    });
    let consume = |sub: aoj_operators::MatchSubscription| {
        std::thread::spawn(move || {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for m in sub {
                out.push(m.pair());
            }
            out
        })
    };
    let ta = consume(full_a);
    let tb = consume(full_b);
    let tn = std::thread::spawn(move || {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for m in narrow {
            assert!((0..20).contains(&m.r_key) || (0..20).contains(&m.s_key));
            out.push(m.pair());
            // The slowest subscriber: the pipeline must throttle to it,
            // not drop for it.
            if out.len().is_multiple_of(64) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        out
    });
    producer.join().unwrap();
    let report = session.close();
    let mut a = ta.join().unwrap();
    let mut b = tb.join().unwrap();
    let n = tn.join().unwrap();
    assert_eq!(report.matches, reference_match_count(&w));
    assert_eq!(a.len() as u64, report.matches);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "independent subscribers saw different multisets");
    assert_eq!(n.len(), reference_filtered_pairs(&w, 0, 19));
}

/// Dropping one subscriber mid-stream must not disturb the others: the
/// survivor still receives the complete multiset.
#[test]
fn dropping_one_subscriber_leaves_the_rest_exact() {
    let seed = 0xFA_0003;
    let w = workload(150, 1_350, 120, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed);
    let mut session = JoinSession::open(builder);
    let mut keeper = session.subscribe();
    let doomed = session.subscribe();

    let half = arrivals.len() / 2;
    session
        .push_batch(arrivals[..half].iter().copied())
        .unwrap();
    drop(doomed);
    session
        .push_batch(arrivals[half..].iter().copied())
        .unwrap();
    let report = session.close();
    let mut seen = 0u64;
    for _ in keeper.by_ref() {
        seen += 1;
    }
    assert_eq!(seen, report.matches);
    assert_eq!(report.matches, reference_match_count(&w));
}

/// Fan-out over real TCP: two full subscribers and one filtered
/// subscriber against worker processes. The filtered stream is pruned
/// worker-side (the tap ships only passing pairs), yet remains exactly
/// the passing subset; the full streams stay exact.
/// Worker processes ship their gauge rows — the `Matches` word included —
/// to the coordinator's overlay, so `stats()` splits matches by machine
/// on a TCP session too.
#[test]
fn machine_matches_are_live_on_tcp() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xFA_0005;
    let w = workload(150, 1_350, 120, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Tcp);
    let mut session = JoinSession::open(builder);
    // No subscriber: the session total is the sum of the machines' rows,
    // not a count of what the workers stream home.
    session.push_batch(interleave(&w, seed)).unwrap();
    await_machine_matches(&session, reference_match_count(&w));
    let stats = session.stats();
    assert!(
        stats.machines.iter().all(|m| m.matches > 0),
        "every joiner of the (1, 2) grid emits: {:?}",
        stats.machines
    );
    assert_report_splits_matches(&session.close());
    assert_eq!(stats.matches, reference_match_count(&w));
}

#[test]
fn multiple_subscribers_fan_out_on_tcp() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xFA_0004;
    let w = workload(150, 1_350, 120, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Tcp);
    let mut session = JoinSession::open(builder);
    let mut full_a = session.subscribe();
    let mut full_b = session.subscribe();
    let mut narrow = session.subscribe_filtered(KeyFilter::range(0, 19));

    let mut a = Vec::new();
    for chunk in arrivals.chunks(256) {
        session.push_batch(chunk.iter().copied()).unwrap();
        while let Some(m) = full_a.try_next() {
            a.push(m.pair());
        }
    }
    let report = session.close();
    for m in full_a.by_ref() {
        a.push(m.pair());
    }
    let mut b: Vec<(u64, u64)> = full_b.by_ref().map(|m| m.pair()).collect();
    let mut n = Vec::new();
    for m in narrow.by_ref() {
        assert!(
            (0..20).contains(&m.r_key) || (0..20).contains(&m.s_key),
            "TCP filtered subscription leaked pair with keys ({}, {})",
            m.r_key,
            m.s_key
        );
        n.push(m.pair());
    }
    assert_eq!(report.matches, reference_match_count(&w));
    assert_eq!(a.len() as u64, report.matches);
    assert_eq!(b.len() as u64, report.matches);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "TCP subscribers saw different multisets");
    assert_eq!(n.len(), reference_filtered_pairs(&w, 0, 19));
    let summary = aoj_net::last_run_summary().expect("tcp run recorded a summary");
    assert_eq!(summary.spawned as usize, summary.reaped.len());
    for r in &summary.reaped {
        assert_eq!(
            r.exit_code,
            Some(0),
            "worker {} exited abnormally",
            r.machine
        );
    }
}
