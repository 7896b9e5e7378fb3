//! Live session: the operator open for business while data arrives.
//!
//! A producer thread pushes a skewed equi-join stream into a running
//! `JoinSession` on the threaded backend; the main thread watches live
//! gauges; a subscriber thread prints matches **as they are emitted** —
//! long before the last tuple is pushed — while the elastic controller
//! expands the cluster ×4 mid-session as stored state crosses the
//! capacity trigger.
//!
//! ```text
//! cargo run --release --example live_session
//! ```

use std::time::{Duration, Instant};

use adaptive_online_joins::core::Predicate;
use adaptive_online_joins::datagen::queries::{StreamItem, Workload};
use adaptive_online_joins::datagen::stream::interleave;
use adaptive_online_joins::operators::{
    human_bytes, BackendChoice, ElasticConfig, JoinSession, OperatorKind, SessionBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A workload big enough to cross the elastic capacity trigger: every
    // joiner blows past 32 KB of stored state mid-stream, so the J=2
    // cluster must expand ×4 to J=8 while the session is live.
    let seed = 0xE1A_2014;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |space: i64| StreamItem {
        key: rng.gen_range(0..space),
        aux: 0,
        bytes: 64,
    };
    let workload = Workload {
        name: "live",
        predicate: Predicate::Equi,
        r_items: (0..400).map(|_| item(300)).collect(),
        s_items: (0..4_000).map(|_| item(300)).collect(),
    };
    let arrivals = interleave(&workload, seed);
    let total = arrivals.len();

    // 1. Open a session: 2 joiners on the threaded runtime, elasticity
    //    armed for one ×4 expansion.
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(workload.predicate.clone())
        .with_workload(workload.name)
        .with_seed(seed)
        .with_backend(BackendChoice::Threaded)
        .with_elastic(ElasticConfig::new(64 << 10, 1));
    let mut session = JoinSession::open(builder);
    println!("session open: J=2 joiners, elastic ×4 armed at 64KB capacity\n");

    // 2. Subscribe before pushing, then stream matches from a consumer
    //    thread as the joiners emit them.
    let sub = session.subscribe();
    let subscriber = std::thread::spawn(move || {
        let mut count = 0u64;
        let mut first_match_at: Option<Instant> = None;
        for m in sub {
            count += 1;
            first_match_at.get_or_insert_with(Instant::now);
            if count <= 5 {
                println!(
                    "  match #{count}: R[seq {}] ⋈ S[seq {}] on key {}",
                    m.r_seq, m.s_seq, m.r_key
                );
            } else if count == 6 {
                println!("  … (streaming)");
            }
        }
        (count, first_match_at)
    });

    // 3. Push from a producer thread — a live feed, not a pre-loaded
    //    slice. Backpressure is the session's admission control: push
    //    blocks while the operator's flow-control window is closed.
    let ingest = session.ingest();
    let producer = std::thread::spawn(move || {
        for chunk in arrivals.chunks(256) {
            ingest.push_batch(chunk.iter().copied()).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        Instant::now() // when the last tuple was pushed
    });

    // 4. Meanwhile: live gauges from the caller thread — what each
    //    joiner actually stores as the controller's estimate drives the
    //    expansion.
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let stats = session.stats();
        println!(
            "[stats] pushed {:>5}/{total}  queued {:>4}  matches {:>6}  max ILF {:>8}",
            stats.pushed_tuples,
            stats.queued_tuples,
            stats.matches,
            human_bytes(stats.max_stored_bytes()),
        );
        if stats.pushed_tuples == total as u64 && stats.queued_tuples == 0 {
            break;
        }
    }
    let push_done_at = producer.join().unwrap();

    // 5. Close: drain, finalize, report.
    let report = session.close();
    let (streamed, first_match_at) = subscriber.join().unwrap();

    println!("\n{}", report.wallclock_summary());
    println!(
        "expansions: {} (J {} → {}), peak provisioned machines: {}",
        report.expansions,
        report.j,
        report.final_mapping.j(),
        report.peak_provisioned_machines
    );
    assert!(
        report.expansions >= 1,
        "the elastic expansion should have fired mid-session"
    );
    let first = first_match_at.expect("no matches streamed");
    assert!(
        first < push_done_at,
        "matches must arrive before the last tuple is pushed"
    );
    assert_eq!(streamed, report.matches, "subscription lost matches");
    println!(
        "\nThe subscriber had its first match {}ms before the producer finished\n\
         pushing, and streamed all {} matches — the operator served live traffic\n\
         while expanding from {} to {} machines.",
        (push_done_at - first).as_millis(),
        streamed,
        report.j,
        report.final_mapping.j()
    );
}
