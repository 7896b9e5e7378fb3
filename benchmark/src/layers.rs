//! Per-layer replays: the head of a workload's stream driven through
//! each crate's public functions on one thread, one span per call batch.
//!
//! These numbers are diagnostic. They say what a layer costs on this
//! stream *in isolation* (warm caches, no contention, no waiting); the
//! README multiplies them by how often the live session calls the layer
//! and compares the sum with the row's `cpu_us_per_tuple`.

use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoj_core::decision::{Decision, DecisionConfig, MigrationDecider};
use aoj_core::index::ProbeStats;
use aoj_core::lifecycle::{Checkpoint, WindowSpec, WindowTracker};
use aoj_core::mapping::{GridAssignment, Mapping};
use aoj_core::predicate::Predicate;
use aoj_core::sketch::{SkewConfig, SkewRel, SkewSketch};
use aoj_core::ticket::{partition, TicketGen};
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::queries::StreamItem;
use aoj_joinalg::index_for;
use aoj_net::wire::{decode_opmsg, encode_opmsg, BufPool, Dec};
use aoj_operators::batch::{BatchConfig, DataCoalescer};
use aoj_operators::report::MatchDigest;
use aoj_operators::{JoinSession, OpMsg, SkewPolicy, SkewState};
use aoj_runtime::mailbox::{Mailbox, Work};
use aoj_simnet::{MsgClass, SimTime, TaskId};

use crate::metrics::Outcome;
use crate::procfs;
use crate::trace::Tracer;
use crate::workloads::{Spec, J};

/// Tuples per replayed call batch: the data plane's default batch.
const BATCH: usize = 64;
/// A replay stops at the first batch boundary past this much wall time,
/// so a layer that is pathologically slow on some stream (the band index
/// on a wide key space) cannot eat the run. Per-unit numbers divide by
/// the work actually replayed.
const REPLAY_CAP: Duration = Duration::from_secs(2);
/// Eviction cadence and retention of the index-eviction replay.
const EVICT_EVERY: usize = 25_000;
const EVICT_RETAIN: u64 = 100_000;
/// Round trips of the two-thread mailbox ping-pong.
const HANDOFFS: usize = 20_000;

/// Replay `n` units in batches of [`BATCH`], each batch one span named
/// `name`. Returns the units replayed before the time cap.
fn replay(
    tracer: &mut Tracer,
    name: &'static str,
    n: usize,
    mut batch: impl FnMut(&mut Tracer, Range<usize>),
) -> usize {
    let started = Instant::now();
    let mut done = 0;
    while done < n && started.elapsed() < REPLAY_CAP {
        let end = (done + BATCH).min(n);
        tracer.span(name, |t| batch(t, done..end));
        done = end;
    }
    done
}

fn self_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer.summary().get(name).map_or(0.0, |a| a.self_ns as f64)
}

fn per(total: f64, units: f64) -> f64 {
    if units == 0.0 {
        0.0
    } else {
        total / units
    }
}

/// The routed form of the stream head: sequence numbers are arrival
/// indices, tickets drawn like a reshuffler's.
pub fn routed(prefix: &[(Rel, StreamItem)]) -> Vec<Tuple> {
    let mut tickets = TicketGen::new(0x5EED_0001);
    prefix
        .iter()
        .enumerate()
        .map(|(seq, (rel, item))| {
            Tuple::new(*rel, seq as u64, item.key, tickets.next())
                .with_bytes(item.bytes)
                .with_aux(item.aux)
        })
        .collect()
}

/// `aoj-core`: routing, sketching, deciding, window bookkeeping.
pub fn core_layers(out: &mut Outcome, tracer: &mut Tracer, tuples: &[Tuple]) {
    let n = tuples.len();

    // What `ReshufflerTask::route` does per tuple, minus the coalescer.
    let assign = GridAssignment::initial(Mapping::square(J));
    let mp = assign.mapping();
    let mut skew = SkewState::new(SkewPolicy::default(), 0x5A17);
    let mut tickets = TicketGen::new(0x5EED_0001);
    let done = replay(tracer, "core.ticket.route", n, |_, r| {
        for t in &tuples[r] {
            let ticket = skew.ticket(&mut tickets, t.rel, t.key, t.bytes, mp.m);
            match t.rel {
                Rel::R => {
                    let row = partition(ticket, mp.n);
                    for c in 0..mp.m {
                        black_box(assign.machine_at(row, c));
                    }
                }
                Rel::S => {
                    let col = partition(ticket, mp.m);
                    for r in 0..mp.n {
                        black_box(assign.machine_at(r, col));
                    }
                }
            }
        }
    });
    out.push(
        "core.ticket.route_ns_per_tuple",
        per(self_ns(tracer, "core.ticket.route"), done as f64),
    );

    let mut sketch = SkewSketch::new(SkewConfig::default());
    let done = replay(tracer, "core.sketch.observe", n, |_, r| {
        for t in &tuples[r] {
            let rel = if t.rel == Rel::R {
                SkewRel::R
            } else {
                SkewRel::S
            };
            sketch.observe(rel, t.key, t.bytes as u64);
        }
    });
    black_box(sketch.total());
    out.push(
        "core.sketch.observe_ns_per_tuple",
        per(self_ns(tracer, "core.sketch.observe"), done as f64),
    );

    let mut decider = MigrationDecider::new(J, Mapping::square(J), DecisionConfig::default());
    let done = replay(tracer, "core.decision.observe", n, |_, r| {
        for t in &tuples[r] {
            if let Decision::Migrate(to) = decider.observe(t.rel == Rel::R, t.bytes as u64) {
                decider.set_current(to);
            }
        }
    });
    out.push(
        "core.decision.observe_ns_per_tuple",
        per(self_ns(tracer, "core.decision.observe"), done as f64),
    );

    // What a windowed joiner does per stable batch: observe every
    // tuple, then ask for the eviction bound.
    let mut window = WindowTracker::new(WindowSpec::count(EVICT_RETAIN));
    let done = replay(tracer, "core.lifecycle.window", n, |_, r| {
        for t in &tuples[r] {
            black_box(window.observe(t.seq, 0));
        }
        black_box(window.evict_bound());
    });
    out.push(
        "core.lifecycle.window_ns_per_tuple",
        per(self_ns(tracer, "core.lifecycle.window"), done as f64),
    );
}

/// One index replay: probe then insert, run by run, exactly as
/// `process_stream_batch` splits a batch — but with the two halves
/// timed apart.
struct IndexReplay {
    tuples_done: usize,
    probe_ns: f64,
    insert_ns: f64,
    stats: ProbeStats,
    rss_delta: f64,
}

fn index_replay(
    tracer: &mut Tracer,
    predicate: &Predicate,
    tuples: &[Tuple],
    probe_span: &'static str,
    insert_span: &'static str,
    replay_span: &'static str,
) -> IndexReplay {
    let mut idx = index_for(predicate);
    let mut stats = ProbeStats::default();
    // What a joiner does with every match besides counting it.
    let mut digest = MatchDigest::default();
    let rss0 = procfs::rss_bytes();
    let tuples_done = replay(tracer, replay_span, tuples.len(), |tracer, r| {
        let batch = &tuples[r];
        let (mut probing, mut inserting) = (Duration::ZERO, Duration::ZERO);
        let mut start = 0;
        while start < batch.len() {
            let rel = batch[start].rel;
            let len = batch[start..].iter().take_while(|t| t.rel == rel).count();
            let run = &batch[start..start + len];
            let t0 = Instant::now();
            stats += idx.probe_batch(run, &mut |i, stored| {
                let (r, s) = if rel == Rel::R {
                    (run[i].seq, stored.seq)
                } else {
                    (stored.seq, run[i].seq)
                };
                digest.fold(r, s);
            });
            let t1 = Instant::now();
            idx.insert_batch(run);
            probing += t1 - t0;
            inserting += t1.elapsed();
            start += len;
        }
        // A batch of interleaved relations makes dozens of short calls;
        // their summed time becomes one child span per function.
        let end = tracer.now_ns();
        let mid = end - inserting.as_nanos() as u64;
        tracer.record(probe_span, mid - probing.as_nanos() as u64, mid);
        tracer.record(insert_span, mid, end);
    });
    let rss_delta = (procfs::rss_bytes() - rss0).max(0.0);
    black_box(digest);
    IndexReplay {
        tuples_done,
        probe_ns: self_ns(tracer, probe_span),
        insert_ns: self_ns(tracer, insert_span),
        stats,
        rss_delta,
    }
}

/// `aoj-joinalg`: the hash and band indexes.
pub fn joinalg_layers(out: &mut Outcome, tracer: &mut Tracer, tuples: &[Tuple]) {
    let hash = index_replay(
        tracer,
        &Predicate::Equi,
        tuples,
        "joinalg.hash.probe_batch",
        "joinalg.hash.insert_batch",
        "joinalg.hash.replay",
    );
    let n = hash.tuples_done as f64;
    out.push("joinalg.hash.insert_ns_per_tuple", per(hash.insert_ns, n));
    out.push("joinalg.hash.probe_ns_per_tuple", per(hash.probe_ns, n));
    out.push("joinalg.hash.heap_bytes_per_tuple", per(hash.rss_delta, n));

    // The same inserts with the windowed joiner's housekeeping: seal the
    // live segment and drop everything older than the retention bound.
    let mut idx = index_for(&Predicate::Equi);
    let mut evicted = 0u64;
    for chunk in tuples.chunks(EVICT_EVERY) {
        idx.insert_batch(chunk);
        let newest = chunk.last().map_or(0, |t| t.seq);
        evicted += tracer.span("joinalg.hash.evict", |_| {
            idx.seal_segment();
            idx.evict_before(newest.saturating_sub(EVICT_RETAIN)).tuples
        });
    }
    out.push(
        "joinalg.hash.evict_ns_per_tuple",
        per(self_ns(tracer, "joinalg.hash.evict"), evicted as f64),
    );
    drop(idx);

    let band = index_replay(
        tracer,
        &Predicate::Band { width: 2 },
        tuples,
        "joinalg.band.probe_batch",
        "joinalg.band.insert_batch",
        "joinalg.band.replay",
    );
    let n = band.tuples_done as f64;
    let matches = band.stats.matches as f64;
    out.push("joinalg.band.insert_ns_per_tuple", per(band.insert_ns, n));
    out.push("joinalg.band.probe_ns_per_tuple", per(band.probe_ns, n));
    out.push(
        "joinalg.band.probe_ns_per_match",
        per(band.probe_ns, matches),
    );
    out.push(
        "joinalg.band.candidates_per_match",
        per(band.stats.candidates as f64, matches),
    );
}

/// `aoj-operators::batch`: the reshuffler's coalescer, two copies per
/// tuple over four slots like a (2,2) grid.
pub fn coalescer_layer(out: &mut Outcome, tracer: &mut Tracer, tuples: &[Tuple]) {
    let mut coalescer = DataCoalescer::new(BatchConfig::default(), J as usize);
    let done = replay(tracer, "operators.batch.coalesce", tuples.len(), |_, r| {
        for t in &tuples[r] {
            for copy in 0..2 {
                let slot = (t.ticket as usize + copy * 2) % J as usize;
                if coalescer.push(slot, *t, SimTime(t.seq)) {
                    let (batch, arrived) = coalescer.take(slot).expect("a full slot");
                    black_box(batch.len());
                    coalescer.recycle(batch, arrived);
                }
            }
        }
    });
    out.push(
        "operators.batch.coalesce_ns_per_tuple",
        per(self_ns(tracer, "operators.batch.coalesce"), done as f64),
    );
}

fn data_batch(tuples: &[Tuple]) -> OpMsg {
    OpMsg::DataBatch {
        tag: 0,
        store: true,
        tuples: tuples.to_vec(),
        arrived: tuples.iter().map(|t| SimTime(t.seq)).collect(),
    }
}

fn work(msg: OpMsg) -> Work<OpMsg> {
    Work::Msg {
        from: TaskId(0),
        to: TaskId(1),
        msg,
    }
}

/// `aoj-runtime`: one mailbox on one thread, then a two-thread
/// ping-pong for the wake-up cost.
pub fn mailbox_layers(out: &mut Outcome, tracer: &mut Tracer, tuples: &[Tuple]) {
    let done_flag = AtomicBool::new(false);
    let mailbox: Mailbox<OpMsg> = Mailbox::new(1 << 20, 2);
    let batches: Vec<&[Tuple]> = tuples.chunks(BATCH).collect();
    let mut popped = Vec::with_capacity(BATCH);
    let msgs = replay(tracer, "runtime.mailbox.push_pop", batches.len(), |_, r| {
        for b in &batches[r.clone()] {
            mailbox.push_msg(
                MsgClass::Data,
                work(data_batch(b)),
                b.len() as u64,
                false,
                &done_flag,
            );
        }
        let mut left = r.len();
        while left > 0 {
            assert!(mailbox.pop_batch(BATCH, &mut popped, || 0, &done_flag));
            left -= popped.len();
            popped.clear();
        }
    });
    // The span covers building the message too; that is what a sender
    // pays, and it is the same on every commit.
    out.push(
        "runtime.mailbox.push_pop_ns_per_msg",
        per(self_ns(tracer, "runtime.mailbox.push_pop"), msgs as f64),
    );

    let ping: Arc<Mailbox<OpMsg>> = Arc::new(Mailbox::new(64, 2));
    let pong: Arc<Mailbox<OpMsg>> = Arc::new(Mailbox::new(64, 2));
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let (ping, pong, stop) = (Arc::clone(&ping), Arc::clone(&pong), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut got = Vec::with_capacity(1);
            while ping.pop_batch(1, &mut got, || 0, &stop) {
                for w in got.drain(..) {
                    pong.push_msg(MsgClass::Data, w, 1, false, &stop);
                }
            }
        })
    };
    let mut got = Vec::with_capacity(1);
    tracer.span("runtime.mailbox.handoff", |_| {
        for _ in 0..HANDOFFS {
            ping.push_msg(MsgClass::Data, work(OpMsg::MigDone), 1, false, &stop);
            assert!(pong.pop_batch(1, &mut got, || 0, &stop));
            got.clear();
        }
    });
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    ping.wake_all();
    echo.join().expect("mailbox echo thread panicked");
    // One round trip is two handoffs.
    out.push(
        "runtime.mailbox.handoff_us",
        self_ns(tracer, "runtime.mailbox.handoff") / 1e3 / (2 * HANDOFFS) as f64,
    );
}

/// `aoj-net::wire`: the codec on 64-tuple data batches with pooled
/// buffers.
pub fn wire_layers(out: &mut Outcome, tracer: &mut Tracer, tuples: &[Tuple]) {
    let msgs: Vec<OpMsg> = tuples.chunks(BATCH).map(data_batch).collect();
    let pool = BufPool::new();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(msgs.len());
    let encoded = replay(tracer, "net.wire.encode", msgs.len(), |_, r| {
        for m in &msgs[r] {
            let mut buf = pool.get();
            encode_opmsg(m, &mut buf);
            frames.push(buf);
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let decoded = replay(tracer, "net.wire.decode", frames.len(), |_, r| {
        for f in &frames[r] {
            black_box(decode_opmsg(&mut Dec::new(f)).expect("own frame decodes"));
        }
    });
    let tuples_in = |msgs: usize| (msgs * BATCH).min(tuples.len()) as f64;
    out.push(
        "net.wire.encode_ns_per_tuple",
        per(self_ns(tracer, "net.wire.encode"), tuples_in(encoded)),
    );
    out.push(
        "net.wire.decode_ns_per_tuple",
        per(self_ns(tracer, "net.wire.decode"), tuples_in(decoded)),
    );
    out.push(
        "net.wire.bytes_per_tuple",
        per(bytes as f64, tuples_in(encoded)),
    );
    for f in frames {
        pool.put(f);
    }
}

/// `aoj-core::lifecycle` checkpoints: snapshot a threaded session that
/// holds the stream head, then time the codec on the snapshot.
pub fn checkpoint_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    spec: &Spec,
    prefix: &[(Rel, StreamItem)],
    scratch: &std::path::Path,
) {
    let path = scratch.join("layer.ckpt");
    let mut session = JoinSession::open(
        spec.builder()
            .with_backend(aoj_operators::BackendChoice::Threaded),
    );
    session
        .push_batch(prefix.iter().copied())
        .expect("checkpoint replay push refused");
    tracer
        .span("core.lifecycle.session_checkpoint", |_| {
            session.checkpoint(&path)
        })
        .expect("checkpoint failed");
    let ckpt = tracer
        .span("core.lifecycle.ckpt_read", |_| Checkpoint::read_from(&path))
        .expect("checkpoint unreadable");
    let bytes = tracer.span("core.lifecycle.ckpt_encode", |_| ckpt.to_bytes());
    let back = tracer
        .span("core.lifecycle.ckpt_decode", |_| {
            Checkpoint::from_bytes(&bytes)
        })
        .expect("checkpoint bytes do not decode");
    assert!(back == ckpt, "checkpoint did not survive its own codec");
    out.push(
        "core.lifecycle.ckpt_encode_ms",
        self_ns(tracer, "core.lifecycle.ckpt_encode") / 1e6,
    );
    out.push(
        "core.lifecycle.ckpt_decode_ms",
        self_ns(tracer, "core.lifecycle.ckpt_decode") / 1e6,
    );
    out.push(
        "core.lifecycle.ckpt_bytes_per_tuple",
        per(bytes.len() as f64, prefix.len() as f64),
    );
}
