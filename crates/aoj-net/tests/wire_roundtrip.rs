//! Property tests for the aoj-net wire format. One generic helper,
//! [`roundtrip`], states the codec contract for any [`Wire`] type, and
//! every frame type on the wire is fed through it: all 14 [`OpMsg`]
//! variants across batch shapes, task messages, match batches, the
//! session plan, each control frame, and the finals bundle.
//!
//! `OpMsg` derives no `PartialEq` (it carries floats nowhere, but
//! assignment tables and specs make a derive unattractive), so the helper
//! checks equality on the canonical re-encoded bytes — which is also the
//! stronger property: the codec must be a bijection on its own image.
//! Types that do have `PartialEq` additionally compare the decoded value.

use std::io::ErrorKind;

use aoj_core::competitive::RatioSample;
use aoj_core::decision::DeciderSnapshot;
use aoj_core::elastic::{ContractRole, ElasticLayout, ExpandSpec};
use aoj_core::epoch::{Reconfig, Role};
use aoj_core::lifecycle::{JoinerCheckpoint, TickSource, WindowMode, WindowSpec};
use aoj_core::mapping::{GridAssignment, GridPos, Mapping, Step};
use aoj_core::migration::MachineStepSpec;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_net::wire::{
    append_frame, read_frame, Exiting, FinalsBundle, GaugeSample, Hello, MachineUp, MatchTap, Plan,
    Preamble, ProbeAck, Ready, RetireReq, TaskMsg, Wire, K_FINALS, K_GAUGES, K_SHUTDOWN,
    K_TASK_MSG,
};
use aoj_operators::joiner_task::{JoinerCounters, JoinerFinal, LatencyStats};
use aoj_operators::messages::{IngestItem, Match, OpMsg};
use aoj_operators::report::{ControllerFinal, Finals, MatchDigest, Resume};
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::{BackendChoice, ElasticConfig, KeyFilter, OperatorKind, SessionBuilder};
use aoj_simnet::{FlushCause, FlushCounts, Gauge, MachineMetrics, SimDuration, SimTime, TaskId};
use proptest::prelude::*;

/// The codec contract for one value of any [`Wire`] type; returns the
/// decoded copy so callers with `PartialEq` can compare values too.
///
/// * encode → decode → re-encode is the identity on bytes, and the
///   decoder consumes the payload exactly ([`Wire::from_bytes`] rejects
///   trailing bytes);
/// * every strict prefix of the encoding is an error — never a panic,
///   never a fabricated value;
/// * no value encodes shorter than the type's [`Wire::MIN_LEN`], the
///   bound list decoding sizes its allocations by;
/// * encoding into a dirty reused buffer — after content, or cleared as
///   the `BufPool` check-out discipline does — is byte-identical to a
///   fresh allocation: no encoder may read, skip over, or depend on what
///   a buffer held before (what makes the pooled hot path safe);
/// * [`append_frame`]'s in-place framing is `[len][kind]` + those bytes.
fn roundtrip<T: Wire>(v: &T) -> T {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes).expect("own encoding decodes");
    assert_eq!(back.to_bytes(), bytes, "re-encoding differs");
    assert!(bytes.len() >= T::MIN_LEN, "encoding shorter than MIN_LEN");
    for cut in 0..bytes.len() {
        let err = T::from_bytes(&bytes[..cut])
            .err()
            .expect("strict prefix decoded");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
    let mut dirty = vec![0xAA; 37];
    v.encode_into(&mut dirty);
    assert_eq!(&dirty[..37], &[0xAA; 37], "encoder touched earlier bytes");
    assert_eq!(&dirty[37..], &bytes[..]);
    dirty.clear();
    v.encode_into(&mut dirty);
    assert_eq!(dirty, bytes);
    let mut framed = vec![0xBB];
    append_frame(&mut framed, K_TASK_MSG, v);
    let (kind, payload) = read_frame(&mut &framed[1..]).expect("appended frame reads back");
    assert_eq!((kind, payload), (K_TASK_MSG, bytes));
    back
}

/// [`roundtrip`], plus value equality.
fn roundtrip_eq<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    assert_eq!(&roundtrip(v), v);
}

fn rel() -> impl Strategy<Value = Rel> {
    prop_oneof![Just(Rel::R), Just(Rel::S)]
}

fn ingest_item() -> impl Strategy<Value = IngestItem> {
    (
        rel(),
        any::<i64>(),
        any::<i32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(rel, key, aux, bytes, seq)| IngestItem {
            rel,
            key,
            aux,
            bytes,
            seq,
        })
}

fn tuple() -> impl Strategy<Value = Tuple> {
    (
        any::<u64>(),
        rel(),
        any::<i64>(),
        any::<i32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(seq, rel, key, aux, bytes, ticket)| Tuple {
            seq,
            rel,
            key,
            aux,
            bytes,
            ticket,
        })
}

fn grid_pos() -> impl Strategy<Value = GridPos> {
    (0u32..64, 0u32..64).prop_map(|(row, col)| GridPos { row, col })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![Just(Step::HalveRows), Just(Step::HalveCols)]
}

fn mapping() -> impl Strategy<Value = Mapping> {
    (0u32..4, 0u32..4).prop_map(|(en, em)| Mapping::new(1 << en, 1 << em))
}

/// An assignment at a proptest-chosen mapping; the canonical layout is
/// enough for codec coverage (the codec ships the raw tables either way).
fn assignment() -> impl Strategy<Value = GridAssignment> {
    mapping().prop_map(GridAssignment::initial)
}

fn machine_step_spec() -> impl Strategy<Value = MachineStepSpec> {
    (
        0usize..256,
        grid_pos(),
        grid_pos(),
        0usize..256,
        rel(),
        0u32..2,
        0u32..6,
    )
        .prop_map(
            |(machine, old_pos, new_pos, partner, exchange_rel, keep_bit, parts_exp)| {
                MachineStepSpec {
                    machine,
                    old_pos,
                    new_pos,
                    partner,
                    exchange_rel,
                    refine_rel: exchange_rel.other(),
                    keep_bit,
                    refine_parts_before: 1 << parts_exp,
                }
            },
        )
}

fn expand_spec() -> impl Strategy<Value = ExpandSpec> {
    (
        0usize..256,
        grid_pos(),
        (0usize..256, 0usize..256, 0usize..256).prop_map(|(a, b, c)| [a, b, c]),
        0u32..6,
        0u32..6,
    )
        .prop_map(|(machine, old_pos, children, ne, me)| ExpandSpec {
            machine,
            old_pos,
            children,
            n_before: 1 << ne,
            m_before: 1 << me,
        })
}

fn reconfig() -> impl Strategy<Value = Reconfig> {
    prop_oneof![
        step().prop_map(Reconfig::Step),
        Just(Reconfig::Expand),
        Just(Reconfig::Contract)
    ]
}

fn role() -> impl Strategy<Value = Role> {
    let retire = (
        0usize..256,
        prop_oneof![Just(None), Just(Some(Rel::R)), Just(Some(Rel::S))],
    )
        .prop_map(|(survivor, forward_rel)| ContractRole::Retire {
            survivor,
            forward_rel,
        });
    prop_oneof![
        machine_step_spec().prop_map(Role::Step),
        expand_spec().prop_map(Role::Expand),
        Just(Role::Contract(ContractRole::Survive)),
        retire.prop_map(Role::Contract),
    ]
}

fn elastic_layout() -> impl Strategy<Value = ElasticLayout> {
    (0usize..64, proptest::collection::vec(0usize..64, 0..8))
        .prop_map(|(next_fresh, dormant)| ElasticLayout::from_parts(next_fresh, dormant))
}

fn task_ids() -> impl Strategy<Value = Vec<TaskId>> {
    proptest::collection::vec((0usize..1024).prop_map(TaskId), 0..12)
}

/// Every variant, with container sizes spanning empty / one / many so
/// batch-shape edge cases (zero-length vectors, length prefixes) are hit.
fn opmsg() -> impl Strategy<Value = OpMsg> {
    let items = || proptest::collection::vec(ingest_item(), 0..20);
    let tuples = proptest::collection::vec(tuple(), 0..20);
    let data_batch = (
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec((tuple(), any::<u64>()), 0..20),
    )
        .prop_map(|(tag, store, rows)| {
            let (tuples, arrived): (Vec<_>, Vec<_>) =
                rows.into_iter().map(|(t, at)| (t, SimTime(at))).unzip();
            OpMsg::DataBatch {
                tag,
                store,
                tuples,
                arrived,
            }
        });
    prop_oneof![
        (
            items(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(items, stamped, seq, r, s)| OpMsg::IngestBatch {
                items,
                stamp: stamped.then_some((seq, r, s)),
            }),
        items().prop_map(|items| OpMsg::IngestBounced { items }),
        data_batch,
        (any::<u32>(), reconfig()).prop_map(|(new_epoch, kind)| OpMsg::Change { new_epoch, kind }),
        any::<u32>().prop_map(|epoch| OpMsg::MigrationComplete { epoch }),
        (0usize..256, any::<u32>(), any::<u32>(), role()).prop_map(
            |(from_reshuffler, new_epoch, expected_signals, role)| OpMsg::Signal {
                from_reshuffler,
                new_epoch,
                expected_signals,
                role,
            }
        ),
        (any::<u32>(), assignment(), elastic_layout()).prop_map(|(epoch, assign, layout)| {
            OpMsg::Activate {
                epoch,
                assign,
                layout,
            }
        }),
        any::<u32>().prop_map(|epoch| OpMsg::ExpandDone { epoch }),
        task_ids().prop_map(|reshufflers| OpMsg::SourceResize { reshufflers }),
        tuples.prop_map(|tuples| OpMsg::MigBatch { tuples }),
        Just(OpMsg::MigDone),
        (0usize..256, any::<u32>()).prop_map(|(joiner, epoch)| OpMsg::Ack { joiner, epoch }),
        (any::<u32>(), any::<u32>()).prop_map(|(n, tuples)| OpMsg::RoutedCopies { n, tuples }),
        any::<u32>().prop_map(|n| OpMsg::ProcessedCopies { n }),
    ]
}

fn match_val() -> impl Strategy<Value = Match> {
    (any::<u64>(), any::<u64>(), any::<i64>(), any::<i64>()).prop_map(
        |(r_seq, s_seq, r_key, s_key)| Match {
            r_seq,
            s_seq,
            r_key,
            s_key,
        },
    )
}

fn key_filter() -> impl Strategy<Value = KeyFilter> {
    prop_oneof![
        Just(KeyFilter::All),
        (any::<i64>(), any::<i64>()).prop_map(|(lo, hi)| KeyFilter::Range { lo, hi }),
    ]
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn words(max: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..max)
}

fn control_event() -> impl Strategy<Value = ControlEvent> {
    let begun = (
        reconfig(),
        any::<u64>(),
        any::<u64>(),
        mapping(),
        mapping(),
        any::<u32>(),
    );
    prop_oneof![
        begun.prop_map(|(kind, seq, at, from, to, epoch)| ControlEvent::Begin {
            kind,
            seq,
            at: SimTime(at),
            from,
            to,
            epoch,
        }),
        (reconfig(), any::<u64>(), any::<u32>()).prop_map(|(kind, at, epoch)| {
            ControlEvent::Complete {
                kind,
                at: SimTime(at),
                epoch,
            }
        }),
    ]
}

fn latency() -> impl Strategy<Value = LatencyStats> {
    words(40).prop_map(|samples| {
        let mut l = LatencyStats::default();
        samples.into_iter().for_each(|us| l.record(us >> 20));
        l
    })
}

/// A joiner's checkpointed state: what a snapshotting shutdown adds to
/// its final.
fn joiner_checkpoint() -> impl Strategy<Value = JoinerCheckpoint> {
    (
        0usize..1024,
        words(4),
        proptest::collection::vec(tuple(), 0..6),
    )
        .prop_map(|(machine, w, tuples)| {
            let w = |i: usize| w.get(i).copied().unwrap_or(0);
            JoinerCheckpoint {
                machine,
                evicted_tuples: w(0),
                evicted_bytes: w(1),
                latest_seq: w(2),
                latest_tick: w(3),
                tuples,
            }
        })
}

/// With and without `state`: a bare close ships `None`, a checkpointing
/// one the joiner's τ.
fn joiner_final() -> impl Strategy<Value = JoinerFinal> {
    (
        0usize..1024,
        any::<u64>(),
        latency(),
        words(10),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            prop_oneof![Just(None), joiner_checkpoint().prop_map(Some)],
        ),
    )
        .prop_map(
            |(slot, matches, latency, c, match_log, ((count, sum, xor), state))| {
                let c = |i: usize| c.get(i).copied().unwrap_or(0);
                JoinerFinal {
                    slot,
                    matches,
                    latency,
                    counters: JoinerCounters {
                        migration_tuples_in: c(0),
                        migration_bytes_in: c(1),
                        expand_stored_tuples: c(2),
                        expand_sent_tuples: c(3),
                        contract_stored_tuples: c(4),
                        contract_sent_tuples: c(5),
                        retirements: c(6),
                        evicted_tuples: c(7),
                        evicted_bytes: c(8),
                    },
                    match_log,
                    match_digest: MatchDigest { count, sum, xor },
                    state,
                }
            },
        )
}

fn controller_final() -> impl Strategy<Value = ControllerFinal> {
    let sample = (any::<u64>(), any::<u64>(), any::<u64>(), mapping()).prop_map(
        |(tuples, r, s, mapping)| RatioSample {
            tuples,
            r,
            s,
            mapping,
        },
    );
    let resume = (
        any::<u32>(),
        elastic_layout(),
        prop_oneof![Just(None), (any::<u32>(), any::<u32>()).prop_map(Some)],
        words(6),
    )
        .prop_map(|(epoch, layout, elastic, w)| {
            let w = |i: usize| w.get(i).copied().unwrap_or(0);
            Resume {
                epoch,
                layout,
                elastic,
                decider: DeciderSnapshot {
                    r: w(0),
                    s: w(1),
                    dr: w(2),
                    ds: w(3),
                    decisions: w(4),
                    migrations: w(5),
                },
            }
        });
    (
        assignment(),
        proptest::collection::vec(control_event(), 0..6),
        proptest::collection::vec(sample, 0..6),
        prop_oneof![Just(None), resume.prop_map(Some)],
    )
        .prop_map(|(assign, events, trace, resume)| ControllerFinal {
            assign,
            events,
            trace,
            resume,
        })
}

fn machine_metrics() -> impl Strategy<Value = MachineMetrics> {
    words(19).prop_map(|w| {
        let w = |i: usize| w.get(i).copied().unwrap_or(0);
        MachineMetrics {
            messages_in: w(0),
            messages_out: w(1),
            bytes_in: w(2),
            bytes_out: w(3),
            busy: SimDuration::from_micros(w(4)),
            gauges: Gauge::ALL.map(|g| w(5 + g as usize)),
            peak_stored_bytes: w(9),
            spilled_bytes: w(10),
            flushes: FlushCounts {
                batches: [w(11), w(12), w(13), w(17)],
                tuples: [w(14), w(15), w(16), w(18)],
            },
        }
    })
}

fn finals_bundle() -> impl Strategy<Value = FinalsBundle> {
    (
        (any::<u64>(), any::<u32>()),
        proptest::collection::vec(joiner_final(), 0..3),
        prop_oneof![Just(None), controller_final().prop_map(Some)],
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(machine_metrics(), 0..5),
    )
        .prop_map(
            |((machine, gen), joiners, controller, (events, at, data_processed), machines)| {
                FinalsBundle {
                    machine,
                    gen,
                    finals: Finals {
                        joiners,
                        controller,
                    },
                    events,
                    last_event_at: SimTime(at),
                    data_processed,
                    machines,
                }
            },
        )
}

proptest! {
    #[test]
    fn opmsg_roundtrip(msg in opmsg()) {
        roundtrip(&msg);
    }

    /// The full task-message payload (from, to, msg).
    #[test]
    fn task_msg_roundtrip(from in 0usize..4096, to in 0usize..4096, msg in opmsg()) {
        let (f2, t2, _): TaskMsg = roundtrip(&(TaskId(from), TaskId(to), msg));
        prop_assert_eq!((f2, t2), (TaskId(from), TaskId(to)));
    }

    #[test]
    fn match_batch_roundtrip(ms in proptest::collection::vec(match_val(), 0..64)) {
        roundtrip_eq(&ms);
    }

    #[test]
    fn handshake_frames_roundtrip(
        ids in (any::<u8>(), any::<u64>(), any::<u32>(), any::<u16>()),
        plan in (any::<u64>(), any::<u64>(), bytes(300), bytes(300)),
    ) {
        let (version, machine, gen, port) = ids;
        let (fingerprint, anchor, builder, restore) = plan;
        roundtrip_eq(&Hello { version, machine, gen });
        roundtrip_eq(&Plan {
            version,
            fingerprint,
            machines: machine,
            source_machine: anchor,
            clock_anchor_us: anchor,
            builder,
            restore,
        });
        roundtrip_eq(&Ready { machine, gen, fingerprint, data_port: port });
        roundtrip_eq(&MachineUp { machine, gen, port });
        roundtrip_eq(&Preamble { from_machine: machine, gen });
    }

    #[test]
    fn control_frames_roundtrip(
        nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        gauges in words(Gauge::COUNT + 1),
        gen in any::<u32>(),
        on in any::<bool>(),
        skew_parts in words(24),
        filters in proptest::collection::vec(key_filter(), 0..5),
    ) {
        let (a, b, c, d, e) = nums;
        roundtrip_eq(&a); // K_PROBE, K_PROVISION_REQ, K_FLUSH_SENT
        roundtrip_eq(&()); // K_RETIRE_NOW, K_EOS, K_FLUSHED
        roundtrip_eq(&(a, gen)); // K_FLUSH
        roundtrip_eq(&ProbeAck { nonce: a, created: b, finished: c });
        roundtrip_eq(&RetireReq { machine: a, gen });
        // K_GAUGES.
        roundtrip_eq(&GaugeSample {
            machine: a,
            gauges: Gauge::ALL.map(|g| gauges.get(g as usize).copied().unwrap_or(0)),
            data_processed: d ^ e,
            skew_parts,
        });
        roundtrip_eq(&Exiting { machine: a, gen, created: b, finished: c });
        roundtrip_eq(&MatchTap { on, filters });
    }

    #[test]
    fn finals_bundle_roundtrip(bundle in finals_bundle()) {
        roundtrip(&bundle);
    }

    #[test]
    fn joiner_final_roundtrip_with_and_without_state(f in joiner_final()) {
        roundtrip_eq(&f);
    }
}

/// A slot retired by a contraction and re-provisioned later reports as
/// two processes: the retired incarnation ships no state, the one alive
/// at the checkpointing shutdown ships the slot's. The merge sums the
/// counters and keeps the state, whichever bundle arrives first.
#[test]
fn finals_merge_keeps_the_live_incarnations_state() {
    let golden = golden_finals_bundle(true).finals;
    let live = golden.joiners[0].clone();
    assert!(live.state.is_some());
    let retired = JoinerFinal {
        state: None,
        ..live.clone()
    };
    for (first, second) in [(&retired, &live), (&live, &retired)] {
        let mut finals = Finals::default();
        for f in [first, second] {
            finals.merge(Finals {
                joiners: vec![f.clone()],
                controller: None,
            });
        }
        assert_eq!(finals.joiners.len(), 1);
        assert_eq!(finals.joiners[0].matches, 2 * live.matches);
        assert_eq!(finals.joiners[0].state, live.state);
    }
}

/// A builder with every optional section populated and no field left at
/// a value its neighbour also holds.
fn full_builder() -> SessionBuilder {
    let mut b = SessionBuilder::new(4, OperatorKind::StaticOpt)
        .with_seed(0xF00D_2014)
        .with_workload("golden")
        .with_backend(BackendChoice::Tcp);
    b.predicate = Predicate::Band { width: 3 };
    b.oracle_mapping = Some(Mapping::new(1, 4));
    b.source.window_copies = Some(256);
    b.source.queue_tuples = 4096;
    b.data_plane.batch_tuples = 16;
    b.elasticity.elastic = Some(ElasticConfig::new(64 << 10, 2));
    b.elasticity.blocking_migrations = true;
    b.lifecycle.window = Some(WindowSpec {
        mode: WindowMode::Time,
        span: 1000,
        sub_windows: 4,
        ticks: TickSource::AuxEventTime,
    });
    b.backend.collect_matches = true;
    b
}

/// The session plan (a full `SessionBuilder`) survives the wire, and so
/// does the default one (every `Option` section absent).
#[test]
fn builder_roundtrip() {
    roundtrip(&full_builder());
    roundtrip(&SessionBuilder::new(2, OperatorKind::Dynamic).with_count_window(5_000));
}

/// `MIN_LEN` is the sum of the field table (an enum's: tag + shortest
/// variant) — the per-element sizes list decoding used to be handed as
/// hand-added literals.
#[test]
fn min_len_is_derived_from_the_field_table() {
    assert_eq!(Tuple::MIN_LEN, 33);
    assert_eq!(IngestItem::MIN_LEN, 25);
    assert_eq!(Match::MIN_LEN, 32);
    assert_eq!(<(u64, u32)>::MIN_LEN, 12);
    assert_eq!(
        MachineMetrics::MIN_LEN,
        56 + 8 * Gauge::COUNT + 16 * FlushCause::COUNT
    );
    // The shorter variant: tag, kind tag, `at`, `epoch`.
    assert_eq!(ControlEvent::MIN_LEN, 1 + 1 + 8 + 4);
    assert_eq!(Reconfig::MIN_LEN, 1);
    // A survivor's role: role tag, contract-role tag.
    assert_eq!(Role::MIN_LEN, 2);
    assert_eq!(KeyFilter::MIN_LEN, 1);
    assert_eq!(OpMsg::MIN_LEN, 1);
}

// ---------------------------------------------------------------------------
// Strict decode of input that arrives from another process. Each image
// below was accepted (or mis-sized) by the hand-written decoders.

fn assert_invalid<T: Wire>(bytes: &[u8]) {
    let err = T::from_bytes(bytes).err().expect("malformed image decoded");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

/// A window-mode (or tick-source) byte other than 0/1 used to fall
/// through to the default variant.
#[test]
fn builder_with_unknown_window_mode_is_rejected() {
    let mut count = full_builder();
    count.lifecycle.window.as_mut().unwrap().mode = WindowMode::Count;
    let (time, count) = (full_builder().to_bytes(), count.to_bytes());
    let differing: Vec<usize> = (0..time.len()).filter(|&i| time[i] != count[i]).collect();
    let [mode_at] = differing[..] else {
        panic!("window mode is one byte, found {differing:?}");
    };
    let mut image = time;
    assert_eq!(image[mode_at], 1);
    image[mode_at] = 2;
    assert_invalid::<SessionBuilder>(&image);
}

/// Any non-zero `on` byte used to read as `true`.
#[test]
fn match_tap_with_non_boolean_on_is_rejected() {
    let mut image = MatchTap {
        on: true,
        filters: vec![KeyFilter::key(7)],
    }
    .to_bytes();
    assert_eq!(image[0], 1);
    image[0] = 7;
    assert_invalid::<MatchTap>(&image);
    // And an unknown filter tag, which was already an error.
    let mut image = MatchTap {
        on: true,
        filters: vec![KeyFilter::All],
    }
    .to_bytes();
    *image.last_mut().unwrap() = 9;
    assert_invalid::<MatchTap>(&image);
}

/// The sketch word count used to be a `u64` capped ad hoc; it is now the
/// same checked `u32` as every other list, rejected before allocating.
#[test]
fn gauge_sample_count_exceeding_payload_is_rejected() {
    let image = golden_gauge_sample().to_bytes();
    let count_at = (2 + Gauge::COUNT) * 8;
    assert_eq!(image.len(), count_at + 4 + 2 * 8);
    for count in [3u32, u32::MAX] {
        let mut image = image.clone();
        image[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        assert_invalid::<GaugeSample>(&image);
    }
    // A DataBatch whose two lists disagree is well-formed list by list
    // and still rejected (joiners index `arrived` by tuple position).
    let batch = OpMsg::DataBatch {
        tag: 1,
        store: true,
        tuples: vec![Tuple::new(Rel::R, 1, 2, 3)],
        arrived: vec![],
    };
    assert_invalid::<OpMsg>(&batch.to_bytes());
}

// ---------------------------------------------------------------------------
// Golden bytes: the hand-written encoders' output (PR 14's parent) for
// one instance of every `OpMsg` variant (in tag order) and for
// `full_builder`, so "data-plane and plan bytes unchanged" is checked, not
// asserted. `WIRE_VERSION` 8 re-pinned the control rows only: the three
// change broadcasts became `Change` (tag 3 — one instance per `Reconfig`
// kind), the three signals `Signal` (tag 5 — one instance per `Role`
// kind; the role's tag byte now precedes the spec, and a retiree's
// forward relation is an ordinary `Option<Rel>`), the source's grow and
// shrink messages became `SourceResize` (tag 12); tags 6–9 and 13 are
// holes, and every other row kept its tag and its bytes. The builder
// image was re-pinned three times. `WIRE_VERSION` 6:
// `SourceSection::window_copies` became `Option<u64>` (unset = derive the
// window from the batch size), which inserts the one `01` presence byte
// ahead of the window's eight. `WIRE_VERSION` 7: `SourceSection` lost
// `idle_poll_us` (one value was ever in use; the constant that replaced
// it is gone too: the source parks), which removes the eight bytes `c8 00…` after
// the queue capacity. `WIRE_VERSION` 10: `ElasticConfig` and `SkewPolicy`
// each lost the ratio that armed a skew discount (off in every caller;
// two `f64` rows, the eight zero bytes after `drain_driven` and the `2.5`
// ahead of `publish_every`); no other pinned image moved. `WIRE_VERSION`
// 11: `SkewConfig` lost the t-digest's centroid limit (the `80 00…` word
// after the sketch's key count) and `SkewPolicy` lost `publish_every`,
// now a constant (the `00 10…` word after `min_total`); the gauge frame's
// sketch words are opaque to the codec, so `GOLDEN_GAUGES` did not move.
// `WIRE_VERSION` 13: `SessionBuilder` lost its `skew` section (random
// routing is the only placement, and no caller ever set the sketch's
// configuration), which removes the builder's last 25 bytes: the
// routing-mode tag `02` and the `SkewConfig` words `40 00…`, `01 00…`,
// `14 00…` and `00 00 01 00…`. No other pinned image moved.
// `WIRE_VERSION` 16: `ElasticConfig` lost `drain_driven` (a window arms
// the contraction on its own), which removes the `00` byte after the
// hold-off's eight zero bytes; the control frames lost `K_GAUGE_RELAY`
// (tag 13), which had no image of its own. No other pinned image moved.
// `WIRE_VERSION` 17: `IngestBatch` carries the source's `ILF/ILF*` trace
// stamp, an `Option<(u64, u64, u64)>` after the items (the pinned one is
// `01` then `0c 00…`, `01 00…`, `01 00…`), and `BackendSection` lost
// `track_competitive` (the trace is always on), which removes the `00`
// byte after `match_buffer`'s `e8 03…` word.
//
// The same bump covers the two control-plane frames pinned below them:
// [`GaugeSample`] is one word per [`Gauge`] (the `Matches` word is new)
// and [`FinalsBundle`] carries the operators' own `Finals`. Adding a row
// to either table changes these bytes: bump `WIRE_VERSION` with it.
// `WIRE_VERSION` 8 re-pinned the finals frame: the `ControlEvent` it
// embeds now names its `Reconfig` kind (one more byte after the tag).
// `WIRE_VERSION` 14 re-pinned it again: `FlushCounts` gained the `Idle`
// cause, one more word at the end of each of its two rows (the `2a 00…`
// after the batches' `09 00…` and the `2b 00…` after the tuples'
// `0c 00…`), and the frame's length prefix grew by those 16 bytes.
// `WIRE_VERSION` 17 re-pinned both finals frames: `ControllerFinal` ships
// the priced `ILF/ILF*` trace (`RatioSample`: tuples, |R|, |S|, mapping)
// where it shipped progress samples; the row is 32 bytes as before.

fn golden_opmsgs() -> Vec<OpMsg> {
    let pos = |row, col| GridPos { row, col };
    let item = |i: u64| IngestItem {
        rel: if i.is_multiple_of(2) { Rel::R } else { Rel::S },
        key: -3 + i as i64,
        aux: 7 - i as i32,
        bytes: 64 + i as u32,
        seq: 11 + i,
    };
    let tuple = |i: u64| Tuple {
        seq: 100 + i,
        rel: if i.is_multiple_of(2) { Rel::S } else { Rel::R },
        key: 5 - i as i64,
        aux: i as i32 - 2,
        bytes: 96,
        ticket: 0xDEAD_BEEF_0000_0000 | i,
    };
    vec![
        OpMsg::IngestBatch {
            items: vec![item(0), item(1)],
            stamp: Some((12, 1, 1)),
        },
        OpMsg::IngestBounced {
            items: vec![item(2)],
        },
        OpMsg::DataBatch {
            tag: 3,
            store: true,
            tuples: vec![tuple(0), tuple(1)],
            arrived: vec![SimTime(17), SimTime(18)],
        },
        OpMsg::Change {
            new_epoch: 4,
            kind: Reconfig::Step(Step::HalveCols),
        },
        OpMsg::Change {
            new_epoch: 7,
            kind: Reconfig::Expand,
        },
        OpMsg::Change {
            new_epoch: 9,
            kind: Reconfig::Contract,
        },
        OpMsg::MigrationComplete { epoch: 5 },
        OpMsg::Signal {
            from_reshuffler: 2,
            new_epoch: 6,
            expected_signals: 4,
            role: Role::Step(MachineStepSpec {
                machine: 1,
                old_pos: pos(0, 1),
                new_pos: pos(1, 0),
                partner: 3,
                exchange_rel: Rel::R,
                refine_rel: Rel::S,
                keep_bit: 1,
                refine_parts_before: 2,
            }),
        },
        OpMsg::Signal {
            from_reshuffler: 1,
            new_epoch: 8,
            expected_signals: 2,
            role: Role::Expand(ExpandSpec {
                machine: 0,
                old_pos: pos(0, 0),
                children: [4, 5, 6],
                n_before: 1,
                m_before: 2,
            }),
        },
        OpMsg::Signal {
            from_reshuffler: 0,
            new_epoch: 10,
            expected_signals: 4,
            role: Role::Contract(ContractRole::Survive),
        },
        OpMsg::Signal {
            from_reshuffler: 3,
            new_epoch: 10,
            expected_signals: 4,
            role: Role::Contract(ContractRole::Retire {
                survivor: 0,
                forward_rel: Some(Rel::S),
            }),
        },
        OpMsg::Activate {
            epoch: 11,
            assign: GridAssignment::initial(Mapping::new(2, 2)),
            layout: ElasticLayout::from_parts(8, vec![5, 6]),
        },
        OpMsg::ExpandDone { epoch: 12 },
        OpMsg::SourceResize {
            reshufflers: vec![TaskId(1), TaskId(9)],
        },
        OpMsg::MigBatch {
            tuples: vec![tuple(2)],
        },
        OpMsg::MigDone,
        OpMsg::Ack {
            joiner: 3,
            epoch: 13,
        },
        OpMsg::RoutedCopies { n: 128, tuples: 64 },
        OpMsg::ProcessedCopies { n: 8 },
    ]
}

const GOLDEN_OPMSGS: [&str; 19] = [
    "000200000000fdffffffffffffff07000000400000000b0000000000000001feffffffffffffff06000000410000000c00000000000000010c0000000000000001000000000000000100000000000000",
    "010100000000ffffffffffffffff05000000420000000d00000000000000",
    "020300000001020000006400000000000000010500000000000000feffffff6000000000000000efbeadde6500000000000000000400000000000000ffffffff6000000001000000efbeadde0200000011000000000000001200000000000000",
    "03040000000001",
    "030700000001",
    "030900000002",
    "0405000000",
    "050200000000000000060000000400000000010000000000000000000000010000000100000000000000030000000000000000010100000002000000",
    "050100000000000000080000000200000001000000000000000000000000000000000400000000000000050000000000000006000000000000000100000002000000",
    "0500000000000000000a000000040000000200",
    "0503000000000000000a00000004000000020100000000000000000101",
    "0a0b0000000200000002000000040000000000000000000000000000000100000001000000000000000100000001000000040000000000000001000000020000000300000008000000000000000200000005000000000000000600000000000000",
    "0b0c000000",
    "0c0200000001000000000000000900000000000000",
    "0e010000006600000000000000010300000000000000000000006000000002000000efbeadde",
    "0f",
    "1003000000000000000d000000",
    "118000000040000000",
    "1208000000",
];

const GOLDEN_BUILDER: &str = "040000000201030000000000000014200df00000000006000000676f6c64656e01010000000400000040000000010000000000000001000100000000000000100000000000001000000000000000c800000000000000ffffffffffffffff14000000000000000200000000000000010000000000000001000000000000000a0000000000000014000000000000001400000000000000010000000000000064000000000000007d000000000000002000000000000000000000000000000001000000010000000000000000000000010000010000000000020000000000000000000000000000000000000000000000010101e8030000000000000400000001020000000000000000010004000000000000";

fn golden_gauge_sample() -> GaugeSample {
    GaugeSample {
        machine: 1,
        gauges: [2, 3, 4, 9],
        data_processed: 5,
        skew_parts: vec![6, 7],
    }
}

/// A gauge row is as wide as the [`Gauge`] table, nothing else.
const _: () = assert!(GaugeSample::MIN_LEN == 8 + 8 * Gauge::COUNT + 8 + 4);

const GOLDEN_GAUGES: &str = "440000000c0100000000000000020000000000000003000000000000000400000000000000090000000000000005000000000000000200000006000000000000000700000000000000";

/// The finals bundle of a bare close (`snapshot` false) or of a
/// checkpointing one, which adds a one-tuple joiner `state` and the
/// controller's `resume`.
fn golden_finals_bundle(snapshot: bool) -> FinalsBundle {
    let mut latency = LatencyStats::default();
    latency.record(3);
    latency.record(900);
    let mut match_digest = MatchDigest::default();
    match_digest.fold(11, 12);
    let gauges = [40, 50, 60, 70];
    FinalsBundle {
        machine: 2,
        gen: 1,
        finals: Finals {
            joiners: vec![JoinerFinal {
                slot: 2,
                matches: 70,
                latency,
                counters: JoinerCounters {
                    migration_tuples_in: 1,
                    migration_bytes_in: 2,
                    expand_stored_tuples: 3,
                    expand_sent_tuples: 4,
                    contract_stored_tuples: 5,
                    contract_sent_tuples: 6,
                    retirements: 7,
                    evicted_tuples: 8,
                    evicted_bytes: 50,
                },
                match_log: vec![(11, 12)],
                match_digest,
                state: snapshot.then(|| JoinerCheckpoint {
                    machine: 2,
                    evicted_tuples: 8,
                    evicted_bytes: 50,
                    latest_seq: 90,
                    latest_tick: 91,
                    tuples: vec![Tuple {
                        seq: 80,
                        rel: Rel::S,
                        key: -81,
                        aux: 82,
                        bytes: 83,
                        ticket: 84,
                    }],
                }),
            }],
            controller: Some(ControllerFinal {
                assign: GridAssignment::initial(Mapping::new(1, 2)),
                events: vec![ControlEvent::Complete {
                    kind: Reconfig::Step(Step::HalveRows),
                    at: SimTime(21),
                    epoch: 1,
                }],
                trace: vec![RatioSample {
                    tuples: 30,
                    r: 31,
                    s: 32,
                    mapping: Mapping::new(1, 2),
                }],
                resume: snapshot.then(|| Resume {
                    epoch: 1,
                    layout: ElasticLayout::from_parts(4, vec![3]),
                    elastic: Some((2, 1)),
                    decider: DeciderSnapshot {
                        r: 100,
                        s: 101,
                        dr: 102,
                        ds: 103,
                        decisions: 104,
                        migrations: 105,
                    },
                }),
            }),
        },
        events: 13,
        last_event_at: SimTime(14),
        data_processed: 15,
        machines: vec![MachineMetrics {
            messages_in: 1,
            messages_out: 2,
            bytes_in: 3,
            bytes_out: 4,
            busy: SimDuration::from_micros(5),
            gauges,
            peak_stored_bytes: 41,
            spilled_bytes: 6,
            flushes: FlushCounts {
                batches: [7, 8, 9, 42],
                tuples: [10, 11, 12, 43],
            },
        }],
    }
}

// Re-pinned at `WIRE_VERSION` 9: `JoinerFinal` gained `state` and
// `ControllerFinal` gained `resume`, so a bare close's bundle is the
// version-8 bytes plus two `None` presence bytes (after the joiner's
// digest and after the controller's trace) and ships no state.
const GOLDEN_FINALS: &str = "c20200000f020000000000000001000000010000000200000000000000460000000000000087030000000000000200000000000000840300000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000070000000000000008000000000000003200000000000000010000000b000000000000000c00000000000000010000000000000085f943fae368c45f85f943fae368c45f00010100000002000000020000000000000000000000000000000100000002000000000000000100000001000000010000150000000000000001000000010000001e000000000000001f0000000000000020000000000000000100000002000000000d000000000000000e000000000000000f000000000000000100000001000000000000000200000000000000030000000000000004000000000000000500000000000000280000000000000032000000000000003c000000000000004600000000000000290000000000000006000000000000000700000000000000080000000000000009000000000000002a000000000000000a000000000000000b000000000000000c000000000000002b00000000000000";

// The same bundle from a checkpointing shutdown: both options present,
// carrying a one-tuple joiner state and the controller's resume point.
const GOLDEN_FINALS_SNAPSHOT: &str = "600300000f020000000000000001000000010000000200000000000000460000000000000087030000000000000200000000000000840300000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000070000000000000008000000000000003200000000000000010000000b000000000000000c00000000000000010000000000000085f943fae368c45f85f943fae368c45f010200000000000000080000000000000032000000000000005a000000000000005b0000000000000001000000500000000000000001afffffffffffffff52000000530000005400000000000000010100000002000000020000000000000000000000000000000100000002000000000000000100000001000000010000150000000000000001000000010000001e000000000000001f0000000000000020000000000000000100000002000000010100000004000000000000000100000003000000000000000102000000010000006400000000000000650000000000000066000000000000006700000000000000680000000000000069000000000000000d000000000000000e000000000000000f000000000000000100000001000000000000000200000000000000030000000000000004000000000000000500000000000000280000000000000032000000000000003c000000000000004600000000000000290000000000000006000000000000000700000000000000080000000000000009000000000000002a000000000000000a000000000000000b000000000000000c000000000000002b00000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn opmsg_and_plan_bytes_match_the_hand_written_codec() {
    let msgs = golden_opmsgs();
    assert_eq!(msgs.len(), GOLDEN_OPMSGS.len());
    let mut tags = Vec::new();
    for (msg, golden) in msgs.iter().zip(GOLDEN_OPMSGS) {
        let tag = msg.to_bytes()[0];
        assert_eq!(hex(&msg.to_bytes()), golden, "OpMsg variant with tag {tag}");
        tags.push(tag);
    }
    assert!(tags.is_sorted(), "instances are in tag order");
    tags.dedup();
    assert_eq!(
        tags,
        [0, 1, 2, 3, 4, 5, 10, 11, 12, 14, 15, 16, 17, 18],
        "every variant has an instance, and the uncollapsed rows kept their tags"
    );
    assert_eq!(hex(&full_builder().to_bytes()), GOLDEN_BUILDER);
}

#[test]
fn gauge_and_finals_frames_match_their_golden_bytes() {
    fn frame_hex(kind: u8, msg: &impl Wire) -> String {
        let mut buf = Vec::new();
        append_frame(&mut buf, kind, msg);
        hex(&buf)
    }
    assert_eq!(frame_hex(K_GAUGES, &golden_gauge_sample()), GOLDEN_GAUGES);
    assert_eq!(
        frame_hex(K_FINALS, &golden_finals_bundle(false)),
        GOLDEN_FINALS
    );
    assert_eq!(
        frame_hex(K_FINALS, &golden_finals_bundle(true)),
        GOLDEN_FINALS_SNAPSHOT
    );
    // `K_SHUTDOWN` carries whether the drain ends in a checkpoint.
    assert_eq!(frame_hex(K_SHUTDOWN, &false), "010000001000");
    assert_eq!(frame_hex(K_SHUTDOWN, &true), "010000001001");
}
