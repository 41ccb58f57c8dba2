//! Seeded read/write chaos: a live writer with injected failpoints races
//! multi-client fused read batches through the service, and nothing is
//! allowed to go quietly wrong.
//!
//! The harness replays a deterministic [`mixed_read_write_schedule`]
//! against a versioned WaZI index behind a [`wazi_service::Service`]:
//! a writer thread applies the schedule's write bursts while three client
//! threads submit every read burst's queries concurrently. The writer
//! carries a [`WriteFaultPlan`] with the two interesting failpoints:
//!
//! * a **publish stall** — the writer sleeps between finishing its fork
//!   and publishing it, widening the window in which readers must stay on
//!   the old epoch;
//! * a **writer panic mid-CoW** — the writer dies halfway through applying
//!   a burst, after the fork has already been partially mutated.
//!
//! Hard-asserted:
//!
//! * **no ticket lost** — every submitted query reaches a response;
//! * **no torn page** — every response is bit-identical to a solo
//!   execution on the pinned snapshot of exactly the epoch it names, so no
//!   reader ever observed a half-applied write;
//! * **panic atomicity** — the panicked burst publishes nothing: the
//!   epoch does not advance and the next burst applies cleanly;
//! * **post-chaos state** — the surviving index equals a sequential
//!   no-fault replay of the same schedule minus the panicked burst.

use std::sync::Arc;
use std::time::Duration;

use wazi_core::{
    QueryEngine, QueryOutput, Snapshot, SnapshotSource, SpatialIndex, VersionedIndex, WriteFault,
    WriteFaultPlan, WriteOp, WritePhase, ZIndexBuilder, ZIndexConfig,
};
use wazi_geom::{Point, Rect};
use wazi_service::{FullQueuePolicy, Service, ServiceError};
use wazi_workload::{
    generate_dataset, generate_queries, mixed_read_write_schedule, Region, RwStep, SELECTIVITIES,
};

const REGION: Region = Region::CaliNev;
const CLIENTS: usize = 3;
const ROUNDS: usize = 6;
const READS_PER_ROUND: usize = 36;
const WRITES_PER_ROUND: usize = 12;
/// Apply sequence numbers the failpoints are keyed to.
const STALL_SEQ: u64 = 1;
const PANIC_SEQ: u64 = 3;

fn build_wazi(points: &[Point], train: &[Rect]) -> wazi_core::ZIndex {
    ZIndexBuilder::wazi()
        .with_config(ZIndexConfig::wazi().with_leaf_capacity(64))
        .build(points.to_vec(), train)
}

fn sorted(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by(|a, b| a.lex_cmp(b));
    points
}

/// Every point a snapshot holds, via a full-space range query.
fn all_points(snapshot: &Snapshot) -> Vec<Point> {
    let mut stats = wazi_storage::ExecStats::default();
    sorted(snapshot.range_query(&Rect::UNIT, &mut stats))
}

#[test]
fn chaos_schedule_loses_nothing_and_converges_to_sequential_replay() {
    let points = generate_dataset(REGION, 3_000);
    let train = generate_queries(REGION, 100, SELECTIVITIES[1]);
    let schedule = mixed_read_write_schedule(
        REGION,
        ROUNDS,
        READS_PER_ROUND,
        WRITES_PER_ROUND,
        SELECTIVITIES[2],
        0xC4A0_5EED,
    );

    let source = Arc::new(VersionedIndex::with_rebuild(
        build_wazi(&points, &train),
        points.clone(),
        {
            let train = train.clone();
            move |pts: &[Point]| build_wazi(pts, &train)
        },
    ));
    let plan = Arc::new(
        WriteFaultPlan::new()
            .with(
                (STALL_SEQ, WritePhase::BeforePublish),
                WriteFault::Stall(Duration::from_millis(25)),
            )
            .with((PANIC_SEQ, WritePhase::MidApply), WriteFault::Panic),
    );
    source.install_write_faults(Arc::clone(&plan));

    let service = Service::builder_versioned(Arc::clone(&source) as Arc<dyn SnapshotSource>)
        .max_batch(48)
        .window(Duration::from_micros(50), Duration::from_millis(2))
        .on_full(FullQueuePolicy::Block)
        .start();

    // snapshots[epoch] pinned right after its publish; epoch 0 up front.
    let snapshots = std::sync::Mutex::new(vec![source.snapshot()]);
    let read_queries: Vec<_> = schedule
        .iter()
        .filter_map(|step| match step {
            RwStep::Queries(queries) => Some(queries.clone()),
            RwStep::Writes(_) => None,
        })
        .flatten()
        .collect();

    let (responses, panicked_burst) = std::thread::scope(|s| {
        let service = &service;
        let source = &source;
        let snapshots = &snapshots;
        let writer = s.spawn(move || {
            let mut seq = 0u64;
            let mut panicked = None;
            for step in &schedule {
                let RwStep::Writes(ops) = step else { continue };
                let epoch_before = source.version_stats().current_epoch;
                match service.apply_write(ops) {
                    Ok(receipt) => {
                        assert_eq!(receipt.epoch, epoch_before + 1);
                        let snapshot = source.snapshot();
                        assert_eq!(snapshot.epoch(), receipt.epoch);
                        snapshots.lock().expect("registry").push(snapshot);
                    }
                    Err(ServiceError::ExecutionPanicked { message }) => {
                        assert_eq!(
                            seq, PANIC_SEQ,
                            "only the planned apply may panic: {message}"
                        );
                        assert!(message.contains("injected write fault"), "{message}");
                        // Panic atomicity: nothing was published, the
                        // fork (and its partial mutations) was discarded.
                        assert_eq!(source.version_stats().current_epoch, epoch_before);
                        panicked = Some(seq);
                    }
                    Err(other) => panic!("write burst {seq} failed oddly: {other}"),
                }
                seq += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            panicked
        });

        let mut clients = Vec::new();
        for client in 0..CLIENTS {
            let read_queries = &read_queries;
            clients.push(s.spawn(move || {
                let tickets: Vec<_> = read_queries
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % CLIENTS == client)
                    .map(|(i, query)| {
                        let ticket = service
                            .submit(query.clone())
                            .unwrap_or_else(|e| panic!("submission {i} refused: {e}"))
                            .ticket()
                            .expect("blocking policy never sheds");
                        (i, ticket)
                    })
                    .collect();
                // No ticket lost: every wait() terminates with a response.
                tickets
                    .into_iter()
                    .map(|(i, ticket)| {
                        let response = ticket
                            .wait()
                            .unwrap_or_else(|e| panic!("response {i} lost: {e}"));
                        (i, response.batch.epoch, response.report.output)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let responses: Vec<(usize, u64, QueryOutput)> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let panicked = writer.join().expect("writer thread");
        (responses, panicked)
    });

    assert_eq!(
        panicked_burst,
        Some(PANIC_SEQ),
        "the planned panic must fire"
    );
    assert_eq!(plan.injected(), 2, "both failpoints must fire");
    assert_eq!(
        responses.len(),
        read_queries.len(),
        "every submitted query must be answered"
    );

    // No torn page: each response equals a solo execution on the pinned
    // snapshot of exactly the epoch it names.
    let snapshots = snapshots.into_inner().expect("registry");
    assert_eq!(
        snapshots.len(),
        ROUNDS,
        "one publish per burst bar the panic"
    );
    for (i, epoch, output) in &responses {
        let snapshot = &snapshots[*epoch as usize];
        let solo = QueryEngine::new(snapshot)
            .execute(&read_queries[*i])
            .expect("solo execution on pinned snapshot")
            .output;
        assert_eq!(
            output, &solo,
            "response {i} diverged from its epoch-{epoch} snapshot"
        );
    }

    let stats = service.shutdown();
    assert_eq!(stats.snapshots_published, ROUNDS as u64 - 1);
    assert_eq!(stats.current_epoch, ROUNDS as u64 - 1);

    // Post-chaos convergence: a sequential, fault-free replay of the same
    // schedule minus the panicked burst lands on the identical point set.
    let replay = VersionedIndex::new(build_wazi(&points, &train));
    let mut seq = 0u64;
    for step in mixed_read_write_schedule(
        REGION,
        ROUNDS,
        READS_PER_ROUND,
        WRITES_PER_ROUND,
        SELECTIVITIES[2],
        0xC4A0_5EED,
    ) {
        let RwStep::Writes(ops) = step else { continue };
        if seq != PANIC_SEQ {
            replay
                .apply(&ops)
                .expect("sequential replay applies cleanly");
        }
        seq += 1;
    }
    let chaotic = source.snapshot();
    let replayed = replay.snapshot();
    assert_eq!(chaotic.len(), replayed.len());
    assert_eq!(all_points(&chaotic), all_points(&replayed));
}

/// The delete path under chaos: a schedule whose deletes race reads must
/// still never tear — a deleted point is either fully present (old epoch)
/// or fully absent (new epoch), pinned per snapshot.
#[test]
fn deletes_are_atomic_per_snapshot() {
    let points = generate_dataset(REGION, 1_200);
    let train = generate_queries(REGION, 60, SELECTIVITIES[1]);
    let source = VersionedIndex::new(build_wazi(&points, &train));
    let before = source.snapshot();
    let victims: Vec<Point> = points.iter().copied().take(50).collect();
    let ops: Vec<WriteOp> = victims.iter().copied().map(WriteOp::Delete).collect();
    source.apply(&ops).expect("deletes apply");
    let after = source.snapshot();
    let mut stats = wazi_storage::ExecStats::default();
    for victim in &victims {
        assert!(
            before.point_query(victim, &mut stats),
            "old epoch keeps the point"
        );
        assert!(
            !after.point_query(victim, &mut stats),
            "new epoch dropped the point"
        );
    }
    assert_eq!(after.len(), points.len() - victims.len());
    assert_eq!(before.len(), points.len());
}
