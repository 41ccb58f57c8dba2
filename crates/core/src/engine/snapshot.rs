//! Epoch-based snapshot versioning: fused reads over an immutable version
//! while a single writer publishes the next one.
//!
//! Every index in this workspace executes queries over `&self` and applies
//! updates over `&mut self` — correct, but it means a service holding an
//! `Arc<dyn SpatialIndex>` can never ingest a point. This module adds the
//! missing concurrency story without touching any index internals:
//!
//! * [`VersionedIndex<I>`] owns the *current* version of an index behind an
//!   epoch counter. Readers call [`VersionedIndex::snapshot`] and get a
//!   [`Snapshot`] — a cheap, clonable, epoch-pinned handle that implements
//!   [`SpatialIndex`], so every existing kernel (sequential, fused, Auto)
//!   runs against it unchanged.
//! * A writer calls [`VersionedIndex::apply`] with a batch of [`WriteOp`]s.
//!   The writer *forks* the current version (`I: Clone`; with `wazi-storage`'s
//!   page-level copy-on-write a fork shares all page payloads and copies
//!   only what the ops touch), mutates the private fork, and publishes it
//!   atomically as the next epoch. Readers never wait on the writer and the
//!   writer never blocks readers: the only shared lock is held for the
//!   duration of an `Arc` clone or swap.
//! * A superseded version lives until its epoch *drains* — the last
//!   [`Snapshot`] pinning it is dropped — and is then reclaimed; the
//!   [`VersionStats`] counters expose publishes and retirements so tests
//!   and the service can assert the lifecycle.
//!
//! The guarantee this buys, and which the snapshot-consistency suite pins:
//! **a snapshot never changes answers; writes change only which snapshot you
//! read.** A panic inside `apply` (even an injected one, see
//! [`WriteFaultPlan`]) discards the private fork: the published version is
//! untouched, no reader can observe a torn page, and the next `apply`
//! recovers the writer lock and proceeds.
//!
//! Indexes that reject incremental updates with
//! [`IndexError::UpdateUnsupported`] (e.g. QUASII, which only converges by
//! bulk cracking) can still be written through
//! [`VersionedIndex::with_rebuild`]: the wrapper keeps a point mirror and
//! rebuilds the whole index from it whenever an op is rejected, so the
//! version chain advances for every index kind in the evaluation.
//!
//! ```
//! use wazi_core::{SnapshotSource, SpatialIndex, VersionedIndex, WriteOp, ZIndex};
//! use wazi_geom::{Point, Rect};
//! use wazi_storage::ExecStats;
//!
//! let points: Vec<Point> = (0..500)
//!     .map(|i| Point::new((i % 25) as f64 / 25.0, (i / 25) as f64 / 20.0))
//!     .collect();
//! let versioned = VersionedIndex::new(ZIndex::build_base(points));
//!
//! let before = versioned.snapshot();
//! versioned
//!     .apply(&[WriteOp::Insert(Point::new(0.505, 0.505))])
//!     .unwrap();
//! let after = versioned.snapshot();
//!
//! // The pinned snapshot still answers from its epoch; only the new
//! // snapshot sees the write.
//! let mut stats = ExecStats::default();
//! assert!(!before.point_query(&Point::new(0.505, 0.505), &mut stats));
//! assert!(after.point_query(&Point::new(0.505, 0.505), &mut stats));
//! assert_eq!(before.epoch() + 1, after.epoch());
//! ```

use crate::engine::{PointBatchKernel, RangeBatchKernel};
use crate::faults::FaultPlan;
use crate::index::{IndexError, SpatialIndex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// One write operation applied through [`VersionedIndex::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// Insert a point.
    Insert(Point),
    /// Delete the first indexed point equal to the given one.
    Delete(Point),
    /// Run the index's post-batch maintenance hook
    /// ([`SpatialIndex::maintain`]).
    Maintain,
}

/// What a successful [`VersionedIndex::apply`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The epoch the batch was published as; snapshots taken from now on
    /// (until the next publish) carry this epoch.
    pub epoch: u64,
    /// Number of operations in the batch (inserts + deletes + maintains).
    pub ops: u64,
    /// Number of delete operations that actually removed a point.
    pub removed: u64,
    /// Whether the rebuild fallback fired at least once: some op was
    /// rejected with [`IndexError::UpdateUnsupported`] and the index was
    /// reconstructed from the point mirror instead.
    pub rebuilt: bool,
}

/// Version-lifecycle counters of a [`VersionedIndex`]
/// ([`VersionedIndex::version_stats`]). All counters start at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionStats {
    /// Epoch of the currently published version (the initial build is
    /// epoch 0; every successful `apply` advances it by one).
    pub current_epoch: u64,
    /// Successful publishes performed by `apply`.
    pub snapshots_published: u64,
    /// Superseded versions whose epoch has drained (their last pinned
    /// [`Snapshot`] was dropped) and whose memory is reclaimed.
    pub epochs_retired: u64,
    /// Individual write operations applied across all publishes.
    pub writes_applied: u64,
    /// Applies in which the rebuild fallback fired.
    pub rebuild_fallbacks: u64,
    /// Snapshots handed out so far.
    pub snapshots_taken: u64,
}

impl VersionStats {
    /// Versions currently alive: the published one plus superseded versions
    /// still pinned by at least one snapshot.
    pub fn live_epochs(&self) -> u64 {
        (self.snapshots_published + 1).saturating_sub(self.epochs_retired)
    }
}

#[derive(Debug, Default)]
struct Counters {
    snapshots_published: AtomicU64,
    epochs_retired: AtomicU64,
    writes_applied: AtomicU64,
    rebuild_fallbacks: AtomicU64,
    snapshots_taken: AtomicU64,
}

/// Pins one published version. Dropped when the version's last holder (the
/// publisher slot or any snapshot) goes away; if the version was superseded
/// by then, its epoch has drained and the retirement counter advances.
#[derive(Debug)]
struct EpochGuard {
    counters: Arc<Counters>,
    superseded: AtomicBool,
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        if self.superseded.load(Ordering::Acquire) {
            self.counters.epochs_retired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Published<I> {
    epoch: u64,
    index: Arc<I>,
    guard: Arc<EpochGuard>,
}

/// The boxed reconstruction function of a rebuild fallback.
type RebuildFn<I> = Box<dyn Fn(&[Point]) -> I + Send>;

struct RebuildPolicy<I> {
    points: Vec<Point>,
    build: RebuildFn<I>,
}

struct WriterState<I> {
    rebuild: Option<RebuildPolicy<I>>,
    applies: u64,
}

/// An immutable, epoch-pinned view of a [`VersionedIndex`].
///
/// `Snapshot` implements [`SpatialIndex`]'s whole read surface by
/// delegation — including the fused batch-kernel hooks — so a
/// [`crate::QueryEngine`] executes against it exactly as against the
/// underlying index. Cloning is two `Arc` bumps; holding a snapshot keeps
/// its version alive (and its answers frozen) however many writes are
/// published after it.
///
/// The mutating methods of the trait are refused:
/// [`SpatialIndex::insert`]/[`SpatialIndex::delete`] return
/// [`IndexError::Unsupported`] — writes go through
/// [`VersionedIndex::apply`], never through a snapshot.
#[derive(Clone)]
pub struct Snapshot {
    epoch: u64,
    index: Arc<dyn SpatialIndex>,
    _guard: Arc<EpochGuard>,
}

impl Snapshot {
    /// The epoch this snapshot pins. Two snapshots with equal epochs from
    /// the same [`VersionedIndex`] answer every query identically.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("index", &self.index.name())
            .field("len", &self.index.len())
            .finish()
    }
}

impl SpatialIndex for Snapshot {
    fn name(&self) -> &'static str {
        self.index.name()
    }
    fn len(&self) -> usize {
        self.index.len()
    }
    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
    fn data_bounds(&self) -> Rect {
        self.index.data_bounds()
    }
    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        self.index.range_query(query, stats)
    }
    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        self.index.range_count(query, stats)
    }
    fn range_for_each(&self, query: &Rect, stats: &mut ExecStats, visit: &mut dyn FnMut(&Point)) {
        self.index.range_for_each(query, stats, visit)
    }
    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        self.index.point_query(p, stats)
    }
    fn insert(&mut self, _p: Point) -> Result<(), IndexError> {
        Err(IndexError::Unsupported("insert into an immutable snapshot"))
    }
    fn delete(&mut self, _p: &Point) -> Result<bool, IndexError> {
        Err(IndexError::Unsupported("delete from an immutable snapshot"))
    }
    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }
    fn knn(&self, q: &Point, k: usize, stats: &mut ExecStats) -> Vec<Point> {
        self.index.knn(q, k, stats)
    }
    fn knn_seed_radius(&self, q: &Point, k: usize, stats: &mut ExecStats) -> Option<f64> {
        self.index.knn_seed_radius(q, k, stats)
    }
    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        self.index.range_batch_kernel()
    }
    fn point_batch_kernel(&self) -> Option<&dyn PointBatchKernel> {
        self.index.point_batch_kernel()
    }
}

/// Anything that can hand out epoch-pinned snapshots and accept writes: the
/// object-safe facade `wazi-service` programs against, implemented by
/// [`VersionedIndex<I>`] for every clonable index.
pub trait SnapshotSource: Send + Sync {
    /// An epoch-pinned snapshot of the current version.
    fn snapshot(&self) -> Snapshot;
    /// Applies a batch of writes and publishes the next version. See
    /// [`VersionedIndex::apply`].
    fn apply(&self, ops: &[WriteOp]) -> Result<WriteReceipt, IndexError>;
    /// Version-lifecycle counters.
    fn version_stats(&self) -> VersionStats;
}

/// An index under epoch-based snapshot versioning. See the [module
/// docs](self) for the concurrency model and the pinned guarantee.
pub struct VersionedIndex<I> {
    current: Mutex<Published<I>>,
    writer: Mutex<WriterState<I>>,
    counters: Arc<Counters>,
    /// Set at most once, so `apply` reads it without a lock.
    faults: OnceLock<Arc<WriteFaultPlan>>,
}

/// Recovers a poisoned lock: the state protected by both locks of a
/// [`VersionedIndex`] is valid at every panic point (the working fork is
/// function-local and the point mirror is committed only after a successful
/// publish), so the poison flag carries no information here.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<I: SpatialIndex + Clone + 'static> VersionedIndex<I> {
    /// Wraps a freshly built index as epoch 0, without a rebuild fallback:
    /// ops the index rejects with [`IndexError::UpdateUnsupported`] fail the
    /// whole `apply` (nothing is published).
    pub fn new(index: I) -> Self {
        Self::construct(index, None)
    }

    /// Wraps an index together with a rebuild fallback: `points` must be
    /// exactly the points `index` was built from, and `build` reconstructs
    /// an equivalent index from an updated point set. When an op is rejected
    /// with [`IndexError::UpdateUnsupported`], the wrapper updates its
    /// mirror and rebuilds — so even bulk-only indexes (QUASII) advance
    /// through the version chain.
    pub fn with_rebuild(
        index: I,
        points: Vec<Point>,
        build: impl Fn(&[Point]) -> I + Send + 'static,
    ) -> Self {
        Self::construct(
            index,
            Some(RebuildPolicy {
                points,
                build: Box::new(build),
            }),
        )
    }

    fn construct(index: I, rebuild: Option<RebuildPolicy<I>>) -> Self {
        let counters = Arc::new(Counters::default());
        let guard = Arc::new(EpochGuard {
            counters: Arc::clone(&counters),
            superseded: AtomicBool::new(false),
        });
        Self {
            current: Mutex::new(Published {
                epoch: 0,
                index: Arc::new(index),
                guard,
            }),
            writer: Mutex::new(WriterState {
                rebuild,
                applies: 0,
            }),
            counters,
            faults: OnceLock::new(),
        }
    }

    /// Installs a deterministic write-fault plan consulted by every
    /// subsequent [`VersionedIndex::apply`].
    ///
    /// # Panics
    ///
    /// If a plan is already installed: the plan is set once, so `apply`
    /// reads it without taking a lock.
    pub fn install_write_faults(&self, plan: Arc<WriteFaultPlan>) {
        assert!(
            self.faults.set(plan).is_ok(),
            "a write-fault plan is already installed"
        );
    }

    /// An epoch-pinned snapshot of the current version: two `Arc` clones
    /// under a briefly held lock, never blocked by an in-flight writer.
    pub fn snapshot(&self) -> Snapshot {
        let current = lock_recover(&self.current);
        self.counters
            .snapshots_taken
            .fetch_add(1, Ordering::Relaxed);
        Snapshot {
            epoch: current.epoch,
            index: Arc::clone(&current.index) as Arc<dyn SpatialIndex>,
            _guard: Arc::clone(&current.guard),
        }
    }

    /// Applies `ops` as one atomic batch and publishes the result as the
    /// next epoch.
    ///
    /// The batch is all-or-nothing: the writer mutates a private fork of
    /// the current version, so an error (or a panic — injected or real)
    /// anywhere in the batch discards the fork and leaves the published
    /// version, every outstanding snapshot, and the point mirror exactly as
    /// they were. Concurrent writers serialize on the writer lock; readers
    /// are never blocked.
    pub fn apply(&self, ops: &[WriteOp]) -> Result<WriteReceipt, IndexError> {
        let mut writer = lock_recover(&self.writer);
        let seq = writer.applies;
        writer.applies += 1;
        let faults = self.faults.get();

        // Fork the current version. With page-level CoW in the store this
        // copies the page table, not the pages.
        let base = Arc::clone(&lock_recover(&self.current).index);
        let mut work: I = (*base).clone();
        drop(base);

        // The mirror is transactional too: mutate a local copy, commit it
        // only after the publish succeeds.
        let mut mirror = writer.rebuild.as_ref().map(|rb| rb.points.clone());
        let mut removed = 0u64;
        let mut rebuilt = false;

        fire_write_fault(faults, seq, WritePhase::MidApply);

        for op in ops {
            match *op {
                WriteOp::Insert(p) => match work.insert(p) {
                    Ok(()) => {
                        if let Some(points) = mirror.as_mut() {
                            points.push(p);
                        }
                    }
                    Err(IndexError::UpdateUnsupported { .. }) if mirror.is_some() => {
                        let points = mirror.as_mut().expect("mirror present");
                        points.push(p);
                        let rb = writer.rebuild.as_ref().expect("rebuild policy present");
                        work = (rb.build)(points);
                        rebuilt = true;
                    }
                    Err(err) => return Err(err),
                },
                WriteOp::Delete(p) => match work.delete(&p) {
                    Ok(was_there) => {
                        removed += u64::from(was_there);
                        if was_there {
                            if let Some(points) = mirror.as_mut() {
                                if let Some(pos) = points.iter().position(|q| *q == p) {
                                    points.swap_remove(pos);
                                }
                            }
                        }
                    }
                    Err(IndexError::UpdateUnsupported { .. }) if mirror.is_some() => {
                        let points = mirror.as_mut().expect("mirror present");
                        if let Some(pos) = points.iter().position(|q| *q == p) {
                            points.swap_remove(pos);
                            removed += 1;
                            let rb = writer.rebuild.as_ref().expect("rebuild policy present");
                            work = (rb.build)(points);
                            rebuilt = true;
                        }
                    }
                    Err(err) => return Err(err),
                },
                WriteOp::Maintain => work.maintain(),
            }
        }

        fire_write_fault(faults, seq, WritePhase::BeforePublish);

        // Publish: supersede the old version and swap in the fork. The
        // current lock is held only for the swap itself.
        let new_index = Arc::new(work);
        let mut current = lock_recover(&self.current);
        current.guard.superseded.store(true, Ordering::Release);
        let epoch = current.epoch + 1;
        *current = Published {
            epoch,
            index: new_index,
            guard: Arc::new(EpochGuard {
                counters: Arc::clone(&self.counters),
                superseded: AtomicBool::new(false),
            }),
        };
        drop(current);

        if let Some(points) = mirror {
            writer
                .rebuild
                .as_mut()
                .expect("rebuild policy present")
                .points = points;
        }
        self.counters
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .writes_applied
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        if rebuilt {
            self.counters
                .rebuild_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(WriteReceipt {
            epoch,
            ops: ops.len() as u64,
            removed,
            rebuilt,
        })
    }

    /// Version-lifecycle counters; see [`VersionStats`].
    pub fn version_stats(&self) -> VersionStats {
        VersionStats {
            current_epoch: lock_recover(&self.current).epoch,
            snapshots_published: self.counters.snapshots_published.load(Ordering::Relaxed),
            epochs_retired: self.counters.epochs_retired.load(Ordering::Relaxed),
            writes_applied: self.counters.writes_applied.load(Ordering::Relaxed),
            rebuild_fallbacks: self.counters.rebuild_fallbacks.load(Ordering::Relaxed),
            snapshots_taken: self.counters.snapshots_taken.load(Ordering::Relaxed),
        }
    }
}

impl<I: SpatialIndex + Clone + 'static> SnapshotSource for VersionedIndex<I> {
    fn snapshot(&self) -> Snapshot {
        VersionedIndex::snapshot(self)
    }
    fn apply(&self, ops: &[WriteOp]) -> Result<WriteReceipt, IndexError> {
        VersionedIndex::apply(self, ops)
    }
    fn version_stats(&self) -> VersionStats {
        VersionedIndex::version_stats(self)
    }
}

impl<I: SpatialIndex + Clone + 'static> std::fmt::Debug for VersionedIndex<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.version_stats();
        f.debug_struct("VersionedIndex")
            .field("epoch", &stats.current_epoch)
            .field("published", &stats.snapshots_published)
            .field("retired", &stats.epochs_retired)
            .finish()
    }
}

/// Where a write fault fires inside [`VersionedIndex::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WritePhase {
    /// After the fork, before any op is applied: the writer holds a private
    /// working copy mid-copy-on-write.
    MidApply,
    /// After all ops are applied, immediately before the publish swap.
    BeforePublish,
}

/// The injected behaviour at a write failpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Sleep this long at the failpoint (a stalled publish, for testing
    /// that readers keep answering from the old epoch meanwhile).
    Stall(std::time::Duration),
    /// Panic at the failpoint: the fork is discarded, the writer lock is
    /// poisoned and recovered by the next writer, and the published
    /// version is untouched.
    Panic,
}

/// A deterministic schedule of write faults, keyed by apply sequence number
/// (the order of [`VersionedIndex::apply`] calls, starting at 0) and
/// [`WritePhase`]. The chaos harness installs one via
/// [`VersionedIndex::install_write_faults`].
pub type WriteFaultPlan = FaultPlan<(u64, WritePhase), WriteFault>;

/// Failpoint: every planned write fault fires, whatever its kind.
fn fire_write_fault(plan: Option<&Arc<WriteFaultPlan>>, seq: u64, phase: WritePhase) {
    let Some(plan) = plan else { return };
    match plan.fire(&(seq, phase), |_| true) {
        Some(WriteFault::Stall(delay)) => std::thread::sleep(delay),
        Some(WriteFault::Panic) => {
            panic!("injected write fault: panic at {phase:?} (apply #{seq})")
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZIndex;

    fn grid(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0))
            .collect()
    }

    fn versioned_base(n: usize) -> VersionedIndex<ZIndex> {
        VersionedIndex::new(ZIndex::build_base(grid(n)))
    }

    #[test]
    fn snapshots_pin_their_epoch_and_answers() {
        let v = versioned_base(200);
        let before = v.snapshot();
        assert_eq!(before.epoch(), 0);
        let p = Point::new(0.513, 0.513);
        let receipt = v.apply(&[WriteOp::Insert(p)]).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.ops, 1);
        assert!(!receipt.rebuilt);

        let after = v.snapshot();
        let mut stats = ExecStats::default();
        assert!(!before.point_query(&p, &mut stats));
        assert!(after.point_query(&p, &mut stats));
        assert_eq!(before.len() + 1, after.len());
        // Repeated reads of the pinned snapshot keep answering identically.
        let q = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let first = before.range_query(&q, &mut stats);
        let second = before.range_query(&q, &mut stats);
        assert_eq!(first, second);
    }

    #[test]
    fn delete_and_maintain_publish_new_epochs() {
        let v = versioned_base(100);
        let victim = Point::new(0.0, 0.0);
        let receipt = v
            .apply(&[WriteOp::Delete(victim), WriteOp::Maintain])
            .unwrap();
        assert_eq!(receipt.removed, 1);
        let snap = v.snapshot();
        let mut stats = ExecStats::default();
        assert!(!snap.point_query(&victim, &mut stats));
        assert_eq!(snap.len(), 99);
        // Deleting a missing point publishes but removes nothing.
        let receipt = v.apply(&[WriteOp::Delete(victim)]).unwrap();
        assert_eq!(receipt.removed, 0);
        assert_eq!(v.snapshot().len(), 99);
    }

    #[test]
    fn epochs_retire_when_their_last_snapshot_drops() {
        let v = versioned_base(100);
        let pinned = v.snapshot();
        v.apply(&[WriteOp::Insert(Point::new(0.91, 0.17))]).unwrap();
        v.apply(&[WriteOp::Insert(Point::new(0.92, 0.18))]).unwrap();
        // Epoch 1 had no snapshot: it drained at the second publish. Epoch 0
        // is still pinned.
        let stats = v.version_stats();
        assert_eq!(stats.current_epoch, 2);
        assert_eq!(stats.snapshots_published, 2);
        assert_eq!(stats.epochs_retired, 1);
        assert_eq!(stats.live_epochs(), 2);
        drop(pinned);
        let stats = v.version_stats();
        assert_eq!(stats.epochs_retired, 2);
        assert_eq!(stats.live_epochs(), 1);
    }

    #[test]
    fn snapshot_refuses_mutation() {
        let v = versioned_base(50);
        let mut snap = v.snapshot();
        assert!(matches!(
            snap.insert(Point::new(0.1, 0.1)),
            Err(IndexError::Unsupported(_))
        ));
        assert!(matches!(
            snap.delete(&Point::new(0.1, 0.1)),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn snapshot_delegates_kernels_and_metadata() {
        let v = versioned_base(400);
        let snap = v.snapshot();
        assert_eq!(snap.name(), "Base");
        assert!(!snap.is_empty());
        assert!(snap.size_bytes() > 0);
        assert!(snap.range_batch_kernel().is_some());
        assert!(snap.point_batch_kernel().is_some());
        assert!(!snap.data_bounds().is_empty());
        let mut stats = ExecStats::default();
        let q = Rect::from_coords(0.1, 0.1, 0.3, 0.3);
        assert_eq!(
            snap.range_count(&q, &mut stats),
            snap.range_query(&q, &mut stats).len() as u64
        );
        let mut streamed = 0u64;
        snap.range_for_each(&q, &mut stats, &mut |_| streamed += 1);
        assert_eq!(streamed, snap.range_count(&q, &mut stats));
        assert_eq!(snap.knn(&Point::new(0.2, 0.2), 3, &mut stats).len(), 3);
        assert!(format!("{snap:?}").contains("epoch"));
    }

    /// A bulk-only index: rejects all updates, so only the rebuild fallback
    /// can advance it.
    #[derive(Clone)]
    struct FrozenScan {
        points: Vec<Point>,
    }

    impl SpatialIndex for FrozenScan {
        fn name(&self) -> &'static str {
            "FrozenScan"
        }
        fn len(&self) -> usize {
            self.points.len()
        }
        fn data_bounds(&self) -> Rect {
            Rect::bounding(&self.points)
        }
        fn range_query(&self, query: &Rect, _stats: &mut ExecStats) -> Vec<Point> {
            self.points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect()
        }
        fn point_query(&self, p: &Point, _stats: &mut ExecStats) -> bool {
            self.points.contains(p)
        }
        fn size_bytes(&self) -> usize {
            self.points.len() * std::mem::size_of::<Point>()
        }
    }

    #[test]
    fn rebuild_fallback_advances_bulk_only_indexes() {
        let points = grid(60);
        let v = VersionedIndex::with_rebuild(
            FrozenScan {
                points: points.clone(),
            },
            points,
            |pts| FrozenScan {
                points: pts.to_vec(),
            },
        );
        let p = Point::new(0.77, 0.31);
        let receipt = v.apply(&[WriteOp::Insert(p)]).unwrap();
        assert!(receipt.rebuilt);
        let mut stats = ExecStats::default();
        assert!(v.snapshot().point_query(&p, &mut stats));
        let receipt = v.apply(&[WriteOp::Delete(p)]).unwrap();
        assert!(receipt.rebuilt);
        assert_eq!(receipt.removed, 1);
        assert!(!v.snapshot().point_query(&p, &mut stats));
        assert_eq!(v.version_stats().rebuild_fallbacks, 2);
    }

    #[test]
    fn update_unsupported_without_rebuild_fails_and_publishes_nothing() {
        let v = VersionedIndex::new(FrozenScan { points: grid(30) });
        let err = v.apply(&[WriteOp::Insert(Point::new(0.5, 0.5))]);
        assert!(matches!(
            err,
            Err(IndexError::UpdateUnsupported {
                index: "FrozenScan",
                op: "insert"
            })
        ));
        let stats = v.version_stats();
        assert_eq!(stats.current_epoch, 0);
        assert_eq!(stats.snapshots_published, 0);
    }

    #[test]
    fn injected_writer_panic_discards_the_fork_and_recovers() {
        let v = versioned_base(100);
        let plan =
            Arc::new(WriteFaultPlan::new().with((0, WritePhase::MidApply), WriteFault::Panic));
        v.install_write_faults(Arc::clone(&plan));
        let before = v.snapshot();
        let p = Point::new(0.513, 0.513);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = v.apply(&[WriteOp::Insert(p)]);
        }));
        assert!(panicked.is_err());
        assert_eq!(plan.injected(), 1);
        // Nothing was published; the next apply recovers the writer lock.
        assert_eq!(v.version_stats().current_epoch, 0);
        let receipt = v.apply(&[WriteOp::Insert(p)]).unwrap();
        assert_eq!(receipt.epoch, 1);
        let mut stats = ExecStats::default();
        assert!(!before.point_query(&p, &mut stats));
        assert!(v.snapshot().point_query(&p, &mut stats));
    }

    #[test]
    fn write_fault_plan_installs_once() {
        let v = versioned_base(10);
        v.install_write_faults(Arc::new(WriteFaultPlan::new()));
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.install_write_faults(Arc::new(WriteFaultPlan::new()));
        }));
        assert!(again.is_err(), "a second plan must be refused");
        assert_eq!(v.apply(&[WriteOp::Maintain]).unwrap().epoch, 1);
    }

    #[test]
    fn publish_stall_keeps_readers_on_the_old_epoch() {
        use std::time::Duration;
        let v = Arc::new(versioned_base(100));
        let plan = Arc::new(WriteFaultPlan::new().with(
            (0, WritePhase::BeforePublish),
            WriteFault::Stall(Duration::from_millis(200)),
        ));
        v.install_write_faults(Arc::clone(&plan));
        let writer = {
            let v = Arc::clone(&v);
            std::thread::spawn(move || v.apply(&[WriteOp::Insert(Point::new(0.513, 0.513))]))
        };
        // The plan counts the stall as fired just before the writer sleeps
        // in it, with the fork built and not yet published: a snapshot
        // taken now comes from epoch 0.
        while plan.injected() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(v.snapshot().epoch(), 0);
        writer.join().unwrap().unwrap();
        assert_eq!(v.snapshot().epoch(), 1);
    }

    #[test]
    fn concurrent_snapshots_while_writing_smoke() {
        let v = Arc::new(versioned_base(200));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let v = Arc::clone(&v);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    let mut last_len = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = v.snapshot();
                        // Epochs and lengths advance monotonically under an
                        // insert-only writer.
                        assert!(snap.epoch() >= last_epoch);
                        assert!(snap.len() >= last_len);
                        let mut stats = ExecStats::default();
                        let n = snap.range_count(&Rect::UNIT, &mut stats);
                        assert_eq!(n as usize, snap.len());
                        last_epoch = snap.epoch();
                        last_len = snap.len();
                    }
                })
            })
            .collect();
        for i in 0..50 {
            let p = Point::new(0.001 + (i as f64) * 0.9 / 50.0, 0.503);
            v.apply(&[WriteOp::Insert(p)]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let stats = v.version_stats();
        assert_eq!(stats.current_epoch, 50);
        assert_eq!(stats.writes_applied, 50);
        assert_eq!(v.snapshot().len(), 250);
    }
}
