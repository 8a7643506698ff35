#ifndef GPRQ_STORAGE_STORAGE_ENGINE_H_
#define GPRQ_STORAGE_STORAGE_ENGINE_H_

// Mutable storage engine: online insert/delete on a paged R-tree with a
// write-ahead log, crash recovery, and epoch-based snapshot reads.
//
// Every index in the repo so far is a read-only snapshot; the paper's
// motivating scenarios (imprecise GPS objects, moving sensors) are data
// that changes while PRQ queries run. This engine closes that gap:
//
//  * Durability — every mutation is framed into the WAL (storage/wal.h)
//    and fsynced at the commit boundary *before* it becomes visible to
//    readers. A crash at any byte loses at most the unacknowledged tail:
//    reopening replays the committed prefix onto the last checkpoint and
//    reconstructs exactly the acknowledged state (proven torn-write by
//    torn-write in tests/storage_recovery_test.cc).
//
//  * Non-blocking reads — node pages live in an append-only PageStore and
//    are copy-on-write: a committed page is never mutated again. A commit
//    publishes a new *epoch* (root page + object count + LSN) under a
//    brief mutex; a query pins the current epoch at admission with one
//    shared_ptr copy and traverses its tree version without any further
//    synchronisation, unaffected by concurrent writers — no phantom or
//    half-applied states (tests/storage_snapshot_test.cc, under TSan).
//
//  * Group commit — mutations inside one commit batch (Options::
//    group_commit_ops, or an explicit Flush) share a single WAL fsync and
//    one epoch publication; batches are atomic: readers observe all of a
//    batch or none of it.
//
//  * Checkpoints — Checkpoint() writes the current tree to a fresh
//    compacted page file (temp + fsync + rename) and restarts the WAL.
//    Records carry LSNs and the checkpoint stores the LSN it covers, so a
//    crash between the rename and the WAL restart cannot double-apply.
//
//  * Integration — commits invalidate the attached semantic result cache
//    by dirtied region (cache::ResultCache::Invalidate) and notify commit
//    listeners (AddCommitListener: each published batch's dirty region).
//    storage::LivePrqEngine runs the three-phase PRQ
//    against pinned epochs through an exec::BatchExecutor.
//
// Failure handling: a failed WAL append/fsync rolls the in-memory batch
// back (copy-on-write makes this a pointer rewind) and *seals* the engine
// — further writes are refused, reads keep serving the last committed
// epoch, and reopening the directory recovers. This mirrors the
// PostgreSQL/fsyncgate rule: after a lost fsync the in-memory/durable
// relationship is unknowable, so the only honest write path is a restart.
//
// Tree maintenance is deliberately simpler than the R*-tree used for
// read-only builds: splits pick the largest-extent axis and cut at the
// median (no forced reinsertion), deletes remove empty nodes but do not
// re-balance underfull ones. Queries do not care (results depend only on
// the point set — asserted differentially against a freshly bulk-loaded
// R*-tree in tests/storage_differential_test.cc); churn-heavy trees are
// reorganised by Checkpoint + reopen or an offline rebuild.
//
// Failpoints: storage.wal.append, storage.wal.fsync,
// storage.checkpoint.write. Metrics: gprq.storage.*.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/result_cache.h"
#include "common/status.h"
#include "geom/rect.h"
#include "index/rstar_tree.h"
#include "la/vector.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace gprq::storage {

struct StorageOptions {
  /// Node page size in bytes. Every page holds one tree node.
  size_t page_size = 4096;
  /// Node capacity; 0 derives the largest capacity that fits the page
  /// (index::TreeSnapshot::MaxEntriesPerPage). Must be >= 4 when set.
  size_t max_entries = 0;
  /// Mutations per commit batch: the WAL is fsynced and a new epoch
  /// published every this-many operations (Flush forces a partial batch
  /// out). 1 = every operation is individually durable and visible.
  size_t group_commit_ops = 1;
};

/// An immutable, consistent tree version pinned by a reader. Obtained from
/// StorageEngine::PinSnapshot; holding the shared_ptr is the pin — the
/// pages it references are never mutated or reclaimed while the engine
/// lives. Snapshots must not outlive their engine.
///
/// All methods are const and thread-safe; any number of threads may share
/// one snapshot or pin their own.
class StorageSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  uint64_t lsn() const { return lsn_; }
  size_t size() const { return size_; }
  size_t height() const { return height_; }
  size_t dim() const { return dim_; }

  /// Visits every (point, id) inside `box` (closed), exactly like
  /// index::RStarTree::RangeQuery — this is the Phase-1 hook
  /// LivePrqEngine gathers candidates through.
  void RangeQuery(const geom::Rect& box,
                  const std::function<void(const la::Vector&,
                                           index::ObjectId)>& visit) const;

  /// Visits every stored (point, id) — the differential tests' oracle
  /// extraction and the recovery verifier's point collector.
  void ScanAll(const std::function<void(const la::Vector&,
                                        index::ObjectId)>& visit) const;

  /// The MBR of the whole tree (Empty rect when size() == 0).
  geom::Rect Bounds() const;

  /// Structural invariants: entry MBRs contained in (and exactly covered
  /// by) their parent entries, levels consistent, leaf entry count equal
  /// to size(). The recovery smoke asserts this after a kill -9 replay.
  Status CheckInvariants() const;

 private:
  friend class StorageEngine;
  StorageSnapshot(const PageStore* store, StorePageId root, size_t height,
                  size_t size, size_t dim, size_t max_entries, uint64_t epoch,
                  uint64_t lsn)
      : store_(store),
        root_(root),
        height_(height),
        size_(size),
        dim_(dim),
        max_entries_(max_entries),
        epoch_(epoch),
        lsn_(lsn) {}

  const PageStore* store_;
  StorePageId root_;
  size_t height_;
  size_t size_;
  size_t dim_;
  size_t max_entries_;
  uint64_t epoch_;
  uint64_t lsn_;
};

/// What a commit listener learns about one published batch.
struct CommitInfo {
  uint64_t epoch = 0;
  uint64_t last_lsn = 0;
  /// Bounding box of every point touched by the batch (inserted or
  /// deleted) — the region whose query answers may have changed.
  geom::Rect dirty_region;
  /// The batch's operations, in commit order.
  std::vector<WalRecord> ops;
};

class StorageEngine {
 public:
  /// Listener invoked after each epoch publication, on the committing
  /// thread while it still holds the writer lock: a listener may pin
  /// snapshots and run queries (publication is ordered by a separate
  /// mutex), but must not re-enter the engine's write path.
  using CommitListener = std::function<void(const CommitInfo&)>;

  /// Initialises `dir` (which must exist) with an empty tree: writes the
  /// initial checkpoint and a fresh WAL, then opens.
  static Result<std::unique_ptr<StorageEngine>> Create(
      const std::string& dir, size_t dim, const StorageOptions& options = {});

  /// Opens an existing directory: loads the checkpoint, replays the WAL's
  /// committed prefix (records with LSN beyond the checkpoint), and
  /// publishes the recovered state as the first epoch. `replayed`, when
  /// non-null, receives the WAL scan statistics.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, const StorageOptions& options = {},
      WalReplayInfo* replayed = nullptr);

  ~StorageEngine();
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // ---- Write path (thread-safe; serialised by the writer mutex). ----------

  /// Logs and applies one insertion. Duplicate (point, id) pairs are
  /// allowed, as in index::RStarTree. Visible to new pins once its commit
  /// batch publishes (immediately with group_commit_ops == 1).
  Status Insert(const la::Vector& point, index::ObjectId id);

  /// Logs and applies one deletion of an exact (point, id) entry. Returns
  /// NotFound — with nothing logged — when no such entry exists in the
  /// working tree (committed state plus this batch's pending operations).
  Status Delete(const la::Vector& point, index::ObjectId id);

  /// Commits a partial batch: WAL fsync + epoch publication for any
  /// pending operations. No-op when nothing is pending.
  Status Flush();

  /// Flush, then write a fresh compacted checkpoint and restart the WAL.
  /// On success the directory reopens without replaying any records.
  Status Checkpoint();

  // ---- Read path (thread-safe, non-blocking w.r.t. writers). --------------

  /// Pins the current epoch: one mutex-guarded shared_ptr copy, after
  /// which the snapshot is traversed with no synchronisation at all.
  std::shared_ptr<const StorageSnapshot> PinSnapshot() const;

  // ---- Integration hooks. -------------------------------------------------

  /// Attaches a semantic result cache (not owned; null detaches): every
  /// commit drops cached answers whose search box intersects the batch's
  /// dirty region. Install before serving queries from the cache.
  void AttachResultCache(cache::ResultCache* cache);

  /// Registers a commit listener, called with each published batch's
  /// CommitInfo. Listeners cannot be removed; register for the
  /// engine's lifetime.
  void AddCommitListener(CommitListener listener);

  // ---- Introspection. -----------------------------------------------------

  size_t dim() const { return dim_; }
  const StorageOptions& options() const { return options_; }
  /// True after a WAL failure sealed the engine (writes refused; reads
  /// still serve the last committed epoch; reopen to recover).
  bool sealed() const;
  /// Operations applied but not yet committed (current batch fill).
  size_t pending_ops() const;

  static constexpr const char* kCheckpointFile = "storage.checkpoint";
  static constexpr const char* kWalFile = "storage.wal";

 private:
  StorageEngine(std::string dir, size_t dim, StorageOptions options);

  struct Published {
    StorePageId root = 0;
    size_t height = 1;
    size_t size = 0;
    uint64_t epoch = 0;
    uint64_t lsn = 0;
  };

  // Tree mutation (writer mutex held). `log` is false during WAL replay,
  // where operations are re-applied in place without re-logging.
  Status InsertLocked(const la::Vector& point, index::ObjectId id, bool log);
  Status DeleteLocked(const la::Vector& point, index::ObjectId id, bool log);
  Status ApplyInsert(const la::Vector& point, index::ObjectId id);
  Status ApplyDelete(const la::Vector& point, index::ObjectId id);
  Status MaybeCommitLocked();
  Status CommitBatchLocked();
  void RollbackBatchLocked(const Status& cause);

  /// Copy-on-write: returns a page id the writer may mutate — `page`
  /// itself when it is already private to the current batch, otherwise a
  /// fresh copy (registered private). Never touches published bytes.
  Result<StorePageId> EnsurePrivate(StorePageId page);

  Status WriteCheckpointLocked();
  static Result<std::unique_ptr<StorageEngine>> OpenImpl(
      const std::string& dir, const StorageOptions& options,
      WalReplayInfo* replayed);

  const std::string dir_;
  const size_t dim_;
  const StorageOptions options_;
  size_t max_entries_ = 0;

  // Writer state: everything below writer_mutex_ is writer-only.
  mutable std::mutex writer_mutex_;
  PageStore store_;
  std::unique_ptr<Wal> wal_;
  StorePageId root_ = 0;
  size_t height_ = 1;
  size_t size_ = 0;
  uint64_t next_lsn_ = 1;
  bool sealed_ = false;
  bool replaying_ = false;
  std::unordered_set<StorePageId> private_pages_;
  // Current batch: operations since the last publication, their dirty
  // bounding box, and the pre-batch state a failed commit rewinds to.
  std::vector<WalRecord> batch_ops_;
  geom::Rect batch_dirty_ = geom::Rect::Empty(0);
  Published committed_;
  size_t committed_frontier_ = 0;

  // Publication: snap_mutex_ orders epoch publication against pins; the
  // pages a published snapshot references are immutable, so this is the
  // readers' only synchronisation point.
  mutable std::mutex snap_mutex_;
  std::shared_ptr<const StorageSnapshot> current_;

  // Hooks (guarded by writer_mutex_ for installation; invoked on the
  // committing thread after publication).
  cache::ResultCache* cache_ = nullptr;
  std::vector<CommitListener> listeners_;
};

}  // namespace gprq::storage

#endif  // GPRQ_STORAGE_STORAGE_ENGINE_H_
