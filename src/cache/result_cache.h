#ifndef GPRQ_CACHE_RESULT_CACHE_H_
#define GPRQ_CACHE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/prq.h"
#include "geom/rect.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace gprq::cache {

/// The PrqOptions fields that change what a query *returns* (not how fast):
/// the strategy mask, catalog rounding, fringe-filter scope and the marginal
/// extension. Two executions agree bit-for-bit only when these agree, so
/// they are part of every cache key. Deadlines, budgets and priority are
/// deliberately excluded — they truncate work, never alter decided ids.
uint64_t FilterConfigBits(const core::PrqOptions& options);

struct ResultCacheOptions {
  /// Hard entry cap (LRU evicts beyond it). Must be >= 1.
  size_t max_entries = 1024;
  /// Approximate memory cap over entry payloads (candidate points, ids,
  /// covariance copies). Must be >= 1; LRU evicts beyond it.
  size_t max_bytes = 64ull << 20;
  /// false restricts the cache to exact hits (the containment rule off —
  /// for differential testing and paranoid deployments).
  bool semantic = true;
};

/// One cached complete answer, immutable once published. `candidates` is
/// the accepted ∪ survivors set of the cached execution — every dataset
/// point that could qualify at the cached (δ, θ) or at any *stricter* θ' ≥
/// θ: Phase-2 filters only remove certain non-qualifiers, and each filter's
/// pass-set shrinks as θ grows (r_θ, α_outer, the oblique region and the
/// marginal bound are all monotone), so a point pruned at θ is pruned — or
/// Phase-3-rejected — at every θ' ≥ θ. That monotonicity is the containment
/// rule: re-filtering `candidates` at θ' (the semantic-hit path of
/// exec::BatchExecutor::ExecuteBounded) reproduces the fresh survivor set exactly, and the deterministic
/// per-query sample pool then reproduces the fresh decisions bit-for-bit.
/// The candidates are held flat (core::FlatCandidates), not one vector per
/// point: a cache full of 2-D entries would otherwise spend more on
/// allocator headers than on coordinates.
struct CachedEntry {
  size_t dim = 0;
  la::Vector mean;
  la::Matrix covariance;
  double delta = 0.0;
  double theta = 0.0;
  uint64_t config_bits = 0;
  /// The cached query's Phase-1 search box; kept for region invalidation
  /// (an online update inside the box poisons the entry).
  geom::Rect search_box;
  core::FlatCandidates candidates;
  std::vector<index::ObjectId> ids;
  size_t bytes = 0;
};

/// Fingerprint-keyed semantic result cache for complete PRQ answers.
///
/// Exact hit: canonically identical distribution (mc::QueryFingerprint over
/// CanonicalDoubleBits — -0.0 and +0.0 encodings hit the same entry), same
/// δ, same θ, same filter config. The stored ids are served verbatim.
///
/// Semantic hit: same distribution, δ and config, cached θ ≤ query θ. The
/// cached wider answer's candidate set is served for re-filtering at the
/// narrower θ (see CachedEntry); the caller runs the filter pass over it +
/// Phase 3 and gets ids set-identical to a fresh execution at a fraction of
/// the cost (no index search, and typically far fewer candidates). Among
/// multiple eligible entries the one with the largest θ ≤ query θ wins —
/// the tightest superset is the cheapest to re-filter.
///
/// Every hit verifies full mean/covariance equality against the entry (a
/// fingerprint is 64 bits; a collision must degrade to a miss, not a wrong
/// answer). Bounded by max_entries and max_bytes with LRU eviction; all
/// methods are thread-safe. Metrics under `gprq.cache.*`.
///
/// Entries are only valid for a fixed dataset and a fixed Phase-3
/// configuration (evaluator seed and sample count): the owning executor
/// must InvalidateAll() on any dataset or evaluator change.
///
/// Online updates (storage::StorageEngine) instead drive the epoch
/// protocol: every commit calls BeginEpoch(new_epoch, dirty_region)
/// *before* publishing its snapshot, which — in one critical section —
/// drops poisoned entries and advances the cache's epoch. Readers pass
/// their pinned epoch to Find/Insert; a lookup or publication whose pin
/// is behind the cache's epoch degrades to a miss / no-op. Together
/// these close both commit/query races: a reader pinning the new epoch
/// can never hit a not-yet-invalidated entry (invalidation happens
/// before the epoch is pinnable), and a reader that pinned the old
/// epoch can never install an answer computed before a commit that has
/// already invalidated (its stale pin is rejected under the same lock
/// the commit advanced the epoch under). Static deployments (no storage
/// engine) simply never call BeginEpoch: the epoch stays 0 and the
/// default arguments preserve the old behaviour.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  enum class HitKind { kMiss, kExact, kSemantic };
  struct Lookup {
    HitKind kind = HitKind::kMiss;
    std::shared_ptr<const CachedEntry> entry;  // set unless kMiss
  };

  /// Looks the query up (exact first, then the semantic containment rule
  /// unless disabled). Records gprq.cache.{lookups,hit_exact,hit_semantic,
  /// misses} and refreshes the entry's LRU position on a hit. `epoch` is
  /// the caller's pinned snapshot epoch: when it is behind the cache's
  /// (a commit published since the pin), the lookup is a miss — surviving
  /// entries answer for the *latest* epoch, not the caller's.
  Lookup Find(const core::PrqQuery& query, uint64_t config_bits,
              uint64_t epoch = 0);

  /// Publishes a complete answer. `candidates` must be the execution's
  /// accepted ∪ survivors set (with coordinates) and `ids` its complete
  /// result; the caller must not insert degraded, partial or proved-empty
  /// results. Re-inserting an existing exact key refreshes its LRU position
  /// and keeps the stored entry (answers are deterministic — they cannot
  /// disagree). May evict LRU entries to satisfy the bounds; an entry
  /// larger than max_bytes on its own is dropped, not inserted. `epoch`
  /// is the snapshot epoch the answer was computed against: when it is
  /// behind the cache's epoch (a commit invalidated since the pin), the
  /// answer may be stale for the live tree and is silently dropped.
  void Insert(const core::PrqQuery& query, uint64_t config_bits,
              const geom::Rect& search_box, core::FlatCandidates candidates,
              std::vector<index::ObjectId> ids, uint64_t epoch = 0);

  /// Drops every entry (dataset reload, evaluator reconfiguration).
  void InvalidateAll();

  /// Drops entries whose search box intersects `region` — the hook for
  /// online updates: an insert/delete at point p can only change answers
  /// whose search box contains p, and box-intersection over-approximates
  /// that. Returns the number of entries dropped.
  size_t Invalidate(const geom::Rect& region);

  /// The commit hook: atomically advances the cache's epoch to `epoch`
  /// and drops every entry whose search box intersects `dirty_region`
  /// (one critical section — no window where the new epoch can pair with
  /// a not-yet-dropped entry, or a stale-pinned Insert can slip in after
  /// the drop). MUST be called *before* the new snapshot is published to
  /// readers. Returns the number of entries dropped.
  size_t BeginEpoch(uint64_t epoch, const geom::Rect& dirty_region);

  /// The epoch stale pins are validated against (0 until BeginEpoch).
  uint64_t epoch() const;

  size_t entries() const;
  size_t bytes() const;

 private:
  struct ExactKey {
    uint64_t fingerprint = 0;
    uint64_t delta_bits = 0;
    uint64_t theta_bits = 0;
    uint64_t config_bits = 0;
    bool operator==(const ExactKey&) const = default;
  };
  struct FamilyKey {
    uint64_t fingerprint = 0;
    uint64_t delta_bits = 0;
    uint64_t config_bits = 0;
    bool operator==(const FamilyKey&) const = default;
  };
  struct ExactKeyHash {
    size_t operator()(const ExactKey& k) const;
  };
  struct FamilyKeyHash {
    size_t operator()(const FamilyKey& k) const;
  };

  /// LRU node: the immutable payload plus the keys needed to unmap it on
  /// eviction.
  struct Node {
    ExactKey exact_key;
    FamilyKey family_key;
    std::shared_ptr<const CachedEntry> entry;
  };
  using LruList = std::list<Node>;

  static ExactKey MakeExactKey(const core::PrqQuery& query,
                               uint64_t config_bits);
  /// True when the entry's stored distribution is canonically identical to
  /// the query's (element-wise CanonicalDoubleBits over mean and
  /// covariance) — the collision-safety check behind every hit.
  static bool SameDistribution(const CachedEntry& entry,
                               const core::PrqQuery& query);

  void TouchLocked(LruList::iterator it);
  void EraseLocked(LruList::iterator it);
  void EvictToFitLocked();
  size_t InvalidateLocked(const geom::Rect& region);

  const ResultCacheOptions options_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recent
  std::unordered_map<ExactKey, LruList::iterator, ExactKeyHash> exact_;
  std::unordered_map<FamilyKey, std::vector<LruList::iterator>, FamilyKeyHash>
      families_;
  size_t bytes_ = 0;
  /// Latest storage epoch whose invalidation has run (BeginEpoch); pins
  /// behind it are rejected in Find and Insert.
  uint64_t epoch_ = 0;
};

}  // namespace gprq::cache

#endif  // GPRQ_CACHE_RESULT_CACHE_H_
