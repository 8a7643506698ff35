#include "cache/result_cache.h"

#include <algorithm>
#include <cassert>

#include "mc/sample_pool.h"
#include "obs/metrics.h"

namespace gprq::cache {
namespace {

// Cache metrics, resolved once (the obs resolve-once idiom: GetCounter
// takes a lock and is not for per-lookup use).
struct CacheMetrics {
  obs::Counter* lookups;
  obs::Counter* hit_exact;
  obs::Counter* hit_semantic;
  obs::Counter* misses;
  obs::Counter* insertions;
  obs::Counter* evictions;
  obs::Counter* invalidations;
  obs::Gauge* entries;
  obs::Gauge* bytes;

  static const CacheMetrics& Get() {
    static const CacheMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return CacheMetrics{r.GetCounter("gprq.cache.lookups"),
                          r.GetCounter("gprq.cache.hit_exact"),
                          r.GetCounter("gprq.cache.hit_semantic"),
                          r.GetCounter("gprq.cache.misses"),
                          r.GetCounter("gprq.cache.insertions"),
                          r.GetCounter("gprq.cache.evictions"),
                          r.GetCounter("gprq.cache.invalidations"),
                          r.GetGauge("gprq.cache.entries"),
                          r.GetGauge("gprq.cache.bytes")};
    }();
    return metrics;
  }
};

// splitmix64 finalizer for key hashing (same mixer family as
// mc::QueryFingerprint; collisions here only cost a bucket probe).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The bytes the entry holds: the struct plus every heap buffer it owns,
// at capacity.
size_t EntryBytes(const CachedEntry& entry) {
  const size_t d = entry.dim;
  size_t bytes = sizeof(CachedEntry) + 2 * d * sizeof(double)  // box corners
                 + d * sizeof(double)                          // mean
                 + d * d * sizeof(double);                     // covariance
  bytes += entry.candidates.coords.capacity() * sizeof(double);
  bytes += entry.candidates.ids.capacity() * sizeof(index::ObjectId);
  bytes += entry.ids.capacity() * sizeof(index::ObjectId);
  return bytes;
}

}  // namespace

uint64_t FilterConfigBits(const core::PrqOptions& options) {
  uint64_t bits = static_cast<uint64_t>(options.strategies & core::kStrategyAll);
  if (options.use_catalogs) bits |= 1ull << 8;
  if (options.fringe_filter_any_dim) bits |= 1ull << 9;
  if (options.use_marginal_filter) bits |= 1ull << 10;
  // The pool variant changes which samples decide the θ boundary, so a
  // cached pseudo-random answer must never serve a Halton query (or vice
  // versa) — the variants are distinct cache partitions.
  bits |= static_cast<uint64_t>(options.pool_variant) << 11;
  return bits;
}

size_t ResultCache::ExactKeyHash::operator()(const ExactKey& k) const {
  uint64_t h = Mix64(k.fingerprint);
  h = Mix64(h ^ k.delta_bits);
  h = Mix64(h ^ k.theta_bits);
  h = Mix64(h ^ k.config_bits);
  return static_cast<size_t>(h);
}

size_t ResultCache::FamilyKeyHash::operator()(const FamilyKey& k) const {
  uint64_t h = Mix64(k.fingerprint);
  h = Mix64(h ^ k.delta_bits);
  h = Mix64(h ^ k.config_bits);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options) {
  assert(options_.max_entries >= 1);
  assert(options_.max_bytes >= 1);
}

ResultCache::ExactKey ResultCache::MakeExactKey(const core::PrqQuery& query,
                                                uint64_t config_bits) {
  return ExactKey{mc::QueryFingerprint(query.query_object),
                  mc::CanonicalDoubleBits(query.delta),
                  mc::CanonicalDoubleBits(query.theta), config_bits};
}

bool ResultCache::SameDistribution(const CachedEntry& entry,
                                   const core::PrqQuery& query) {
  const core::GaussianDistribution& g = query.query_object;
  if (entry.dim != g.dim()) return false;
  for (size_t i = 0; i < entry.dim; ++i) {
    if (mc::CanonicalDoubleBits(entry.mean[i]) !=
        mc::CanonicalDoubleBits(g.mean()[i])) {
      return false;
    }
  }
  const la::Matrix& cov = g.covariance();
  for (size_t i = 0; i < entry.dim; ++i) {
    for (size_t j = 0; j < entry.dim; ++j) {
      if (mc::CanonicalDoubleBits(entry.covariance(i, j)) !=
          mc::CanonicalDoubleBits(cov(i, j))) {
        return false;
      }
    }
  }
  return true;
}

void ResultCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ResultCache::EraseLocked(LruList::iterator it) {
  exact_.erase(it->exact_key);
  auto family = families_.find(it->family_key);
  if (family != families_.end()) {
    auto& members = family->second;
    members.erase(std::find(members.begin(), members.end(), it));
    if (members.empty()) families_.erase(family);
  }
  bytes_ -= it->entry->bytes;
  lru_.erase(it);
}

void ResultCache::EvictToFitLocked() {
  const CacheMetrics& metrics = CacheMetrics::Get();
  while (lru_.size() > options_.max_entries || bytes_ > options_.max_bytes) {
    assert(!lru_.empty());
    EraseLocked(std::prev(lru_.end()));
    metrics.evictions->Add(1);
  }
}

ResultCache::Lookup ResultCache::Find(const core::PrqQuery& query,
                                      uint64_t config_bits, uint64_t epoch) {
  const CacheMetrics& metrics = CacheMetrics::Get();
  const ExactKey key = MakeExactKey(query, config_bits);
  std::lock_guard<std::mutex> lock(mutex_);
  metrics.lookups->Add(1);
  if (epoch < epoch_) {
    // The caller's pin predates a commit whose invalidation already ran:
    // surviving entries answer for the latest epoch, not this pin's.
    metrics.misses->Add(1);
    return {};
  }

  auto exact = exact_.find(key);
  if (exact != exact_.end() &&
      SameDistribution(*exact->second->entry, query)) {
    TouchLocked(exact->second);
    metrics.hit_exact->Add(1);
    return {HitKind::kExact, lru_.front().entry};
  }

  if (options_.semantic) {
    // Containment rule: same distribution, δ and config, cached θ ≤ query
    // θ — the cached search box then contains the query's (every filter
    // radius is monotone in θ), so the cached candidate set covers every
    // point the query could return. Prefer the largest eligible θ: the
    // tightest superset leaves the least re-filtering.
    auto family = families_.find(
        FamilyKey{key.fingerprint, key.delta_bits, key.config_bits});
    if (family != families_.end()) {
      LruList::iterator best = lru_.end();
      for (LruList::iterator it : family->second) {
        if (!(it->entry->theta <= query.theta)) continue;
        if (!SameDistribution(*it->entry, query)) continue;
        if (best == lru_.end() || it->entry->theta > best->entry->theta) {
          best = it;
        }
      }
      if (best != lru_.end()) {
        TouchLocked(best);
        metrics.hit_semantic->Add(1);
        return {HitKind::kSemantic, lru_.front().entry};
      }
    }
  }

  metrics.misses->Add(1);
  return {};
}

void ResultCache::Insert(
    const core::PrqQuery& query, uint64_t config_bits,
    const geom::Rect& search_box, core::FlatCandidates candidates,
    std::vector<index::ObjectId> ids, uint64_t epoch) {
  const CacheMetrics& metrics = CacheMetrics::Get();
  auto entry = std::make_shared<CachedEntry>();
  entry->dim = query.query_object.dim();
  entry->mean = query.query_object.mean();
  entry->covariance = query.query_object.covariance();
  entry->delta = query.delta;
  entry->theta = query.theta;
  entry->config_bits = config_bits;
  entry->search_box = search_box;
  entry->candidates = std::move(candidates);
  entry->ids = std::move(ids);
  entry->bytes = EntryBytes(*entry);
  if (entry->bytes > options_.max_bytes) return;  // would evict everything

  const ExactKey key = MakeExactKey(query, config_bits);
  std::lock_guard<std::mutex> lock(mutex_);
  if (epoch < epoch_) {
    // Computed against a pre-commit snapshot whose region invalidation
    // has already run — publishing it now would resurrect a stale answer.
    return;
  }
  auto existing = exact_.find(key);
  if (existing != exact_.end()) {
    // Deterministic answers cannot disagree; keep the stored entry, just
    // refresh its recency.
    TouchLocked(existing->second);
    return;
  }
  const FamilyKey family_key{key.fingerprint, key.delta_bits,
                             key.config_bits};
  lru_.push_front(Node{key, family_key, std::move(entry)});
  exact_.emplace(key, lru_.begin());
  families_[family_key].push_back(lru_.begin());
  bytes_ += lru_.front().entry->bytes;
  metrics.insertions->Add(1);
  EvictToFitLocked();
  metrics.entries->Set(static_cast<double>(lru_.size()));
  metrics.bytes->Set(static_cast<double>(bytes_));
}

void ResultCache::InvalidateAll() {
  const CacheMetrics& metrics = CacheMetrics::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  metrics.invalidations->Add(lru_.size());
  lru_.clear();
  exact_.clear();
  families_.clear();
  bytes_ = 0;
  metrics.entries->Set(0.0);
  metrics.bytes->Set(0.0);
}

size_t ResultCache::InvalidateLocked(const geom::Rect& region) {
  const CacheMetrics& metrics = CacheMetrics::Get();
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->entry->search_box.dim() == region.dim() &&
        it->entry->search_box.Intersects(region)) {
      EraseLocked(it);
      ++dropped;
    }
    it = next;
  }
  metrics.invalidations->Add(dropped);
  metrics.entries->Set(static_cast<double>(lru_.size()));
  metrics.bytes->Set(static_cast<double>(bytes_));
  return dropped;
}

size_t ResultCache::Invalidate(const geom::Rect& region) {
  std::lock_guard<std::mutex> lock(mutex_);
  return InvalidateLocked(region);
}

size_t ResultCache::BeginEpoch(uint64_t epoch, const geom::Rect& dirty_region) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The advance and the drop share one critical section: a stale-pinned
  // Insert serialises either before both (the drop removes it) or after
  // both (the epoch check rejects it) — never in between.
  if (epoch > epoch_) epoch_ = epoch;
  if (dirty_region.IsEmpty()) return 0;
  return InvalidateLocked(dirty_region);
}

uint64_t ResultCache::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace gprq::cache
