#ifndef GPRQ_CORE_ENGINE_H_
#define GPRQ_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/alpha_catalog.h"
#include "core/filters.h"
#include "core/prq.h"
#include "core/radius_catalog.h"
#include "geom/rect.h"
#include "index/rstar_tree.h"
#include "mc/pool_variant.h"
#include "mc/probability_evaluator.h"
#include "obs/trace.h"

namespace gprq::core {

/// Candidate points held flat: point i's coordinates are
/// coords[i·dim, (i+1)·dim) and its id is ids[i]. Holding many points costs
/// two allocations instead of one per point, which is how the result cache
/// keeps its candidate supersets.
struct FlatCandidates {
  size_t dim = 0;
  std::vector<double> coords;
  std::vector<index::ObjectId> ids;

  FlatCandidates() = default;
  /// Flattens (point, id) pairs of one dimension (implicit, so pair lists
  /// convert where a flat set is expected).
  FlatCandidates(  // NOLINT(google-explicit-constructor)
      const std::vector<std::pair<la::Vector, index::ObjectId>>& points);

  size_t size() const { return ids.size(); }

  /// Appends (point, id) pairs of dimension `dim` (or sets it when empty).
  void Append(
      const std::vector<std::pair<la::Vector, index::ObjectId>>& points);

  /// Appends to `kept` the points inside `box` (inclusive, like an index
  /// range query), materializing a vector only for those.
  void GatherContained(
      const geom::Rect& box,
      std::vector<std::pair<la::Vector, index::ObjectId>>* kept) const;
};

/// Where a query's Phase-1 candidates come from: appends every point inside
/// `search_box` (inclusive, like an index range query) to `candidates`. The
/// one thing the serving surfaces differ in — an in-memory R*-tree, a paged
/// tree, a pinned storage snapshot, a cached candidate superset, a shard
/// scatter — so each passes its own source into the shared query body
/// (core::RunFilterPhases). `trace` is the query's record (never null); a
/// source fills its Phase-1 fields (index_visits, shards_routed). A non-OK
/// status (paged or shard I/O) fails the query with that status.
using CandidateSource = std::function<Status(
    const geom::Rect& search_box,
    std::vector<std::pair<la::Vector, index::ObjectId>>* candidates,
    obs::QueryTrace* trace)>;

/// The per-dimension U-catalogs (θ-region radius and BF α tables), built on
/// first use. Prebuilt tables may be lent instead (not owned; they must
/// outlive this object). Thread-compatible: the first use builds, so
/// concurrent first uses race — every owner calls it from its one
/// submitting thread.
class Catalogs {
 public:
  explicit Catalogs(size_t dim, const RadiusCatalog* radius = nullptr,
                    const AlphaCatalog* alpha = nullptr)
      : dim_(dim), radius_(radius), alpha_(alpha) {}

  const RadiusCatalog& radius() const;
  const AlphaCatalog& alpha() const;

 private:
  size_t dim_;
  mutable const RadiusCatalog* radius_;
  mutable const AlphaCatalog* alpha_;
  mutable std::unique_ptr<RadiusCatalog> owned_radius_;
  mutable std::unique_ptr<AlphaCatalog> owned_alpha_;
};

/// Query criticality levels for overload admission (exec::OverloadPolicy):
/// under pressure the serving layer sheds lower priorities first. Plain
/// ints so callers can define intermediate levels; only the order matters.
inline constexpr int kPriorityBackground = 0;
inline constexpr int kPriorityNormal = 1;
inline constexpr int kPriorityCritical = 2;

/// Engine-level options selecting strategies and catalog behavior.
struct PrqOptions {
  /// Which filtering strategies to combine (Section V-A evaluates RR, BF,
  /// RR+BF, RR+OR, BF+OR and ALL).
  StrategyMask strategies = kStrategyAll;

  /// true: θ-region radii and BF α radii come from precomputed U-catalog
  /// tables with the paper's conservative rounding (the paper's setup);
  /// false: they are solved exactly at query time.
  bool use_catalogs = true;

  /// The paper applies the RR fringe filter only for d = 2; the
  /// distance-to-box formulation used here is valid in any dimension.
  /// Set false to restrict it to d = 2 for paper-faithful candidate counts.
  bool fringe_filter_any_dim = true;

  /// Extension (off by default to keep the paper's six combinations
  /// comparable): exact per-axis marginal pruning in the eigen frame
  /// (see core::MarginalFilter). Sound in any dimension; most effective
  /// where the paper reports the classic filters struggling (Section VI's
  /// medium-dimensional anisotropic queries).
  bool use_marginal_filter = false;

  /// Deadline/cancellation for this query. Unbounded by default (one flag
  /// check of overhead). Checked at phase boundaries and between Phase-3
  /// Wilson blocks; when it fires, ExecuteBounded degrades to a sound
  /// partial PrqResult while the complete-answer APIs (Execute,
  /// ExecuteParallel) fail with the control's StopStatus — they have no way
  /// to mark the unresolved remainder and must not guess.
  common::QueryControl control;

  /// Criticality under overload (kPriorityBackground/Normal/Critical).
  /// Ignored unless the query goes through a BatchExecutor with an
  /// OverloadPolicy installed; then the load shedder rejects
  /// lower-priority queries first when watermarks are crossed.
  int priority = kPriorityNormal;

  /// How sampling evaluators draw the per-query Phase-3 sample pool:
  /// the paper's pseudo-random importance sampling (default) or the
  /// randomized-Halton QMC variant (see mc::PoolVariant). Ignored by exact
  /// evaluators. Result-changing — part of cache::FilterConfigBits.
  mc::PoolVariant pool_variant = mc::PoolVariant::kPseudoRandom;
};

/// Three-phase processor for probabilistic range queries over an R*-tree of
/// exact points (Section III-B): (1) index-based search on a rectilinear
/// region, (2) analytical filtering, (3) numerical integration for the
/// survivors. The engine owns the per-dimension U-catalogs and builds them
/// lazily on first use.
class PrqEngine {
 public:
  /// The engine references (not owns) the tree. Object ids reported in
  /// results are the ids stored in the tree.
  explicit PrqEngine(const index::RStarTree* tree);

  /// Product of Phases 1-2: objects already accepted via the BF inner radius,
  /// and the candidates whose qualification probability Phase 3 must settle.
  /// Exposed so Phase-3 drivers (Execute variants here, exec::BatchExecutor)
  /// can share one filter implementation.
  struct FilterOutcome {
    std::vector<std::pair<la::Vector, index::ObjectId>> accepted;
    std::vector<std::pair<la::Vector, index::ObjectId>> survivors;
    bool proved_empty = false;
    /// The query's control fired during the filter phases. Phase 2 was then
    /// skipped and every Phase-1 candidate moved to `survivors` (a
    /// conservative superset — filtering only removes *certain*
    /// non-qualifiers, so skipping it is sound); drivers must surface the
    /// survivors as undecided instead of integrating them.
    bool expired = false;
    /// The rectilinear Phase-1 search region (RR box ∩ BF box, BF box, or
    /// the OR bounding box — see RunFilterPhases). Every object that can
    /// qualify lies inside it, which is what makes it a sound containment
    /// key for the semantic result cache: a cached answer whose box contains
    /// a narrower query's box covers every point the narrower query could
    /// return. Meaningful only when !proved_empty and !expired-before-prep.
    geom::Rect search_box = geom::Rect::Empty(0);
  };

  /// core::RunFilterPhases over this engine's tree: validation,
  /// preparation and Phases 1-2. Phase 3 — deciding the survivors — is the
  /// caller's job (exec::BatchExecutor fans it over a worker pool;
  /// ExecuteBounded runs it inline).
  Status RunFilterPhases(const PrqQuery& query, const PrqOptions& options,
                         FilterOutcome* outcome, PrqStats* stats,
                         obs::QueryTrace* trace = nullptr) const;

  /// Phase 1 over this engine's R*-tree, counting node reads into the
  /// trace's index_visits.
  CandidateSource IndexSource() const;

  /// Runs PRQ(q, δ, θ): ExecuteBounded with the answer required complete
  /// (core::RequireComplete). `evaluator` supplies Phase-3 probabilities
  /// (Monte-Carlo or exact). If `stats` is non-null it receives phase
  /// timings and candidate counts. Returns the qualifying object ids
  /// (unordered).
  Result<std::vector<index::ObjectId>> Execute(
      const PrqQuery& query, const PrqOptions& options,
      mc::ProbabilityEvaluator* evaluator, PrqStats* stats = nullptr) const;

  /// Deadline/cancellation-aware Execute: runs PRQ(q, δ, θ) under
  /// options.control and degrades gracefully when it fires. The returned
  /// PrqResult's `ids` are exact (bit-identical to what an unbounded run
  /// decides for those candidates — the control truncates work, never
  /// alters it); candidates the stopped query could not resolve are listed
  /// in `undecided` and `status` carries DeadlineExceeded/Cancelled. A
  /// control that is already stopped on entry short-circuits before
  /// evaluator or pool construction. An error Result is returned only for
  /// invalid arguments, never for an expired deadline.
  Result<PrqResult> ExecuteBounded(const PrqQuery& query,
                                   const PrqOptions& options,
                                   mc::ProbabilityEvaluator* evaluator,
                                   PrqStats* stats = nullptr) const;

  /// Builds one evaluator per Phase-3 worker thread. Each worker needs its
  /// own instance because evaluators carry mutable state (RNG streams);
  /// give Monte-Carlo workers distinct seeds derived from `worker`.
  using EvaluatorFactory =
      std::function<std::unique_ptr<mc::ProbabilityEvaluator>(size_t worker)>;

  /// Like Execute, but Phase 3 fans the surviving candidates out over
  /// `num_threads` workers. Phases 1-2 and all filtering semantics are
  /// identical; the result set (as a set) matches Execute with an
  /// equivalent evaluator. The numerical integrations are embarrassingly
  /// parallel, and Phase 3 dominates query cost (paper Section V-B: at
  /// least 97% of processing time), so speedup is near-linear.
  ///
  /// This is the one-shot convenience form: it builds a worker pool and the
  /// per-worker evaluators per call, and tears them down afterwards. A
  /// worker exception surfaces as Status::Internal. Query streams should
  /// hold an exec::BatchExecutor instead, which keeps threads and
  /// evaluators alive across queries.
  Result<std::vector<index::ObjectId>> ExecuteParallel(
      const PrqQuery& query, const PrqOptions& options,
      const EvaluatorFactory& factory, size_t num_threads,
      PrqStats* stats = nullptr) const;

  /// Like Execute, but each qualifying object comes with its qualification
  /// probability (sorted descending). Inner-accepted objects are evaluated
  /// too (their probability is wanted, even though their membership was
  /// already certain), so Phase 3 runs one evaluation per result instead
  /// of one per surviving candidate only — use an exact evaluator unless
  /// sampling noise in the reported scores is acceptable.
  Result<std::vector<std::pair<index::ObjectId, double>>> ExecuteScored(
      const PrqQuery& query, const PrqOptions& options,
      mc::ProbabilityEvaluator* evaluator, PrqStats* stats = nullptr) const;

  /// The effective θ-region radius the engine would use for this θ —
  /// table-rounded when `use_catalogs`, exact otherwise, and 0 for
  /// θ >= 1/2 (see RrRegion::Compute). Exposed for the region benches.
  double EffectiveThetaRadius(double theta, bool use_catalogs) const;

  /// The engine's catalogs (built on demand); exposed for benches/tests.
  const Catalogs& catalogs() const { return catalogs_; }
  const RadiusCatalog& radius_catalog() const { return catalogs_.radius(); }
  const AlphaCatalog& alpha_catalog() const { return catalogs_.alpha(); }

  /// The indexed dataset; exposed so admission control can derive a
  /// dataset-density cost proxy (exec::EstimateQueryCost).
  const index::RStarTree& tree() const { return *tree_; }

 private:
  const index::RStarTree* tree_;
  // Built on first use; the tree fixes the dimension.
  Catalogs catalogs_;
};

/// The status of an answer the query's control left partial: the stop
/// status (DeadlineExceeded/Cancelled), ResourceExhausted when a brownout
/// sample budget ran out, and Internal when nothing explains the undecided
/// candidates (defensive — they must never go unexplained).
Status DegradedStatus(const common::QueryControl& control);

/// The single-thread bounded query over any candidate source: the shared
/// filter pass (core::RunFilterPhases), then Phase 3 inline against one
/// per-query sample pool. PrqEngine::ExecuteBounded runs it over the
/// in-memory tree and core::ExecutePagedPrq over a paged one, so for the
/// same evaluator the two answer identically.
Result<PrqResult> ExecuteInline(size_t dim, const Catalogs& catalogs,
                                const CandidateSource& source,
                                const PrqQuery& query,
                                const PrqOptions& options,
                                mc::ProbabilityEvaluator* evaluator,
                                PrqStats* stats);

}  // namespace gprq::core

#endif  // GPRQ_CORE_ENGINE_H_
