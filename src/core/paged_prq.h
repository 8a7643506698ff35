#ifndef GPRQ_CORE_PAGED_PRQ_H_
#define GPRQ_CORE_PAGED_PRQ_H_

#include <vector>

#include "common/status.h"
#include "core/alpha_catalog.h"
#include "core/engine.h"
#include "core/prq.h"
#include "core/radius_catalog.h"
#include "index/paged_tree.h"
#include "mc/probability_evaluator.h"

namespace gprq::core {

/// Runs the paper's three-phase PRQ over a disk-resident tree snapshot
/// instead of the in-memory R*-tree — the storage setting the paper's
/// experiments model (1 KB node pages). Phase 1 issues a paged range query
/// through the snapshot's buffer pool; everything else is the query body
/// PrqEngine::Execute runs (core::ExecuteInline: the shared filter pass,
/// then Phase 3 against one per-query sample pool), so for equally
/// configured evaluators — Monte-Carlo ones included — the answer equals
/// the in-memory engine's id for id. A paged read error fails the query
/// with its status, and so does a control that fires (this is a
/// complete-answer API).
///
/// Catalog arguments mirror PrqEngine's lazy members: pass prebuilt tables
/// for `options.use_catalogs == true` (both must be non-null and match the
/// tree's dimension), or null with `use_catalogs == false` for exact
/// per-query radii.
Result<std::vector<index::ObjectId>> ExecutePagedPrq(
    const index::PagedRStarTree& tree, const PrqQuery& query,
    const PrqOptions& options, mc::ProbabilityEvaluator* evaluator,
    const RadiusCatalog* radius_catalog, const AlphaCatalog* alpha_catalog,
    PrqStats* stats = nullptr);

}  // namespace gprq::core

#endif  // GPRQ_CORE_PAGED_PRQ_H_
