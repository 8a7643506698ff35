// Example: the disk-resident workflow. An offline job builds the index and
// writes a page-file snapshot (the paper's 1 KB node pages); a serving
// process later opens the snapshot with a small buffer pool and answers
// probabilistic range queries straight off the pages — reporting logical vs
// physical I/O. Finally the snapshot is loaded back into an in-memory tree
// to show the full persistence round-trip.

#include <cstdio>
#include <string>

#include "core/paged_prq.h"
#include "experiments/slice_evaluator.h"
#include "index/paged_tree.h"
#include "index/str_bulk_load.h"
#include "workload/tiger_synthetic.h"

int main() {
  using namespace gprq;
  const std::string path = "/tmp/gprq_example_snapshot.pages";
  const size_t kPageSize = 1024;

  // ---- Offline: build and persist. ---------------------------------------
  {
    const auto dataset = workload::GenerateTigerSynthetic();
    index::RStarTreeOptions options;
    options.max_entries =
        index::TreeSnapshot::MaxEntriesPerPage(kPageSize, 2);
    auto tree = index::StrBulkLoader::Load(2, dataset.points, options);
    if (!tree.ok()) return 1;
    if (!index::TreeSnapshot::Write(*tree, path, kPageSize).ok()) return 1;
    std::printf("offline: wrote %zu points as %zu pages of %zu bytes\n",
                tree->size(), tree->node_count() + 1, kPageSize);
  }

  // ---- Serving: open with a small buffer pool and query. ------------------
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = kPageSize;
  open_options.buffer_pages = 64;  // ~64 KB of cache for a ~2 MB index
  auto paged = index::PagedRStarTree::Open(path, open_options);
  if (!paged.ok()) {
    std::fprintf(stderr, "%s\n", paged.status().ToString().c_str());
    return 1;
  }
  std::printf("serving: opened snapshot (%zu points, height %zu) with a "
              "%zu-page pool\n\n",
              paged->size(), paged->height(), open_options.buffer_pages);

  mc::Slice2DEvaluator evaluator;
  core::PrqOptions options;
  options.use_catalogs = false;
  for (int round = 0; round < 3; ++round) {
    auto g = core::GaussianDistribution::Create(
        la::Vector{500.0, 500.0}, workload::PaperCovariance2D(10.0));
    const core::PrqQuery query{std::move(*g), 25.0, 0.01};
    paged->ResetPoolStats();
    core::PrqStats stats;
    auto result = core::ExecutePagedPrq(*paged, query, options, &evaluator,
                                        nullptr, nullptr, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("round %d: %zu answers, %llu node accesses "
                "(%llu cache hits, %llu page faults), %.1f ms\n",
                round, result->size(),
                static_cast<unsigned long long>(stats.node_reads),
                static_cast<unsigned long long>(paged->pool_stats().hits),
                static_cast<unsigned long long>(paged->pool_stats().misses),
                stats.total_seconds() * 1e3);
  }

  // ---- Round trip: reload into an updatable in-memory tree. ---------------
  auto reloaded = index::TreeSnapshot::Load(path, kPageSize);
  if (!reloaded.ok()) return 1;
  std::printf("\nreloaded the snapshot into memory: %zu points, "
              "invariants %s; the tree accepts updates again.\n",
              reloaded->size(),
              reloaded->CheckInvariants().ok() ? "OK" : "BROKEN");
  std::remove(path.c_str());
  return 0;
}
