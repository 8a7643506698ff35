#include "exec/batch_executor.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "core/filter_pipeline.h"
#include "fault/failpoint.h"
#include "mc/sample_pool.h"

namespace gprq::exec {
namespace {

// Sampling counters recorded at the source by mc::SamplePool; read here as
// deltas to attribute per-query sample usage to a trace.
struct SampleCounters {
  obs::Counter* samples_used;
  obs::Counter* early_stops;
  obs::Counter* undecided;

  static const SampleCounters& Get() {
    static const SampleCounters counters = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return SampleCounters{r.GetCounter("gprq.mc.samples_used"),
                            r.GetCounter("gprq.mc.early_stops"),
                            r.GetCounter("gprq.mc.undecided")};
    }();
    return counters;
  }
};

// Degradation counters, shared by name with the engine's bounded path (the
// engine publishes them through obs::PublishPhase3; the executor increments
// directly because its Phase-3 metrics live under `gprq.exec.*`).
struct DeadlineMetrics {
  obs::Counter* expired_queries;
  obs::Counter* undecided_candidates;

  static const DeadlineMetrics& Get() {
    static const DeadlineMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return DeadlineMetrics{
          r.GetCounter("gprq.deadline.expired_queries"),
          r.GetCounter("gprq.deadline.undecided_candidates")};
    }();
    return metrics;
  }
};

uint64_t CounterDelta(uint64_t now, uint64_t before) {
  return now >= before ? now - before : 0;
}

bool IsStopStatus(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

}  // namespace

void BatchExecutor::ErrorCollector::Record(std::string msg) {
  std::lock_guard<std::mutex> lock(mutex);
  if (failed) return;
  failed = true;
  message = std::move(msg);
}

Status BatchExecutor::ErrorCollector::ToStatus() const {
  // No lock: read after the fan-out's latch, when workers are done writing.
  if (!failed) return Status::OK();
  return Status::Internal("worker evaluator failed: " + message);
}

BatchExecutor::BatchExecutor(
    const core::PrqEngine* engine,
    std::vector<std::unique_ptr<mc::ProbabilityEvaluator>> evaluators)
    : engine_(engine),
      pool_(evaluators.size()),
      evaluators_(std::move(evaluators)) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  metrics_.queries = registry.GetCounter("gprq.exec.queries");
  metrics_.integrations = registry.GetCounter("gprq.exec.integrations");
  metrics_.accepted_without_integration =
      registry.GetCounter("gprq.exec.accepted_without_integration");
  metrics_.results = registry.GetCounter("gprq.exec.results");
  metrics_.num_workers = registry.GetGauge("gprq.exec.num_workers");
  metrics_.phase3_nanos = registry.GetHistogram("gprq.exec.phase3_nanos");
  metrics_.worker_integrations.reserve(pool_.num_workers());
  for (size_t w = 0; w < pool_.num_workers(); ++w) {
    metrics_.worker_integrations.push_back(registry.GetCounter(
        "gprq.exec.worker." + std::to_string(w) + ".integrations"));
  }
  // The counters are process-wide and monotonic; remember where they stood
  // so Snapshot() can report this executor's own traffic.
  metrics_.baseline_queries = metrics_.queries->Value();
  metrics_.baseline_integrations = metrics_.integrations->Value();
  metrics_.baseline_accepted =
      metrics_.accepted_without_integration->Value();
  metrics_.baseline_results = metrics_.results->Value();
  metrics_.num_workers->Set(static_cast<double>(pool_.num_workers()));
}

Result<std::unique_ptr<BatchExecutor>> BatchExecutor::Create(
    const core::PrqEngine* engine,
    const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (!factory) {
    return Status::InvalidArgument("evaluator factory must not be null");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  // Seed the per-worker evaluators exactly once, before any thread starts;
  // after this, worker w owns evaluators[w] for the executor's lifetime.
  std::vector<std::unique_ptr<mc::ProbabilityEvaluator>> evaluators;
  evaluators.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    try {
      evaluators.push_back(factory(w));
    } catch (const std::exception& e) {
      return Status::Internal(std::string("evaluator factory threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("evaluator factory threw");
    }
    if (evaluators.back() == nullptr) {
      return Status::InvalidArgument("factory returned a null evaluator");
    }
  }
  return std::unique_ptr<BatchExecutor>(
      new BatchExecutor(engine, std::move(evaluators)));
}

Result<std::unique_ptr<BatchExecutor>> BatchExecutor::Create(
    const core::PrqEngine* engine,
    const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads,
    const OverloadPolicy& policy) {
  Result<std::unique_ptr<BatchExecutor>> executor =
      Create(engine, factory, num_threads);
  if (!executor.ok()) return executor;
  GPRQ_RETURN_NOT_OK((*executor)->SetOverloadPolicy(policy));
  return executor;
}

Result<std::unique_ptr<BatchExecutor>> BatchExecutor::CreateDetached(
    const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads) {
  if (!factory) {
    return Status::InvalidArgument("evaluator factory must not be null");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  std::vector<std::unique_ptr<mc::ProbabilityEvaluator>> evaluators;
  evaluators.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    try {
      evaluators.push_back(factory(w));
    } catch (const std::exception& e) {
      return Status::Internal(std::string("evaluator factory threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("evaluator factory threw");
    }
    if (evaluators.back() == nullptr) {
      return Status::InvalidArgument("factory returned a null evaluator");
    }
  }
  return std::unique_ptr<BatchExecutor>(
      new BatchExecutor(nullptr, std::move(evaluators)));
}

Status BatchExecutor::EnableResultCache(
    const cache::ResultCacheOptions& options) {
  if (options.max_entries == 0) {
    return Status::InvalidArgument("cache max_entries must be >= 1");
  }
  if (options.max_bytes == 0) {
    return Status::InvalidArgument("cache max_bytes must be >= 1");
  }
  cache_ = std::make_unique<cache::ResultCache>(options);
  return Status::OK();
}

Status BatchExecutor::SetOverloadPolicy(const OverloadPolicy& policy) {
  if (engine_ == nullptr) {
    return Status::InvalidArgument(
        "detached executor has no engine; overload governance lives in the "
        "sharded engine's submit path");
  }
  GPRQ_RETURN_NOT_OK(policy.Validate());
  // Density is a property of the dataset; computing it here keeps the
  // per-query cost estimate to a handful of multiplications.
  dataset_density_ = DatasetDensity(engine_->tree());
  overload_ = std::make_unique<OverloadController>(policy);
  return Status::OK();
}

size_t BatchExecutor::Phase3ChunkCount(size_t survivors) const {
  return std::min(pool_.num_workers(), survivors);
}

std::shared_ptr<const mc::SamplePool> BatchExecutor::MakeQueryPool(
    const core::PrqQuery& query, mc::PoolVariant pool_variant) {
  return evaluators_[0]->MakeSamplePool(query.query_object, pool_variant);
}

Status BatchExecutor::RunTasks(std::vector<WorkerPool::Task> tasks) {
  if (tasks.empty()) return Status::OK();
  ErrorCollector errors;
  CountdownLatch latch(tasks.size());
  for (WorkerPool::Task& task : tasks) {
    pool_.Submit([task = std::move(task), &errors, &latch](size_t worker) {
      try {
        task(worker);
      } catch (const std::exception& e) {
        errors.Record(e.what());
      } catch (...) {
        errors.Record("unknown exception");
      }
      latch.CountDown();
    });
  }
  latch.Wait();
  if (!errors.failed) return Status::OK();
  return Status::Internal("task failed: " + errors.message);
}

void BatchExecutor::EnqueuePhase3(
    const core::PrqQuery& query,
    const std::vector<std::pair<la::Vector, index::ObjectId>>& survivors,
    std::shared_ptr<const mc::SamplePool> pool,
    const common::QueryControl& control, QuerySlot* slot,
    CountdownLatch* latch) {
  const size_t n = survivors.size();
  const size_t chunks = Phase3ChunkCount(n);
  for (size_t c = 0; c < chunks; ++c) {
    // Static block partition: integrations have similar cost, so this
    // balances well without synchronization.
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    pool_.Submit([this, &query, &survivors, pool, control, begin, end, slot,
                  latch](size_t worker) {
      const size_t count = end - begin;
      // Degrade, never guess: a chunk that fails (injected fault or
      // evaluator exception) surfaces all its candidates as undecided in
      // this query's slot — the other queries of the fan-out, and this
      // query's other chunks, are untouched.
      const auto fail_chunk = [&](std::string message) {
        std::lock_guard<std::mutex> lock(slot->merge_mutex);
        slot->errors.Record(std::move(message));
        for (size_t i = 0; i < count; ++i) {
          slot->undecided.push_back(survivors[begin + i].second);
        }
      };
      try {
        const Status injected = GPRQ_FAILPOINT("exec.batch_executor.chunk");
        if (!injected.ok()) {
          fail_chunk(injected.ToString());
        } else {
          mc::ProbabilityEvaluator* evaluator = evaluators_[worker].get();
          // One batched call per chunk against the query's shared read-only
          // pool (null pool ⇒ the evaluator's per-candidate fallback).
          std::vector<const la::Vector*> objects(count);
          for (size_t i = 0; i < count; ++i) {
            objects[i] = &survivors[begin + i].first;
          }
          std::vector<char> states(count, 0);
          evaluator->DecideBatchBounded(query.query_object, objects.data(),
                                        count, query.delta, query.theta,
                                        pool.get(), control, states.data());
          // Collect locally and merge once after the chunk: the workers
          // never write interleaved into adjacent heap blocks, so there is
          // no false sharing on the result cache lines (and only one lock
          // acquisition per chunk).
          std::vector<index::ObjectId> local;
          std::vector<index::ObjectId> local_undecided;
          for (size_t i = 0; i < count; ++i) {
            if (states[i] == mc::kDecideIncluded) {
              local.push_back(survivors[begin + i].second);
            } else if (states[i] == mc::kDecideUndecided) {
              local_undecided.push_back(survivors[begin + i].second);
            }
          }
          const size_t decided = count - local_undecided.size();
          metrics_.integrations->Add(decided);
          metrics_.worker_integrations[worker]->Add(decided);
          std::lock_guard<std::mutex> lock(slot->merge_mutex);
          slot->merged.insert(slot->merged.end(), local.begin(), local.end());
          slot->undecided.insert(slot->undecided.end(),
                                 local_undecided.begin(),
                                 local_undecided.end());
        }
      } catch (const std::exception& e) {
        fail_chunk(e.what());
      } catch (...) {
        fail_chunk("unknown exception");
      }
      latch->CountDown();
    });
  }
}

Result<core::PrqResult> BatchExecutor::IntegrateOutcomeBounded(
    const core::PrqQuery& query, core::PrqEngine::FilterOutcome outcome,
    const common::QueryControl& control, core::PrqStats* stats,
    obs::QueryTrace* trace, mc::PoolVariant pool_variant) {
  // Sampling counters are recorded at the source (mc::SamplePool); the
  // deltas around the fan-out attribute them to this query's trace.
  const SampleCounters& samples = SampleCounters::Get();
  const uint64_t samples_before =
      (trace != nullptr) ? samples.samples_used->Value() : 0;
  const uint64_t early_before =
      (trace != nullptr) ? samples.early_stops->Value() : 0;
  const uint64_t undecided_before =
      (trace != nullptr) ? samples.undecided->Value() : 0;

  ScopedTimer phase_timer(metrics_.phase3_nanos);
  core::PrqResult result;
  result.ids.reserve(outcome.accepted.size() + outcome.survivors.size());
  for (const auto& [point, id] : outcome.accepted) result.ids.push_back(id);

  if (outcome.expired || (!control.Unbounded() && control.ShouldStop())) {
    // Fired during the filter phases or before the fan-out: every survivor
    // is unresolved, without building a pool or waking a worker. The
    // inner-accepted ids stay — they were proven before the stop.
    result.undecided.reserve(outcome.survivors.size());
    for (const auto& [point, id] : outcome.survivors) {
      result.undecided.push_back(id);
    }
    result.status = core::DegradedStatus(control);
  } else if (!outcome.survivors.empty()) {
    QuerySlot slot;
    CountdownLatch latch(Phase3ChunkCount(outcome.survivors.size()));
    EnqueuePhase3(query, outcome.survivors,
                  MakeQueryPool(query, pool_variant), control, &slot, &latch);
    latch.Wait();
    // After the latch no worker writes to the slot; reads need no lock.
    result.ids.insert(result.ids.end(), slot.merged.begin(),
                      slot.merged.end());
    result.undecided = std::move(slot.undecided);
    if (slot.errors.failed) {
      result.status = slot.errors.ToStatus();
    } else if (!result.undecided.empty()) {
      result.status = core::DegradedStatus(control);
    }
  }
  const uint64_t phase3_nanos = phase_timer.Stop();

  metrics_.queries->Add(1);
  metrics_.accepted_without_integration->Add(outcome.accepted.size());
  metrics_.results->Add(result.ids.size());
  if (IsStopStatus(result.status)) {
    DeadlineMetrics::Get().expired_queries->Add(1);
    DeadlineMetrics::Get().undecided_candidates->Add(
        result.undecided.size());
  }
  if (stats != nullptr) {
    stats->phase3_seconds = phase3_nanos * 1e-9;
    stats->result_size = result.ids.size();
  }
  if (trace != nullptr) {
    trace->phase_nanos[obs::QueryTrace::kPhase3] += phase3_nanos;
    trace->integrations +=
        outcome.survivors.size() - result.undecided.size();
    trace->result_size = result.ids.size();
    trace->deadline_expired = IsStopStatus(result.status);
    trace->deadline_undecided = result.undecided.size();
    trace->samples_used +=
        CounterDelta(samples.samples_used->Value(), samples_before);
    trace->early_stops +=
        CounterDelta(samples.early_stops->Value(), early_before);
    trace->undecided +=
        CounterDelta(samples.undecided->Value(), undecided_before);
  }
  return result;
}

Result<core::PrqResult> BatchExecutor::ExecuteBounded(
    const core::PrqQuery& query, const core::PrqOptions& options, size_t dim,
    const core::Catalogs& catalogs, const core::CandidateSource& source,
    cache::ResultCache* cache, uint64_t epoch, core::PrqStats* stats,
    obs::QueryTrace* trace, AdmissionTicket* ticket) {
  core::PrqStats local_stats;
  core::PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = core::PrqStats();

  const uint64_t config_bits =
      (cache != nullptr) ? cache::FilterConfigBits(options) : 0;
  cache::ResultCache::Lookup hit;
  if (cache != nullptr) hit = cache->Find(query, config_bits, epoch);
  if (hit.kind == cache::ResultCache::HitKind::kExact) {
    // The stored answer is complete and deterministic — serve it verbatim,
    // before any stop check: no filter phases, no pool, no fan-out, so it
    // is strictly better than any degraded execution.
    if (ticket != nullptr) overload_->Refine(ticket, 0.0);
    metrics_.queries->Add(1);
    metrics_.results->Add(hit.entry->ids.size());
    core::PrqResult result;
    result.ids = hit.entry->ids;
    out_stats.result_size = result.ids.size();
    if (trace != nullptr) {
      *trace = obs::QueryTrace();
      trace->cache_hit_exact = true;
      trace->result_size = result.ids.size();
    }
    return result;
  }

  // A semantic hit replaces Phase 1 with a containment scan of the cached
  // candidate superset (no index visit); Rect::Contains is inclusive like a
  // range query, so the kept set equals the index answer. Phase 3 runs
  // normally — the per-query pool is a pure function of (seed, query), so
  // the decided ids are identical to a fresh execution's.
  const bool semantic = hit.kind == cache::ResultCache::HitKind::kSemantic;
  const core::CandidateSource cached =
      [&hit](const geom::Rect& search_box,
             std::vector<std::pair<la::Vector, index::ObjectId>>* kept,
             obs::QueryTrace*) {
        hit.entry->candidates.GatherContained(search_box, kept);
        return Status::OK();
      };
  core::PrqEngine::FilterOutcome outcome;
  GPRQ_RETURN_NOT_OK(core::RunFilterPhases(dim, catalogs,
                                           semantic ? cached : source, query,
                                           options, &outcome, &out_stats,
                                           trace));
  if (trace != nullptr) trace->cache_hit_semantic = semantic;
  if (ticket != nullptr) {
    // Phase 2 knows the true cost; replace the admission-time estimate so
    // over-estimated budget frees for queued submitters right away.
    overload_->Refine(ticket, static_cast<double>(outcome.survivors.size()));
  }
  if (outcome.proved_empty) {
    metrics_.queries->Add(1);
    return core::PrqResult{};
  }

  // Snapshot what an eventual cache entry needs before the outcome is
  // consumed: the candidate superset for future containment serves is
  // accepted ∪ survivors (see cache::CachedEntry for why that set is sound
  // for every θ' ≥ θ). The copy is only paid when the cache is on.
  const bool cacheable = cache != nullptr && !outcome.expired;
  core::FlatCandidates candidates;
  geom::Rect search_box;
  if (cacheable) {
    candidates.Append(outcome.accepted);
    candidates.Append(outcome.survivors);
    search_box = outcome.search_box;
  }
  Result<core::PrqResult> result =
      IntegrateOutcomeBounded(query, std::move(outcome), options.control,
                              &out_stats, trace, options.pool_variant);
  if (cacheable && result.ok() && result->complete()) {
    // Only complete answers are published: a degraded result (deadline,
    // brownout, worker failure) is truncated work, not the query's answer.
    // The insert is epoch-validated inside the cache: a commit landing
    // during the query advances the cache's epoch (under the cache's own
    // lock, before its snapshot publishes), so an answer computed against
    // an older pin is rejected there rather than installed stale.
    cache->Insert(query, config_bits, search_box, std::move(candidates),
                  result->ids, epoch);
  }
  return result;
}

Result<core::PrqResult> BatchExecutor::SubmitBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  if (engine_ == nullptr) {
    return Status::InvalidArgument(
        "detached executor cannot run filter phases; submit through the "
        "sharded engine");
  }
  const size_t dim = engine_->tree().dim();
  if (overload_ == nullptr) {
    return ExecuteBounded(query, options, dim, engine_->catalogs(),
                          engine_->IndexSource(), cache_.get(), 0, stats,
                          trace);
  }

  // Governed path: admission first (cheap, and shed queries never touch
  // the submit mutex), then the single-submitter execution section.
  AdmissionTicket ticket = overload_->Admit(
      EstimateQueryCost(*engine_, query, options, dataset_density_),
      options.priority, options.control);
  if (!ticket.admitted) {
    if (trace != nullptr) {
      *trace = obs::QueryTrace();
      trace->shed = true;
      trace->admission_wait_nanos =
          static_cast<uint64_t>(ticket.queue_wait_seconds * 1e9);
      trace->cost_estimate = ticket.cost;
    }
    if (stats != nullptr) *stats = core::PrqStats();
    core::PrqResult rejected;
    rejected.status = std::move(ticket.rejection);
    return rejected;
  }

  core::PrqOptions effective = options;
  if (ticket.brownout) overload_->ApplyBrownout(&effective);

  Result<core::PrqResult> result = core::PrqResult{};
  {
    std::lock_guard<std::mutex> lock(submit_mutex_);
    result = ExecuteBounded(query, effective, dim, engine_->catalogs(),
                            engine_->IndexSource(), cache_.get(), 0, stats,
                            trace, &ticket);
  }
  overload_->Release(ticket);
  if (trace != nullptr) {
    trace->browned_out = ticket.brownout;
    trace->admission_wait_nanos =
        static_cast<uint64_t>(ticket.queue_wait_seconds * 1e9);
    trace->cost_estimate = ticket.cost;
  }
  return result;
}

Result<std::vector<index::ObjectId>> BatchExecutor::Submit(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  return core::RequireComplete(SubmitBounded(query, options, stats, trace));
}

Result<std::vector<core::PrqResult>> BatchExecutor::SubmitBatchBounded(
    const std::vector<core::PrqQuery>& queries,
    const core::PrqOptions& options,
    const std::vector<common::QueryControl>* controls,
    std::vector<core::PrqStats>* stats) {
  if (engine_ == nullptr) {
    return Status::InvalidArgument(
        "detached executor cannot run filter phases; submit through the "
        "sharded engine");
  }
  const size_t nq = queries.size();
  if (controls != nullptr && controls->size() != nq) {
    return Status::InvalidArgument(
        "controls must be empty or match queries in size");
  }
  if (stats != nullptr) {
    stats->assign(nq, core::PrqStats());
  }

  // Phases 1-2 for every query up front, on this thread; a query that fails
  // validation or whose control already fired degrades *its own* result and
  // nothing else. The per-query sample pools are built here too: evaluator
  // state may only be touched while no fan-out is in flight, and after the
  // first enqueue below, worker 0 may already be running.
  std::vector<core::PrqResult> results(nq);
  std::vector<core::PrqEngine::FilterOutcome> outcomes(nq);
  std::vector<std::shared_ptr<const mc::SamplePool>> pools(nq);
  std::vector<std::unique_ptr<QuerySlot>> slots(nq);
  std::vector<common::QueryControl> query_controls(nq);
  size_t total_chunks = 0;
  for (size_t q = 0; q < nq; ++q) {
    core::PrqOptions q_options = options;
    if (controls != nullptr) q_options.control = (*controls)[q];
    query_controls[q] = q_options.control;

    core::PrqStats local_stats;
    core::PrqStats& out_stats =
        (stats != nullptr) ? (*stats)[q] : local_stats;
    Status filtered = engine_->RunFilterPhases(queries[q], q_options,
                                               &outcomes[q], &out_stats);
    if (!filtered.ok()) {
      results[q].status = std::move(filtered);
      continue;
    }
    if (outcomes[q].proved_empty) continue;

    results[q].ids.reserve(outcomes[q].accepted.size());
    for (const auto& [point, id] : outcomes[q].accepted) {
      results[q].ids.push_back(id);
    }
    metrics_.accepted_without_integration->Add(outcomes[q].accepted.size());

    const common::QueryControl& control = query_controls[q];
    if (outcomes[q].expired ||
        (!control.Unbounded() && control.ShouldStop())) {
      results[q].undecided.reserve(outcomes[q].survivors.size());
      for (const auto& [point, id] : outcomes[q].survivors) {
        results[q].undecided.push_back(id);
      }
      results[q].status = core::DegradedStatus(control);
      continue;
    }
    if (outcomes[q].survivors.empty()) continue;
    pools[q] = MakeQueryPool(queries[q], options.pool_variant);
    slots[q] = std::make_unique<QuerySlot>();
    total_chunks += Phase3ChunkCount(outcomes[q].survivors.size());
  }

  // One fan-out for the whole batch: every query's chunks are in flight
  // together, so workers drain query i+1 while stragglers finish query i.
  CountdownLatch latch(total_chunks);
  Stopwatch phase_timer;
  for (size_t q = 0; q < nq; ++q) {
    if (slots[q] == nullptr) continue;
    EnqueuePhase3(queries[q], outcomes[q].survivors, std::move(pools[q]),
                  query_controls[q], slots[q].get(), &latch);
  }
  latch.Wait();

  const uint64_t phase3_nanos = phase_timer.ElapsedNanos();
  metrics_.phase3_nanos->Record(phase3_nanos);
  const double phase3_seconds = phase3_nanos * 1e-9;
  metrics_.queries->Add(nq);
  for (size_t q = 0; q < nq; ++q) {
    if (slots[q] != nullptr) {
      results[q].ids.insert(results[q].ids.end(), slots[q]->merged.begin(),
                            slots[q]->merged.end());
      results[q].undecided = std::move(slots[q]->undecided);
      if (slots[q]->errors.failed) {
        results[q].status = slots[q]->errors.ToStatus();
      } else if (!results[q].undecided.empty()) {
        results[q].status = core::DegradedStatus(query_controls[q]);
      }
    }
    if (IsStopStatus(results[q].status)) {
      DeadlineMetrics::Get().expired_queries->Add(1);
      DeadlineMetrics::Get().undecided_candidates->Add(
          results[q].undecided.size());
    }
    metrics_.results->Add(results[q].ids.size());
    if (stats != nullptr) {
      (*stats)[q].phase3_seconds = phase3_seconds;
      (*stats)[q].result_size = results[q].ids.size();
    }
  }
  return results;
}

Result<std::vector<std::vector<index::ObjectId>>> BatchExecutor::SubmitBatch(
    const std::vector<core::PrqQuery>& queries,
    const core::PrqOptions& options, std::vector<core::PrqStats>* stats) {
  Result<std::vector<core::PrqResult>> bounded =
      SubmitBatchBounded(queries, options, nullptr, stats);
  if (!bounded.ok()) return bounded.status();
  std::vector<std::vector<index::ObjectId>> results;
  results.reserve(bounded->size());
  // Compat: this API cannot express per-query failure, so the first
  // degraded query fails the whole batch (the bounded API keeps the other
  // queries' answers).
  for (core::PrqResult& r : *bounded) {
    if (!r.status.ok()) return r.status;
    results.push_back(std::move(r.ids));
  }
  return results;
}

ExecStats BatchExecutor::Snapshot() const {
  // Counters are process-wide; subtracting the construction-time baselines
  // recovers this executor's own traffic.
  ExecStats snapshot;
  snapshot.queries =
      CounterDelta(metrics_.queries->Value(), metrics_.baseline_queries);
  snapshot.integrations = CounterDelta(metrics_.integrations->Value(),
                                       metrics_.baseline_integrations);
  snapshot.accepted_without_integration =
      CounterDelta(metrics_.accepted_without_integration->Value(),
                   metrics_.baseline_accepted);
  snapshot.results =
      CounterDelta(metrics_.results->Value(), metrics_.baseline_results);
  snapshot.uptime_seconds = uptime_.ElapsedSeconds();
  // The gprq.exec.queue_depth gauge is maintained live by the WorkerPool
  // at enqueue/dequeue; snapshotting is a pure read with no side effects.
  snapshot.queue_depth = pool_.QueueDepth();
  snapshot.num_workers = pool_.num_workers();
  return snapshot;
}

Status BatchExecutor::Drain(double timeout_seconds) {
  // Ungoverned executors have no in-flight ledger: their single-submitter
  // contract means the caller *is* the in-flight query, so returning from
  // SubmitBounded already implies idleness.
  if (overload_ == nullptr) return Status::OK();
  return overload_->WaitIdle(timeout_seconds);
}

}  // namespace gprq::exec
