// Work-stealing fan-out engine behind ParallelRunner (DESIGN.md §15).
//
// The index range [0, count) is pre-materialized into a flat array of
// grain-sized chunks — plain {begin, end, claim-flag} records, no per-cell
// std::function, no queue allocation on the dispatch path. Chunks are
// block-partitioned across workers; each worker drains its own block LIFO
// (newest-first, so adjacent indices — which share scenario prefabs — stay
// on one worker) and then steals FIFO from victims visited in randomized
// order. Exactly-once execution is enforced by a per-chunk atomic claim, so
// the deque discipline is purely a performance policy, never a correctness
// mechanism: any interleaving of owners and thieves runs every index
// exactly once.
//
// Determinism contract: the engine decides only *where and when* fn(i)
// runs, never *what* it computes — cells write results only at their own
// index and the caller reduces in fixed order, so results are bit-identical
// at every workers/grain value. The steal counter is the one scheduling-
// dependent quantity and is reported out-of-band (WorkStealingStats), never
// through the digest-compared MetricsRegistry.
#ifndef CRN_HARNESS_WORK_STEALING_H_
#define CRN_HARNESS_WORK_STEALING_H_

#include <cstdint>
#include <functional>

namespace crn::harness {

// Scheduling diagnostics for one fan-out. tasks/chunks/workers are exact
// functions of (count, workers, grain); steals depends on OS scheduling and
// is bounded above by chunks.
struct WorkStealingStats {
  std::int64_t tasks = 0;   // indices executed (== count)
  std::int64_t chunks = 0;  // grain-sized ranges materialized
  std::int64_t steals = 0;  // chunks executed by a non-owner worker
  std::int32_t workers = 1;
};

// Maps a grain request to a chunk size for `count` cells on `workers`
// workers: values >= 1 are taken literally; 0 (and negatives) mean auto —
// count / (4 * workers), floored at 1, i.e. ~4 chunks per worker so the
// last-finisher imbalance is bounded by a quarter of a worker's share while
// claim traffic stays O(workers).
std::int64_t ResolveGrain(std::int64_t requested, std::int64_t count,
                          std::int32_t workers);

// 1-based index of the worker running the calling thread; 0 when the caller
// is not a worker (the main thread, or any serial fan-out). Profiler spans
// use it as a stable Chrome-trace tid — it never feeds simulation state.
std::int32_t CurrentWorkerIndex();

// Runs fn(0) .. fn(count - 1), each exactly once, on min(workers, chunks)
// threads. Every cell finishes even if some throw; the lowest-index
// exception is rethrown after the join. workers <= 1 runs inline on the
// calling thread (the serial reference engine digests are pinned against).
WorkStealingStats RunWorkStealing(std::int64_t count, std::int32_t workers,
                                  std::int64_t grain,
                                  const std::function<void(std::int64_t)>& fn);

}  // namespace crn::harness

#endif  // CRN_HARNESS_WORK_STEALING_H_
