#include "harness/work_stealing.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace crn::harness {

namespace {

// One pre-materialized task: a contiguous index range plus its claim flag.
// Plain data — building the task array allocates one vector total, not one
// closure per cell.
struct Chunk {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::atomic<bool> claimed{false};
};

// Contiguous block of chunk ids owned by one worker.
struct Block {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// Per-worker failure slot, written only by its own worker: the lowest cell
// index that threw, plus the exception itself.
struct Failure {
  std::int64_t index = std::numeric_limits<std::int64_t>::max();
  std::exception_ptr error;
};

// Fixed stream root for the victim-order RNG. The randomized visit order is
// a performance policy (it de-correlates thieves so they don't all hammer
// the same victim); claims make any order correct, and no simulation state
// ever derives from this generator.
constexpr std::uint64_t kVictimSeed = 0x57EA15EEDULL;

// 0 on any non-worker thread; workers set their 1-based index for the
// duration of the fan-out.
thread_local std::int32_t t_worker_index = 0;

}  // namespace

std::int32_t CurrentWorkerIndex() { return t_worker_index; }

std::int64_t ResolveGrain(std::int64_t requested, std::int64_t count,
                          std::int32_t workers) {
  if (requested >= 1) return requested;
  const std::int64_t spread = 4 * std::max<std::int64_t>(1, workers);
  return std::max<std::int64_t>(1, count / spread);
}

WorkStealingStats RunWorkStealing(
    std::int64_t count, std::int32_t workers, std::int64_t grain,
    const std::function<void(std::int64_t)>& fn) {
  WorkStealingStats stats;
  if (count <= 0) {
    stats.workers = 1;
    return stats;
  }
  grain = ResolveGrain(grain, count, workers);
  const std::int64_t chunk_count = (count + grain - 1) / grain;
  stats.tasks = count;
  stats.chunks = chunk_count;
  stats.workers = static_cast<std::int32_t>(
      std::min<std::int64_t>(std::max(workers, 1), chunk_count));

  if (stats.workers <= 1) {
    // Serial reference engine: in-order inline execution, no threads, no
    // atomics — the digests every parallel configuration is pinned against.
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return stats;
  }

  std::vector<Chunk> chunks(static_cast<std::size_t>(chunk_count));
  for (std::int64_t c = 0; c < chunk_count; ++c) {
    chunks[static_cast<std::size_t>(c)].begin = c * grain;
    chunks[static_cast<std::size_t>(c)].end = std::min(count, (c + 1) * grain);
  }

  // Block partition: worker w owns a contiguous run of chunks, so its LIFO
  // drain touches adjacent indices (prefab-key locality) and a thief's FIFO
  // scan takes the oldest — farthest from the owner's end — first.
  const std::int32_t worker_count = stats.workers;
  std::vector<Block> blocks(static_cast<std::size_t>(worker_count));
  const std::int64_t per = chunk_count / worker_count;
  const std::int64_t extra = chunk_count % worker_count;
  std::int64_t next = 0;
  for (std::int32_t w = 0; w < worker_count; ++w) {
    blocks[static_cast<std::size_t>(w)].begin = next;
    next += per + (w < extra ? 1 : 0);
    blocks[static_cast<std::size_t>(w)].end = next;
  }

  std::atomic<std::int64_t> steals{0};
  std::vector<Failure> failures(static_cast<std::size_t>(worker_count));

  const auto run_chunk = [&fn](Chunk& chunk, Failure& failure) {
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      try {
        fn(i);
      } catch (...) {
        // Contract: every cell finishes; the lowest-index failure wins.
        if (i < failure.index) {
          failure.index = i;
          failure.error = std::current_exception();
        }
      }
    }
  };

  const auto worker_body = [&](std::int32_t w) {
    t_worker_index = w + 1;
    Failure& failure = failures[static_cast<std::size_t>(w)];
    const Block own = blocks[static_cast<std::size_t>(w)];
    // Phase 1: drain the own block LIFO.
    for (std::int64_t c = own.end - 1; c >= own.begin; --c) {
      Chunk& chunk = chunks[static_cast<std::size_t>(c)];
      if (!chunk.claimed.exchange(true, std::memory_order_acq_rel)) {
        run_chunk(chunk, failure);
      }
    }
    // Phase 2: steal. Visit victims in randomized order; scan each block
    // FIFO and claim the first open chunk. A full pass that observes every
    // claim flag set means all work is claimed (flags never reset), and
    // each claimer finishes its chunk before exiting — so exit.
    Rng rng = Rng(kVictimSeed).Stream("victim-order", static_cast<std::uint64_t>(w));
    std::vector<std::int32_t> victims;
    victims.reserve(static_cast<std::size_t>(worker_count) - 1);
    for (std::int32_t v = 0; v < worker_count; ++v) {
      if (v != w) victims.push_back(v);
    }
    for (;;) {
      // Fisher–Yates with crn::Rng (std <random> engines are banned).
      for (std::size_t i = victims.size(); i > 1; --i) {
        std::swap(victims[i - 1], victims[rng.UniformInt(i)]);
      }
      bool claimed_one = false;
      bool saw_open = false;
      for (const std::int32_t v : victims) {
        const Block victim = blocks[static_cast<std::size_t>(v)];
        for (std::int64_t c = victim.begin; c < victim.end && !claimed_one;
             ++c) {
          Chunk& chunk = chunks[static_cast<std::size_t>(c)];
          if (chunk.claimed.load(std::memory_order_acquire)) continue;
          saw_open = true;
          if (!chunk.claimed.exchange(true, std::memory_order_acq_rel)) {
            steals.fetch_add(1, std::memory_order_relaxed);
            run_chunk(chunk, failure);
            claimed_one = true;
          }
        }
        if (claimed_one) break;
      }
      if (!claimed_one && !saw_open) break;
    }
    t_worker_index = 0;
  };

  // All workers are spawned threads (the caller just joins), so profiler
  // worker tags 1..workers always name a worker and 0 the caller.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(worker_count));
  for (std::int32_t w = 0; w < worker_count; ++w) {
    threads.emplace_back(worker_body, w);
  }
  for (std::thread& thread : threads) thread.join();

  stats.steals = steals.load(std::memory_order_relaxed);

  const Failure* first = nullptr;
  for (const Failure& failure : failures) {
    if (failure.error &&
        (first == nullptr || failure.index < first->index)) {
      first = &failure;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
  return stats;
}

}  // namespace crn::harness
