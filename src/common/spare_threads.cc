#include "common/spare_threads.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.h"

namespace crn::spare_threads {

namespace {

std::atomic<std::int32_t>& Budget() {
  // One count for the whole process, since the cores are shared by every
  // worker and helper in it. Only atomic permit moves change it, and it
  // decides on which thread a result is computed, never what it is.
  static std::atomic<std::int32_t> budget{  // crn-lint-ok: process-wide idle-core count, atomic, never read by a result
      std::max<std::int32_t>(0, static_cast<std::int32_t>(std::thread::hardware_concurrency()) - 1)};
  return budget;
}

}  // namespace

bool TryAcquire() {
  std::atomic<std::int32_t>& budget = Budget();
  std::int32_t free = budget.load(std::memory_order_relaxed);
  while (free > 0) {
    if (budget.compare_exchange_weak(free, free - 1, std::memory_order_relaxed)) return true;
  }
  return false;
}

void Release() { Budget().fetch_add(1, std::memory_order_relaxed); }

Reservation::Reservation(std::int32_t count) : count_(count) {
  CRN_CHECK(count >= 0) << "cannot reserve " << count << " spare threads";
  Budget().fetch_sub(count_, std::memory_order_relaxed);
}

Reservation::~Reservation() { Budget().fetch_add(count_, std::memory_order_relaxed); }

namespace internal {

std::int32_t Available() { return Budget().load(std::memory_order_relaxed); }

}  // namespace internal

}  // namespace crn::spare_threads
