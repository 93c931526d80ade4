// The process's budget of spare hardware threads.
//
// Work that could run on an otherwise idle core (today: the PU activity
// stream's lookahead helper, pu/activity_stream.h) asks here before it
// starts a thread, so a process whose workers already fill every core
// never oversubscribes. The budget starts at hardware_concurrency() − 1:
// every core but the calling thread's. A worker pool reserves one permit
// per worker beyond the calling thread for its lifetime, whether or not
// that many are free, so the budget may go negative while pools overlap.
// Neither the budget nor a permit changes any result: whatever runs on a
// spare thread computes bits that the calling thread would otherwise
// compute itself.
#ifndef CRN_COMMON_SPARE_THREADS_H_
#define CRN_COMMON_SPARE_THREADS_H_

#include <cstdint>

namespace crn::spare_threads {

// Takes one permit when at least one is free; true when it took one.
[[nodiscard]] bool TryAcquire();
// Returns a permit TryAcquire took.
void Release();

// Holds `count` permits (count >= 0) from construction to destruction,
// free or not.
class Reservation {
 public:
  explicit Reservation(std::int32_t count);
  ~Reservation();
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;

 private:
  std::int32_t count_;
};

namespace internal {

// Permits free now (negative while reservations exceed the budget). For
// tests that check what a stream or a pool took.
[[nodiscard]] std::int32_t Available();

}  // namespace internal

}  // namespace crn::spare_threads

#endif  // CRN_COMMON_SPARE_THREADS_H_
