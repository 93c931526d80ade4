// A first-in first-out queue over one vector: the agents' packet queues.
//
// Items live in items_[head_, size); pop_front only advances head_. The
// dead prefix is dropped when the queue empties, or once it is at least
// kCompactAt items and half the vector, so each pop costs amortised O(1)
// and the vector never holds more than twice the live items past that
// threshold. A default-constructed Fifo allocates nothing until its first
// push (a std::deque allocates its map and first node up front).
//
// Unlike std::deque, push_back may move every item: a reference from
// front()/back() or an iterator is valid only until the next push_back,
// pop_front or clear.
#ifndef CRN_MAC_FIFO_H_
#define CRN_MAC_FIFO_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace crn::mac {

template <class T>
class Fifo {
 public:
  using value_type = T;
  // The dead prefix pop_front compacts away, at the least.
  static constexpr std::size_t kCompactAt = 16;

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  [[nodiscard]] T& front() {
    CRN_DCHECK(!empty());
    return items_[head_];
  }
  [[nodiscard]] const T& front() const {
    CRN_DCHECK(!empty());
    return items_[head_];
  }
  [[nodiscard]] T& back() {
    CRN_DCHECK(!empty());
    return items_.back();
  }

  void push_back(const T& item) { items_.push_back(item); }

  void pop_front() {
    CRN_DCHECK(!empty());
    if (++head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  // Keeps the capacity, as std::vector::clear does.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  // `count` value-initialised items (the checkpoint load path sizes the
  // queue, then reads each item in place).
  void resize(std::size_t count) {
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    items_.resize(count);
  }

  // Front to back.
  [[nodiscard]] T* begin() { return items_.data() + head_; }
  [[nodiscard]] T* end() { return items_.data() + items_.size(); }
  [[nodiscard]] const T* begin() const { return items_.data() + head_; }
  [[nodiscard]] const T* end() const { return items_.data() + items_.size(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace crn::mac

#endif  // CRN_MAC_FIFO_H_
