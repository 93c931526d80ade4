// A first-in first-out queue over one vector, with one item inline: the
// agents' packet queues.
//
// While the queue holds at most one item and has never held two since it
// last emptied, that item lives inline (one_) and the vector is untouched,
// so a queue that only ever holds one packet — every leaf SU's in a
// snapshot collection — never allocates. Otherwise items live in
// items_[head_, size); pop_front only advances head_. The dead prefix is
// dropped when the queue empties, or once it is at least kCompactAt items
// and half the vector, so each pop costs amortised O(1) and the vector
// never holds more than twice the live items past that threshold.
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

  [[nodiscard]] bool empty() const { return !has_one_ && head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const {
    return has_one_ ? 1 : items_.size() - head_;
  }

  [[nodiscard]] T& front() {
    CRN_DCHECK(!empty());
    return has_one_ ? one_ : items_[head_];
  }
  [[nodiscard]] const T& front() const {
    CRN_DCHECK(!empty());
    return has_one_ ? one_ : items_[head_];
  }
  [[nodiscard]] T& back() {
    CRN_DCHECK(!empty());
    return has_one_ ? one_ : items_.back();
  }

  void push_back(const T& item) {
    if (has_one_) {
      // A second item: both move to the vector, in order.
      items_.push_back(one_);
      items_.push_back(item);
      has_one_ = false;
    } else if (items_.empty()) {
      one_ = item;
      has_one_ = true;
    } else {
      items_.push_back(item);
    }
  }

  void pop_front() {
    CRN_DCHECK(!empty());
    if (has_one_) {
      has_one_ = false;
    } else if (++head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  // Keeps the vector's capacity, as std::vector::clear does.
  void clear() {
    has_one_ = false;
    items_.clear();
    head_ = 0;
  }

  // Grows or shrinks the queue to `count` items, keeping the first ones
  // and value-initialising the rest (the checkpoint load path sizes the
  // queue, then reads each item in place).
  void resize(std::size_t count) {
    if (has_one_) {
      items_.assign(1, one_);
      has_one_ = false;
    }
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    items_.resize(count);
  }

  // Front to back.
  [[nodiscard]] T* begin() { return has_one_ ? &one_ : items_.data() + head_; }
  [[nodiscard]] T* end() { return has_one_ ? &one_ + 1 : items_.data() + items_.size(); }
  [[nodiscard]] const T* begin() const {
    return has_one_ ? &one_ : items_.data() + head_;
  }
  [[nodiscard]] const T* end() const {
    return has_one_ ? &one_ + 1 : items_.data() + items_.size();
  }

 private:
  T one_{};
  bool has_one_ = false;  // one_ holds the only item; items_ is then empty
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace crn::mac

#endif  // CRN_MAC_FIFO_H_
