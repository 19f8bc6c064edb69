#include "sim/event_heap.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dmlscale::sim {

void EventHeap::Push(const Event& event) {
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

Event EventHeap::PopTop() {
  DMLSCALE_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event event = heap_.back();
  heap_.pop_back();
  return event;
}

}  // namespace dmlscale::sim
