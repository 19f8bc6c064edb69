#include "serve/dispatch_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"

namespace dmlscale::serve {

LeastOutstandingIndex::LeastOutstandingIndex(int replicas) {
  DMLSCALE_CHECK_GE(replicas, 1);
  const auto real = static_cast<size_t>(replicas);
  leaves_ = std::bit_ceil(real);
  min_.assign(2 * leaves_, std::numeric_limits<int64_t>::max());
  std::fill_n(min_.begin() + static_cast<std::ptrdiff_t>(leaves_), real, 0);
  for (size_t node = leaves_ - 1; node >= 1; --node) {
    min_[node] = std::min(min_[2 * node], min_[2 * node + 1]);
  }
}

void LeastOutstandingIndex::Add(int replica, int64_t delta) {
  size_t node = leaves_ + static_cast<size_t>(replica);
  min_[node] += delta;
  for (node /= 2; node >= 1; node /= 2) {
    min_[node] = std::min(min_[2 * node], min_[2 * node + 1]);
  }
}

int LeastOutstandingIndex::Pick(int cursor) const {
  const int64_t least = min_[1];
  size_t node = leaves_ + static_cast<size_t>(cursor);
  if (min_[node] != least) {
    // Climb from the cursor's leaf: every replica at or after the cursor
    // under `node` is ruled out, and the right sibling of a left child
    // holds the replicas that come next in order.
    while (node > 1 && (node % 2 == 1 || min_[node + 1] != least)) node /= 2;
    // Either that sibling holds the minimum, or the climb reached the root
    // with nothing at or after the cursor and the search wraps to 0.
    if (node > 1) ++node;
  }
  // Descend to the leftmost minimum leaf under `node`.
  while (node < leaves_) {
    node = min_[2 * node] == least ? 2 * node : 2 * node + 1;
  }
  return static_cast<int>(node - leaves_);
}

}  // namespace dmlscale::serve
