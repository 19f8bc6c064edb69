#include "serve/cache.h"

#include <cmath>

#include "common/check.h"

namespace dmlscale::serve {

const char* ToString(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "none";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLfu:
      return "lfu";
  }
  return "unknown";
}

Status CacheSpec::Validate() const {
  if (!Enabled()) {
    if (hit_rate != 0.0) {
      return Status::InvalidArgument(
          "hit_rate is set but the cache policy is 'none'; pick `cache` in "
          "{lru, lfu} or drop hit_rate");
    }
    return Status::OK();
  }
  if (!(hit_rate >= 0.0 && hit_rate < 1.0)) {
    return Status::InvalidArgument(
        "cache hit_rate must be in [0, 1) — a hit rate of 1 would mean no "
        "backend exists to fill the cache");
  }
  if (!std::isfinite(hit_latency_s) || hit_latency_s < 0.0) {
    return Status::InvalidArgument(
        "cache hit_latency must be finite and >= 0 s");
  }
  return Status::OK();
}

CacheTier::CacheTier(CachePolicy policy, int64_t capacity)
    : policy_(policy), capacity_(capacity) {
  DMLSCALE_CHECK(policy != CachePolicy::kNone);
  DMLSCALE_CHECK_GE(capacity, 1);
}

double CacheTier::HitRate() const {
  uint64_t total = hits_ + misses_;
  if (total == 0) return 0.0;
  return static_cast<double>(hits_) / static_cast<double>(total);
}

void CacheTier::Evict() {
  // Victim: minimal (frequency, last_touch) under LFU, minimal last_touch
  // under LRU. A linear scan over the ordered map is deterministic and
  // cheap at test/trace scales; the hot serving path never runs this.
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    bool better = false;
    if (policy_ == CachePolicy::kLfu) {
      better = it->second.frequency < victim->second.frequency ||
               (it->second.frequency == victim->second.frequency &&
                it->second.last_touch < victim->second.last_touch);
    } else {
      better = it->second.last_touch < victim->second.last_touch;
    }
    if (better) victim = it;
  }
  entries_.erase(victim);
}

bool CacheTier::Access(int64_t key) {
  ++touch_seq_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    it->second.frequency += 1;
    it->second.last_touch = touch_seq_;
    return true;
  }
  ++misses_;
  if (static_cast<int64_t>(entries_.size()) >= capacity_) Evict();
  entries_[key] = Entry{1, touch_seq_};
  return false;
}

}  // namespace dmlscale::serve
