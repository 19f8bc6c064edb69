#include "serve/dispatch_index.h"

#include <bit>

#include "common/check.h"

namespace dmlscale::serve {

namespace {

constexpr size_t kWordBits = 64;

// ceil(n / 64) words with bits [0, n) set.
std::vector<uint64_t> FirstBits(size_t n) {
  std::vector<uint64_t> words((n + kWordBits - 1) / kWordBits, ~uint64_t{0});
  if (n % kWordBits != 0) words.back() = (uint64_t{1} << (n % kWordBits)) - 1;
  return words;
}

// The first set bit at or after bit `from` of words[0, count), wrapping
// past the end to bit 0. At least one bit must be set.
size_t FirstSetFrom(const uint64_t* words, size_t count, size_t from) {
  size_t word = from / kWordBits;
  uint64_t bits = words[word] & (~uint64_t{0} << (from % kWordBits));
  while (bits == 0) {
    word = word + 1 == count ? 0 : word + 1;
    bits = words[word];
  }
  return word * kWordBits + static_cast<size_t>(std::countr_zero(bits));
}

}  // namespace

LeastOutstandingIndex::LeastOutstandingIndex(int replicas) {
  DMLSCALE_CHECK_GE(replicas, 1);
  const auto real = static_cast<size_t>(replicas);
  count_.assign(real, 0);
  // Level 0 holds every replica; bits past R stay clear and never win.
  members_ = FirstBits(real);
  words_ = members_.size();
  occupied_ = FirstBits(words_);
  occupied_words_ = occupied_.size();
  level_size_.assign(1, replicas);
}

void LeastOutstandingIndex::Add(int replica, int64_t delta) {
  const auto r = static_cast<size_t>(replica);
  const auto from = static_cast<size_t>(count_[r]);
  const int64_t count = count_[r] + delta;
  DMLSCALE_CHECK_GE(count, 0);
  count_[r] = count;
  const auto to = static_cast<size_t>(count);
  if (to >= level_size_.size()) {
    level_size_.resize(to + 1, 0);
    members_.resize((to + 1) * words_, 0);
    occupied_.resize((to + 1) * occupied_words_, 0);
  }
  const size_t word = r / kWordBits;
  const uint64_t bit = uint64_t{1} << (r % kWordBits);
  const size_t occupied_word = word / kWordBits;
  const uint64_t occupied_bit = uint64_t{1} << (word % kWordBits);
  uint64_t& vacated = members_[from * words_ + word];
  vacated &= ~bit;
  if (vacated == 0) {
    occupied_[from * occupied_words_ + occupied_word] &= ~occupied_bit;
  }
  members_[to * words_ + word] |= bit;
  occupied_[to * occupied_words_ + occupied_word] |= occupied_bit;
  --level_size_[from];
  ++level_size_[to];
  if (to < least_) {
    least_ = to;
  } else {
    // Level `to` is occupied, so the walk stops there at the latest.
    while (level_size_[least_] == 0) ++least_;
  }
}

int LeastOutstandingIndex::Pick(int cursor) const {
  const uint64_t* level = members_.data() + least_ * words_;
  const auto start = static_cast<size_t>(cursor);
  size_t word = start / kWordBits;
  // The cursor's word with the replicas before the cursor masked off, else
  // the level's next occupied word after it, wrapping. When that is the
  // cursor's own word again, its bits at or after the cursor are known
  // clear, so its first bit is the first replica before the cursor.
  uint64_t bits = level[word] & (~uint64_t{0} << (start % kWordBits));
  if (bits == 0) {
    word = FirstSetFrom(occupied_.data() + least_ * occupied_words_,
                        occupied_words_, word + 1 == words_ ? 0 : word + 1);
    bits = level[word];
  }
  return static_cast<int>(word * kWordBits +
                          static_cast<size_t>(std::countr_zero(bits)));
}

}  // namespace dmlscale::serve
