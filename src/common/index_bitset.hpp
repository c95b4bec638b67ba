// Activity set over a dense id range: one bit per id, walked in ascending
// order with countr_zero.
//
// The simulator keeps "who has work this cycle" sets (routers holding
// flits, non-empty source queues, endpoints with queued requests or
// replies) whose walk order is part of the determinism contract — every
// sweep must visit ids in ascending order. A bitset gives that order for
// free: no sort, no compaction pass, and an idle range of 64 ids costs one
// word test.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dl2f {

class IndexBitset {
 public:
  IndexBitset() = default;
  /// Empty set over ids [0, n).
  explicit IndexBitset(std::size_t n) : words_((n + 63) / 64, 0) {}

  void set(std::size_t i) noexcept { words_[i >> 6] |= bit(i); }
  void reset(std::size_t i) noexcept { words_[i >> 6] &= ~bit(i); }

  /// Calls fn(i) for every id in the set, ascending. fn may reset any id,
  /// the current one included; it must not set ids (a bit set in the word
  /// being walked would be skipped).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  static constexpr std::uint64_t bit(std::size_t i) noexcept {
    return std::uint64_t{1} << (i & 63);
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace dl2f
