#pragma once

/// \file code_offsets.hpp
/// Flat, code-offset-indexed state for the disassembly passes (see
/// DESIGN.md, "Hot path: detect state").
///
/// CodeOffsets numbers every file-backed executable byte densely: the
/// union of a CodeView's shards, merged into disjoint non-adjacent ranges,
/// each with a base offset. Every address at which CodeView::insn_at can
/// return an instruction has an offset, and so does every byte of that
/// instruction (a decode never crosses a shard). Addresses without an
/// offset never decode, which is what lets the flat tables below treat
/// them as "never seen" wherever that cannot change an outcome.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/interval_set.hpp"

namespace fetch::disasm {

class CodeOffsets {
 public:
  static constexpr std::uint64_t kNone = ~0ull;

  struct Range {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;    // exclusive
    std::uint64_t base = 0;  // offset of lo
  };

  CodeOffsets() = default;

  /// Numbers the union of \p spans ([lo, hi) pairs, any order, may
  /// overlap or touch).
  explicit CodeOffsets(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
    std::sort(spans.begin(), spans.end());
    for (const auto& [lo, hi] : spans) {
      if (lo >= hi) {
        continue;
      }
      if (!ranges_.empty() && lo <= ranges_.back().hi) {
        ranges_.back().hi = std::max(ranges_.back().hi, hi);
      } else {
        ranges_.push_back({lo, hi, 0});
      }
    }
    std::size_t widest = 0;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      ranges_[i].base = size_;
      size_ += ranges_[i].hi - ranges_[i].lo;
      if (ranges_[i].hi - ranges_[i].lo >
          ranges_[widest].hi - ranges_[widest].lo) {
        widest = i;
      }
    }
    if (!ranges_.empty()) {
      hot_ = ranges_[widest];
    }
  }

  /// Number of offsets (file-backed executable bytes).
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Offset of \p addr, or kNone when no decodable byte lives there.
  [[nodiscard]] std::uint64_t of(std::uint64_t addr) const {
    // The widest range (.text) answers almost every query in one compare.
    if (addr - hot_.lo < hot_.hi - hot_.lo) {
      return hot_.base + (addr - hot_.lo);
    }
    const auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), addr,
        [](std::uint64_t a, const Range& r) { return a < r.lo; });
    if (it == ranges_.begin()) {
      return kNone;
    }
    const Range& r = *std::prev(it);
    return addr < r.hi ? r.base + (addr - r.lo) : kNone;
  }

  [[nodiscard]] const std::vector<Range>& ranges() const { return ranges_; }

 private:
  std::vector<Range> ranges_;
  Range hot_;
  std::uint64_t size_ = 0;
};

/// A plain bit per code offset.
class OffsetBits {
 public:
  OffsetBits() = default;
  explicit OffsetBits(std::uint64_t size) : words_((size + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::uint64_t off) const {
    return ((words_[off >> 6] >> (off & 63)) & 1u) != 0;
  }
  /// Sets the bit; true when it was clear.
  bool set(std::uint64_t off) {
    std::uint64_t& w = words_[off >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (off & 63);
    const bool fresh = (w & bit) == 0;
    w |= bit;
    return fresh;
  }
  void clear(std::uint64_t off) {
    words_[off >> 6] &= ~(std::uint64_t{1} << (off & 63));
  }
  /// Sets bits [lo, hi); returns how many were clear.
  std::uint64_t set_range(std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t fresh = 0;
    while (lo < hi) {
      const std::uint64_t shift = lo & 63;
      const std::uint64_t span = std::min<std::uint64_t>(64 - shift, hi - lo);
      const std::uint64_t mask =
          (span == 64 ? ~0ull : ((std::uint64_t{1} << span) - 1)) << shift;
      std::uint64_t& w = words_[lo >> 6];
      fresh += static_cast<std::uint64_t>(std::popcount(mask & ~w));
      w |= mask;
      lo += span;
    }
    return fresh;
  }
  /// First offset in [lo, hi) whose bit equals \p value, or hi.
  [[nodiscard]] std::uint64_t find(std::uint64_t lo, std::uint64_t hi,
                                   bool value) const {
    while (lo < hi) {
      std::uint64_t w = words_[lo >> 6];
      if (!value) {
        w = ~w;
      }
      w >>= (lo & 63);
      if (w != 0) {
        return std::min(hi, lo + static_cast<std::uint64_t>(
                                     std::countr_zero(w)));
      }
      lo = (lo | 63) + 1;
    }
    return hi;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// A set of code addresses as one bit per code offset. Serves both as the
/// instruction-boundary record (insert / count / size) and as the
/// covered-bytes record (add / contains / gaps) of a disassembly Result.
/// Only addresses with a code offset can be inserted; every other address
/// reads as absent.
class CodeBitset {
 public:
  CodeBitset() = default;
  explicit CodeBitset(const CodeOffsets& offsets)
      : offsets_(offsets), bits_(offsets.size()) {}

  /// Adds \p addr (which must have a code offset); true when new.
  bool insert(std::uint64_t addr) {
    const std::uint64_t off = offsets_.of(addr);
    FETCH_ASSERT(off != CodeOffsets::kNone);
    const bool fresh = bits_.set(off);
    count_ += fresh ? 1 : 0;
    return fresh;
  }
  /// Adds every byte of [lo, hi), which must lie in one code range.
  void add(std::uint64_t lo, std::uint64_t hi) {
    if (lo >= hi) {
      return;
    }
    const std::uint64_t off = offsets_.of(lo);
    FETCH_ASSERT(off != CodeOffsets::kNone &&
                 offsets_.of(hi - 1) == off + (hi - 1 - lo));
    count_ += bits_.set_range(off, off + (hi - lo));
  }
  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t off = offsets_.of(addr);
    return off != CodeOffsets::kNone && bits_.test(off);
  }
  [[nodiscard]] std::size_t count(std::uint64_t addr) const {
    return contains(addr) ? 1 : 0;
  }
  /// Number of addresses in the set.
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Maximal sub-ranges of [lo, hi) not in the set, in address order
  /// (the IntervalSet::gaps contract).
  [[nodiscard]] std::vector<IntervalSet::Interval> gaps(
      std::uint64_t lo, std::uint64_t hi) const {
    std::vector<IntervalSet::Interval> out;
    std::uint64_t cursor = lo;
    for (const CodeOffsets::Range& r : offsets_.ranges()) {
      if (r.hi <= cursor) {
        continue;
      }
      if (r.lo >= hi) {
        break;
      }
      // Runs of set bits inside this range, clamped to [cursor, hi).
      const std::uint64_t from = std::max(cursor, r.lo);
      const std::uint64_t to = std::min(hi, r.hi);
      std::uint64_t at = r.base + (from - r.lo);
      const std::uint64_t end = r.base + (to - r.lo);
      while (at < end) {
        const std::uint64_t run = bits_.find(at, end, true);
        if (run == end) {
          break;
        }
        const std::uint64_t run_end = bits_.find(run, end, false);
        const std::uint64_t run_lo = r.lo + (run - r.base);
        if (run_lo > cursor) {
          out.push_back({cursor, run_lo});
        }
        cursor = r.lo + (run_end - r.base);
        at = run_end;
      }
    }
    if (cursor < hi) {
      out.push_back({cursor, hi});
    }
    return out;
  }

 private:
  CodeOffsets offsets_;
  OffsetBits bits_;
  std::size_t count_ = 0;
};

/// A bit per code offset that one allocation serves for a whole pass
/// (every function or probe of it): reset() clears only the bits set
/// since the previous reset, so emptying the set costs what filling it
/// did, and the state stays at one bit per code byte.
class ScratchBits {
 public:
  explicit ScratchBits(std::uint64_t size) : bits_(size) {}

  void reset() {
    for (const std::uint64_t off : touched_) {
      bits_.clear(off);
    }
    touched_.clear();
  }
  [[nodiscard]] bool test(std::uint64_t off) const { return bits_.test(off); }
  /// Sets the bit; true when it was clear.
  bool set(std::uint64_t off) {
    if (!bits_.set(off)) {
      return false;
    }
    touched_.push_back(off);
    return true;
  }

 private:
  OffsetBits bits_;
  std::vector<std::uint64_t> touched_;
};

}  // namespace fetch::disasm
