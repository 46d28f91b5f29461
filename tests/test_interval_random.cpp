#include <gtest/gtest.h>

#include <set>

#include "disasm/code_offsets.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace fetch {
namespace {

/// Differential testing of IntervalSet against a naive reference model
/// (a std::set of covered addresses) under random operation sequences.
class IntervalRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalRandom, MatchesNaiveModel) {
  Rng rng(GetParam() * 7919 + 3);
  IntervalSet fast;
  std::set<std::uint64_t> slow;
  constexpr std::uint64_t kSpace = 512;

  for (int op = 0; op < 400; ++op) {
    const std::uint64_t lo = rng.below(kSpace);
    const std::uint64_t hi = lo + rng.below(24);
    fast.add(lo, hi);
    for (std::uint64_t a = lo; a < hi; ++a) {
      slow.insert(a);
    }

    // Point queries.
    for (int q = 0; q < 8; ++q) {
      const std::uint64_t a = rng.below(kSpace + 16);
      ASSERT_EQ(fast.contains(a), slow.count(a) != 0)
          << "addr " << a << " after op " << op;
    }
    // Range queries.
    const std::uint64_t qlo = rng.below(kSpace);
    const std::uint64_t qhi = qlo + rng.below(32);
    bool all = true;
    bool any = false;
    for (std::uint64_t a = qlo; a < qhi; ++a) {
      const bool in = slow.count(a) != 0;
      all &= in;
      any |= in;
    }
    if (qlo < qhi) {
      ASSERT_EQ(fast.covers(qlo, qhi), all) << qlo << ".." << qhi;
      ASSERT_EQ(fast.intersects(qlo, qhi), any) << qlo << ".." << qhi;
    }
    ASSERT_EQ(fast.covered_bytes(), slow.size());
  }

  // Gap computation must partition the uncovered space exactly.
  const auto gaps = fast.gaps(0, kSpace);
  std::set<std::uint64_t> gap_addrs;
  for (const auto& g : gaps) {
    for (std::uint64_t a = g.lo; a < g.hi; ++a) {
      ASSERT_TRUE(gap_addrs.insert(a).second) << "gap overlap at " << a;
    }
  }
  for (std::uint64_t a = 0; a < kSpace; ++a) {
    ASSERT_EQ(gap_addrs.count(a) != 0, slow.count(a) == 0) << a;
  }
  // Intervals must be maximal (no two adjacent or overlapping).
  const auto intervals = fast.intervals();
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    ASSERT_GT(intervals[i].lo, intervals[i - 1].hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalRandom,
                         ::testing::Range<std::uint64_t>(0, 10));

/// Differential testing of the flat covered-bytes record (CodeBitset)
/// against IntervalSet, which it replaced in the disassembly Result, and
/// the naive model. The code ranges include two touching spans (merged
/// into one range) and addresses outside every range.
class CodeBitsetRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeBitsetRandom, MatchesIntervalSetAndNaiveModel) {
  Rng rng(GetParam() * 104729 + 11);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> spans = {
      {400, 530}, {100, 300}, {300, 340}, {120, 200}};
  const disasm::CodeOffsets offsets(spans);
  ASSERT_EQ(offsets.ranges().size(), 2u);
  ASSERT_EQ(offsets.size(), 240u + 130u);
  disasm::CodeBitset fast(offsets);
  IntervalSet reference;
  std::set<std::uint64_t> slow;
  constexpr std::uint64_t kSpace = 600;

  for (int op = 0; op < 300; ++op) {
    // An instruction-like range inside one code range.
    const auto& range = offsets.ranges()[rng.below(2)];
    const std::uint64_t lo = range.lo + rng.below(range.hi - range.lo);
    const std::uint64_t hi =
        std::min(range.hi, lo + 1 + rng.below(15));
    if (rng.below(4) == 0) {
      EXPECT_EQ(fast.insert(lo), slow.insert(lo).second);
      reference.add(lo, lo + 1);
    } else {
      fast.add(lo, hi);
      reference.add(lo, hi);
      for (std::uint64_t a = lo; a < hi; ++a) {
        slow.insert(a);
      }
    }
    ASSERT_EQ(fast.size(), slow.size());
    for (int q = 0; q < 8; ++q) {
      const std::uint64_t a = rng.below(kSpace);
      ASSERT_EQ(fast.contains(a), slow.count(a) != 0) << a;
      ASSERT_EQ(fast.count(a), slow.count(a)) << a;
    }
    const std::uint64_t qlo = rng.below(kSpace);
    const std::uint64_t qhi = rng.below(kSpace);
    ASSERT_EQ(fast.gaps(qlo, qhi), reference.gaps(qlo, qhi))
        << qlo << ".." << qhi << " after op " << op;
  }
  ASSERT_EQ(fast.gaps(0, kSpace), reference.gaps(0, kSpace));
  EXPECT_EQ(offsets.of(99), disasm::CodeOffsets::kNone);
  EXPECT_EQ(offsets.of(340), disasm::CodeOffsets::kNone);
  EXPECT_EQ(offsets.of(400), 240u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeBitsetRandom,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace fetch
