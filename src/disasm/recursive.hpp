#pragma once

/// \file recursive.hpp
/// Safe recursive disassembly (§IV-C of the paper). Starting from a seed
/// set of function starts (FDE PC Begins, symbols, program entry), the
/// disassembler follows direct control flow, resolves only well-formed
/// jump tables (Dyninst-style), skips indirect calls, performs no tail-call
/// guessing, and consults a non-returning-function analysis to avoid
/// falling through into data after calls that never return.
///
/// The driver `analyze()` runs disassembly and the non-returning fixpoint
/// to mutual stability, then derives per-function structure against the
/// final set of known function starts.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "disasm/code_offsets.hpp"
#include "disasm/code_view.hpp"
#include "disasm/jump_table.hpp"
#include "util/error.hpp"
#include "x86/insn.hpp"

namespace fetch::disasm {

/// A direct jmp/jcc recorded during function construction whose target may
/// or may not belong to the same function (Algorithm 1 re-examines these).
struct FuncJump {
  std::uint64_t site = 0;
  std::uint64_t target = 0;
  bool conditional = false;
};

struct Function {
  std::uint64_t entry = 0;
  /// Addresses of all instructions reached intra-procedurally, sorted
  /// ascending and free of duplicates.
  std::vector<std::uint64_t> insn_addrs;
  /// One past the highest byte of any instruction in the function.
  std::uint64_t max_end = 0;
  /// All direct jmp/jcc instructions in the function.
  std::vector<FuncJump> jumps;
  /// Jump tables resolved inside this function.
  std::vector<JumpTable> tables;
  /// Whether exploration hit an undecodable byte (never happens for
  /// compiler-emitted seeds; used as an error signal by pointer probing).
  bool truncated = false;

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    return std::binary_search(insn_addrs.begin(), insn_addrs.end(), addr);
  }
};

/// Where a reference to an address was observed.
enum class RefKind : std::uint8_t {
  kCall,       ///< direct call target
  kJump,       ///< direct jmp/jcc target
  kMemory,     ///< RIP-relative lea/load target
  kImmediate,  ///< pointer-sized immediate operand
  kJumpTable,  ///< resolved jump-table entry
};

struct Ref {
  std::uint64_t site = 0;
  RefKind kind = RefKind::kCall;
};

/// Reverse reference index over the disassembled code, built as one flat
/// table: references are appended during exploration, then seal() sorts
/// them stably by target (CSR layout), so each target's references keep
/// their insertion order. Reads require a sealed index.
class XRefs {
 public:
  /// One target and its references, as all() yields them.
  struct Entry {
    std::uint64_t target = 0;
    std::span<const Ref> refs;
  };

  class Iterator {
   public:
    Iterator(const XRefs* xrefs, std::size_t index)
        : xrefs_(xrefs), index_(index) {}
    [[nodiscard]] Entry operator*() const {
      return {xrefs_->targets_[index_], xrefs_->refs_of(index_)};
    }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    [[nodiscard]] bool operator==(const Iterator&) const = default;

   private:
    const XRefs* xrefs_;
    std::size_t index_;
  };

  /// Every referenced target in ascending order; size() counts targets.
  class View {
   public:
    explicit View(const XRefs* xrefs) : xrefs_(xrefs) {}
    [[nodiscard]] Iterator begin() const { return {xrefs_, 0}; }
    [[nodiscard]] Iterator end() const {
      return {xrefs_, xrefs_->targets_.size()};
    }
    [[nodiscard]] std::size_t size() const { return xrefs_->targets_.size(); }

   private:
    const XRefs* xrefs_;
  };

  void add(std::uint64_t target, std::uint64_t site, RefKind kind) {
    pending_.push_back({target, {site, kind}});
  }

  /// Folds the references added since the last seal into the table.
  void seal();

  /// References to \p target in insertion order (empty when none).
  [[nodiscard]] std::span<const Ref> at(std::uint64_t target) const {
    FETCH_ASSERT(pending_.empty());
    const auto it =
        std::lower_bound(targets_.begin(), targets_.end(), target);
    if (it == targets_.end() || *it != target) {
      return {};
    }
    return refs_of(static_cast<std::size_t>(it - targets_.begin()));
  }
  [[nodiscard]] View all() const {
    FETCH_ASSERT(pending_.empty());
    return View(this);
  }

 private:
  struct Pending {
    std::uint64_t target;
    Ref ref;
  };
  [[nodiscard]] std::span<const Ref> refs_of(std::size_t index) const {
    return {refs_.data() + first_[index], first_[index + 1] - first_[index]};
  }

  std::vector<Pending> pending_;
  std::vector<std::uint64_t> targets_;  ///< distinct, ascending
  std::vector<std::size_t> first_{0};   ///< refs_ slice of each target
  std::vector<Ref> refs_;
};

struct Options {
  /// Resolve bounded jump-table patterns (safe; on by default).
  bool resolve_jump_tables = true;
  /// Upper bound on instructions explored per seed (defensive).
  std::size_t max_insns_per_function = 1u << 20;
  /// Functions known to never return (call sites stop exploration).
  std::set<std::uint64_t> noreturn_functions;
  /// Functions that are non-returning unless their first argument (edi) is
  /// provably zero at the call site — the paper's `error`/`error_at_line`
  /// special case (§IV-C).
  std::set<std::uint64_t> conditional_noreturn;
};

struct Result {
  /// Final set of function starts: seeds plus discovered direct-call
  /// targets (deduplicated, only addresses that decode).
  std::set<std::uint64_t> starts;
  /// Targets of direct calls (subset of starts not in the seed set counts
  /// as "found by recursive disassembly").
  std::set<std::uint64_t> call_targets;
  /// Per-function structure keyed by entry.
  std::map<std::uint64_t, Function> functions;
  /// Every address at which an instruction was decoded (valid instruction
  /// boundaries). Together with `covered`, lets callers detect control
  /// transfers into the *middle* of known instructions (§IV-E error ii/iii).
  CodeBitset insn_starts;
  /// Union of all instruction ranges.
  CodeBitset covered;
  XRefs xrefs;
  std::vector<JumpTable> jump_tables;
};

/// Runs the full safe-recursive pipeline: exploration from \p seeds,
/// non-returning-function fixpoint, re-exploration, and per-function
/// structure construction.
[[nodiscard]] Result analyze(const CodeView& code,
                             const std::vector<std::uint64_t>& seeds,
                             const Options& options = {});

/// Single exploration pass without the noreturn fixpoint (used internally
/// and by baseline emulations that want a weaker pipeline).
[[nodiscard]] Result explore(const CodeView& code,
                             const std::vector<std::uint64_t>& seeds,
                             const Options& options);

/// Computes the may-return least fixpoint over \p result's functions:
/// a function may return if some intra-procedural path from its entry
/// reaches a `ret` (calls to may-return callees fall through; calls to
/// not-yet-may-return callees block the path). Returns entries of functions
/// that may NOT return.
[[nodiscard]] std::set<std::uint64_t> find_noreturn_functions(
    const CodeView& code, const Result& result, const Options& options);

}  // namespace fetch::disasm
