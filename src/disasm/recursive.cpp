#include "disasm/recursive.hpp"

#include <algorithm>
#include <deque>

namespace fetch::disasm {

void XRefs::seal() {
  if (pending_.empty()) {
    return;
  }
  // Earlier entries precede the pending ones, so a stable sort by target
  // keeps every target's references in insertion order.
  std::vector<Pending> entries;
  entries.reserve(refs_.size() + pending_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    for (const Ref& ref : refs_of(i)) {
      entries.push_back({targets_[i], ref});
    }
  }
  entries.insert(entries.end(), pending_.begin(), pending_.end());
  pending_.clear();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.target < b.target;
                   });
  targets_.clear();
  first_.clear();
  refs_.clear();
  refs_.reserve(entries.size());
  for (const Pending& entry : entries) {
    if (targets_.empty() || targets_.back() != entry.target) {
      targets_.push_back(entry.target);
      first_.push_back(refs_.size());
    }
    refs_.push_back(entry.ref);
  }
  first_.push_back(refs_.size());
}

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

constexpr std::uint64_t kNoOffset = CodeOffsets::kNone;

/// Backward slice of the first-argument register (edi) at a call site:
/// returns true when edi provably holds zero. Used for the paper's
/// `error`/`error_at_line` conditional-noreturn special case.
bool first_arg_is_zero(const InsnWindow& window) {
  for (std::size_t i = window.size(); i-- > 0;) {
    const Insn& insn = *window[i];
    if ((insn.regs_written & reg_bit(Reg::kRdi)) == 0) {
      continue;
    }
    if (insn.kind == Kind::kMov && insn.imm) {
      return *insn.imm == 0;
    }
    // xor edi, edi: classified kOther, defines rdi without reading it.
    if (insn.kind == Kind::kOther &&
        (insn.regs_read & reg_bit(Reg::kRdi)) == 0 && !insn.mem) {
      return true;
    }
    return false;  // written by something we cannot prove zero
  }
  return false;  // no definition in window: assume non-zero (conservative)
}

/// Membership in an address set, flat over code offsets. Addresses with
/// no code offset (rare: outside the file-backed code) ask the set itself.
class Membership {
 public:
  Membership(const CodeOffsets& offsets, const std::set<std::uint64_t>& set)
      : offsets_(offsets), set_(set), bits_(offsets.size()) {
    for (const std::uint64_t addr : set) {
      const std::uint64_t off = offsets.of(addr);
      if (off != kNoOffset) {
        bits_.set(off);
      }
    }
  }
  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t off = offsets_.of(addr);
    return off != kNoOffset ? bits_.test(off) : set_.count(addr) != 0;
  }

 private:
  const CodeOffsets& offsets_;
  const std::set<std::uint64_t>& set_;
  OffsetBits bits_;
};

/// The noreturn knowledge of one pass, as flat tables built once.
struct CallKnowledge {
  CallKnowledge(const CodeOffsets& offsets, const Options& options)
      : noreturn(offsets, options.noreturn_functions),
        conditional(offsets, options.conditional_noreturn) {}

  /// Does a call to \p callee, reached with \p window, fall through?
  [[nodiscard]] bool returns(const InsnWindow& window,
                             std::uint64_t callee) const {
    if (noreturn.contains(callee)) {
      return false;
    }
    if (conditional.contains(callee)) {
      return first_arg_is_zero(window);
    }
    return true;
  }

  Membership noreturn;
  Membership conditional;
};

/// Records pointer-material references (RIP-relative targets and in-image
/// immediates) for the xref index.
void record_data_refs(const CodeView& code, const Insn& insn, XRefs& xrefs) {
  if (insn.mem_target) {
    xrefs.add(*insn.mem_target, insn.addr, RefKind::kMemory);
  }
  if (insn.imm) {
    const std::uint64_t v = *insn.imm;
    if (code.elf().section_at(v) != nullptr) {
      xrefs.add(v, insn.addr, RefKind::kImmediate);
    }
  }
}

struct WorkItem {
  std::uint64_t addr;
  InsnWindow window;
};

/// Phase 1: global discovery. Explores every reachable instruction once,
/// collecting call targets, coverage, xrefs and jump tables.
void discover(const CodeView& code, const std::vector<std::uint64_t>& seeds,
              const Options& options, const CallKnowledge& calls,
              Result& result) {
  const CodeOffsets& offsets = code.offsets();
  OffsetBits visited(offsets.size());
  OffsetBits queued(offsets.size());
  std::deque<WorkItem> work;
  std::vector<std::uint64_t> call_targets;

  // An address without a code offset never decodes, so it is not
  // deduplicated: each visit stops at insn_at exactly like the first.
  auto enqueue = [&](std::uint64_t addr, const InsnWindow& window) {
    const std::uint64_t off = offsets.of(addr);
    if (off == kNoOffset || (!visited.test(off) && queued.set(off))) {
      work.push_back({addr, window});
    }
  };

  for (const std::uint64_t seed : seeds) {
    if (code.is_code(seed)) {
      enqueue(seed, {});
    }
  }

  while (!work.empty()) {
    const WorkItem item = work.front();
    work.pop_front();
    std::uint64_t addr = item.addr;
    InsnWindow window = item.window;

    while (true) {
      const std::uint64_t off = offsets.of(addr);
      if (off != kNoOffset && !visited.set(off)) {
        break;
      }
      const auto insn = code.insn_at(addr);
      if (!insn) {
        break;  // undecodable: stop this path
      }
      result.covered.add(addr, addr + insn->length);
      result.insn_starts.insert(addr);
      record_data_refs(code, *insn, result.xrefs);
      window.push_back(insn);

      bool fallthrough = false;
      switch (insn->kind) {
        case Kind::kCallDirect: {
          const std::uint64_t target = *insn->target;
          result.xrefs.add(target, addr, RefKind::kCall);
          if (code.is_code(target)) {
            call_targets.push_back(target);
            enqueue(target, {});
          }
          fallthrough = calls.returns(window, target);
          break;
        }
        case Kind::kCallIndirect:
          fallthrough = true;  // unknown callee: assume it returns
          break;
        case Kind::kJmpDirect: {
          const std::uint64_t target = *insn->target;
          result.xrefs.add(target, addr, RefKind::kJump);
          if (code.is_code(target)) {
            enqueue(target, window);
          }
          break;
        }
        case Kind::kCondJmp: {
          const std::uint64_t target = *insn->target;
          result.xrefs.add(target, addr, RefKind::kJump);
          if (code.is_code(target)) {
            enqueue(target, window);
          }
          fallthrough = true;
          break;
        }
        case Kind::kJmpIndirect: {
          if (options.resolve_jump_tables) {
            if (auto table = resolve_jump_table(code, window)) {
              for (const std::uint64_t t : table->targets) {
                result.xrefs.add(t, addr, RefKind::kJumpTable);
                enqueue(t, {});
              }
              result.jump_tables.push_back(std::move(*table));
            }
          }
          break;
        }
        case Kind::kRet:
        case Kind::kUd2:
        case Kind::kHlt:
          break;
        default:
          fallthrough = true;
          break;
      }
      if (!fallthrough) {
        break;
      }
      addr += insn->length;
      if (!code.is_code(addr)) {
        break;
      }
    }
  }

  std::sort(call_targets.begin(), call_targets.end());
  result.call_targets = std::set<std::uint64_t>(
      call_targets.begin(),
      std::unique(call_targets.begin(), call_targets.end()));
}

/// Per-pass scratch of build_function: one allocation serves every
/// function of an explore pass.
struct FunctionScratch {
  explicit FunctionScratch(std::uint64_t size) : in_fn(size), queued(size) {}
  ScratchBits in_fn;
  ScratchBits queued;
  std::deque<WorkItem> work;
};

/// Phase 2: builds one function's structure against the final start set.
Function build_function(const CodeView& code, std::uint64_t entry,
                        const Membership& starts, const CallKnowledge& calls,
                        const Options& options, FunctionScratch& scratch) {
  Function fn;
  fn.entry = entry;
  const CodeOffsets& offsets = code.offsets();
  scratch.in_fn.reset();
  scratch.queued.reset();

  // As in discover, addresses without a code offset are not deduplicated:
  // every visit marks the function truncated, as the first one does.
  auto enqueue_local = [&](std::uint64_t t, const InsnWindow& w) {
    const std::uint64_t off = offsets.of(t);
    if (off == kNoOffset ||
        (!scratch.in_fn.test(off) && scratch.queued.set(off))) {
      scratch.work.push_back({t, w});
    }
  };
  enqueue_local(entry, {});

  while (!scratch.work.empty()) {
    const WorkItem item = scratch.work.front();
    scratch.work.pop_front();
    std::uint64_t addr = item.addr;
    InsnWindow window = item.window;

    while (true) {
      const std::uint64_t off = offsets.of(addr);
      if (off != kNoOffset && scratch.in_fn.test(off)) {
        break;
      }
      if (fn.insn_addrs.size() >= options.max_insns_per_function) {
        fn.truncated = true;
        break;
      }
      const auto insn = code.insn_at(addr);
      if (!insn) {
        fn.truncated = true;
        break;
      }
      scratch.in_fn.set(off);
      fn.insn_addrs.push_back(addr);
      fn.max_end = std::max(fn.max_end, addr + insn->length);
      window.push_back(insn);

      bool fallthrough = false;
      switch (insn->kind) {
        case Kind::kCallDirect:
          fallthrough = calls.returns(window, *insn->target);
          break;
        case Kind::kCallIndirect:
          fallthrough = true;
          break;
        case Kind::kJmpDirect:
        case Kind::kCondJmp: {
          const std::uint64_t target = *insn->target;
          fn.jumps.push_back({addr, target, insn->kind == Kind::kCondJmp});
          const bool other_function =
              starts.contains(target) && target != entry;
          if (!other_function && code.is_code(target)) {
            enqueue_local(target, window);
          }
          fallthrough = insn->kind == Kind::kCondJmp;
          break;
        }
        case Kind::kJmpIndirect: {
          if (options.resolve_jump_tables) {
            if (auto table = resolve_jump_table(code, window)) {
              for (const std::uint64_t t : table->targets) {
                if (!starts.contains(t) || t == entry) {
                  enqueue_local(t, {});
                }
              }
              fn.tables.push_back(std::move(*table));
            }
          }
          break;
        }
        case Kind::kRet:
        case Kind::kUd2:
        case Kind::kHlt:
          break;
        default:
          fallthrough = true;
          break;
      }
      if (!fallthrough) {
        break;
      }
      addr += insn->length;
      if (!code.is_code(addr)) {
        break;
      }
    }
  }
  std::sort(fn.insn_addrs.begin(), fn.insn_addrs.end());
  return fn;
}

/// Which addresses are function entries of a Result and which of those
/// may return (the state of find_noreturn_functions' fixpoint), flat over
/// code offsets. Entries without a code offset live in side sets.
class EntryFlags {
 public:
  EntryFlags(const CodeOffsets& offsets,
             const std::map<std::uint64_t, Function>& functions)
      : offsets_(offsets), entry_(offsets.size()), may_return_(offsets.size()) {
    for (const auto& [entry, fn] : functions) {
      const std::uint64_t off = offsets.of(entry);
      if (off != kNoOffset) {
        entry_.set(off);
      } else {
        other_entries_.insert(entry);
      }
    }
  }
  [[nodiscard]] bool is_entry(std::uint64_t addr) const {
    const std::uint64_t off = offsets_.of(addr);
    return off != kNoOffset ? entry_.test(off)
                            : other_entries_.count(addr) != 0;
  }
  [[nodiscard]] bool may_return(std::uint64_t addr) const {
    const std::uint64_t off = offsets_.of(addr);
    return off != kNoOffset ? may_return_.test(off)
                            : other_may_return_.count(addr) != 0;
  }
  void set_may_return(std::uint64_t addr) {
    const std::uint64_t off = offsets_.of(addr);
    if (off != kNoOffset) {
      may_return_.set(off);
    } else {
      other_may_return_.insert(addr);
    }
  }

 private:
  const CodeOffsets& offsets_;
  OffsetBits entry_;
  OffsetBits may_return_;
  std::set<std::uint64_t> other_entries_;
  std::set<std::uint64_t> other_may_return_;
};

}  // namespace

Result explore(const CodeView& code, const std::vector<std::uint64_t>& seeds,
               const Options& options) {
  Result result;
  result.insn_starts = CodeBitset(code.offsets());
  result.covered = CodeBitset(code.offsets());
  const CallKnowledge calls(code.offsets(), options);
  discover(code, seeds, options, calls, result);
  result.xrefs.seal();

  for (const std::uint64_t seed : seeds) {
    if (code.is_code(seed)) {
      result.starts.insert(seed);
    }
  }
  result.starts.insert(result.call_targets.begin(), result.call_targets.end());

  const Membership starts(code.offsets(), result.starts);
  FunctionScratch scratch(code.offsets().size());
  for (const std::uint64_t entry : result.starts) {
    result.functions.emplace_hint(
        result.functions.end(), entry,
        build_function(code, entry, starts, calls, options, scratch));
  }
  return result;
}

std::set<std::uint64_t> find_noreturn_functions(const CodeView& code,
                                                const Result& result,
                                                const Options& options) {
  const CodeOffsets& offsets = code.offsets();
  const CallKnowledge calls(offsets, options);
  // Least fixpoint of "may return".
  EntryFlags entries(offsets, result.functions);
  ScratchBits member(offsets.size());
  ScratchBits seen(offsets.size());
  std::deque<WorkItem> work;

  auto path_reaches_ret = [&](const Function& fn) -> bool {
    member.reset();
    seen.reset();
    for (const std::uint64_t addr : fn.insn_addrs) {
      const std::uint64_t off = offsets.of(addr);
      if (off != kNoOffset) {
        member.set(off);
      }
    }
    // Membership in fn; an address without a code offset never decodes.
    auto in_fn = [&](std::uint64_t addr) {
      const std::uint64_t off = offsets.of(addr);
      return off != kNoOffset ? member.test(off) : fn.contains(addr);
    };
    work.clear();
    work.push_back({fn.entry, {}});
    while (!work.empty()) {
      const WorkItem item = work.front();
      work.pop_front();
      std::uint64_t addr = item.addr;
      InsnWindow window = item.window;
      while (true) {
        const std::uint64_t off = offsets.of(addr);
        if (off == kNoOffset || !member.test(off) || !seen.set(off)) {
          break;
        }
        const auto insn = code.insn_at(addr);
        if (!insn) {
          break;
        }
        window.push_back(insn);
        bool fallthrough = false;
        switch (insn->kind) {
          case Kind::kRet:
            return true;
          case Kind::kCallDirect: {
            const std::uint64_t callee = *insn->target;
            const bool internal = entries.is_entry(callee);
            if (calls.noreturn.contains(callee) ||
                (internal && !entries.may_return(callee))) {
              break;  // callee (currently) known not to return
            }
            if (calls.conditional.contains(callee)) {
              fallthrough = first_arg_is_zero(window);
              break;
            }
            fallthrough = true;
            break;
          }
          case Kind::kCallIndirect:
            fallthrough = true;
            break;
          case Kind::kJmpDirect:
          case Kind::kCondJmp: {
            const std::uint64_t target = *insn->target;
            if (in_fn(target)) {
              work.push_back({target, window});
            } else if (entries.is_entry(target)) {
              // Escaping jump (tail-call shaped): f returns iff target may.
              if (entries.may_return(target)) {
                return true;
              }
            } else if (code.is_code(target)) {
              return true;  // jump outside known functions: assume returns
            }
            fallthrough = insn->kind == Kind::kCondJmp;
            break;
          }
          case Kind::kJmpIndirect:
            // Resolved table targets are already in insn_addrs and get
            // visited via the function's other paths; unresolved indirect
            // jumps pessimistically end the path.
            break;
          case Kind::kUd2:
          case Kind::kHlt:
            break;
          default:
            fallthrough = true;
            break;
        }
        if (!fallthrough) {
          break;
        }
        addr += insn->length;
      }
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [entry, fn] : result.functions) {
      if (entries.may_return(entry)) {
        continue;
      }
      if (path_reaches_ret(fn)) {
        entries.set_may_return(entry);
        changed = true;
      }
    }
  }

  std::set<std::uint64_t> noreturn;
  for (const auto& [entry, fn] : result.functions) {
    if (!entries.may_return(entry)) {
      noreturn.emplace_hint(noreturn.end(), entry);
    }
  }
  return noreturn;
}

Result analyze(const CodeView& code, const std::vector<std::uint64_t>& seeds,
               const Options& options) {
  Options opts = options;
  Result result = explore(code, seeds, opts);
  // Iterate the noreturn fixpoint against exploration until stable (two
  // rounds suffice in practice; bound defensively).
  for (int round = 0; round < 4; ++round) {
    std::set<std::uint64_t> noreturn =
        find_noreturn_functions(code, result, opts);
    for (const std::uint64_t f : options.noreturn_functions) {
      noreturn.insert(f);
    }
    if (noreturn == opts.noreturn_functions) {
      break;
    }
    opts.noreturn_functions = std::move(noreturn);
    result = explore(code, seeds, opts);
  }
  return result;
}

}  // namespace fetch::disasm
