#include "core/pointer_detector.hpp"

#include <algorithm>
#include <deque>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"

namespace fetch::core {

namespace {

using x86::Insn;
using x86::Kind;

constexpr std::uint64_t kNoOffset = disasm::CodeOffsets::kNone;

/// Per-pass scratch of probe_pointer: one allocation serves every probe
/// of a detect_pointer_functions call.
struct ProbeScratch {
  explicit ProbeScratch(std::uint64_t size)
      : insns(size), interior(size), queued(size) {}
  disasm::ScratchBits insns;     ///< probed instruction starts
  disasm::ScratchBits interior;  ///< bytes strictly inside a probed insn
  disasm::ScratchBits queued;
  std::deque<std::uint64_t> work;
};

/// Outcome of probing one candidate.
struct Probe {
  bool legitimate = false;
  std::vector<std::uint64_t> insns;              // probed instruction starts
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lengths;  // addr,len
  std::vector<std::uint64_t> constants;          // new pointer material
};

/// Conservative recursive disassembly from \p start with the §IV-E error
/// checks. Stops at known function starts; does not follow calls.
Probe probe_pointer(const disasm::CodeView& code, const disasm::Result& state,
                    std::uint64_t start, ProbeScratch& scratch) {
  Probe probe;
  constexpr std::size_t kMaxProbeInsns = 1u << 14;
  const disasm::CodeOffsets& offsets = code.offsets();
  scratch.insns.reset();
  scratch.interior.reset();
  scratch.queued.reset();

  // Every probed instruction decoded, so it has a code offset; an address
  // without one is in no probed instruction.
  auto probed = [&](std::uint64_t addr) {
    const std::uint64_t off = offsets.of(addr);
    return off != kNoOffset && scratch.insns.test(off);
  };
  // A transfer target is erroneous when it lands strictly inside a
  // previously decoded instruction (checks ii and iii).
  auto into_middle = [&](std::uint64_t addr) {
    const std::uint64_t off = offsets.of(addr);
    return (state.covered.contains(addr) &&
            state.insn_starts.count(addr) == 0) ||
           (off != kNoOffset && !scratch.insns.test(off) &&
            scratch.interior.test(off));
  };

  // Addresses without a code offset are not deduplicated: the first visit
  // of one already rejects the probe at insn_at.
  auto enqueue = [&](std::uint64_t addr) {
    const std::uint64_t off = offsets.of(addr);
    if (off == kNoOffset || scratch.queued.set(off)) {
      scratch.work.push_back(addr);
    }
  };
  scratch.work.clear();
  enqueue(start);

  while (!scratch.work.empty()) {
    std::uint64_t addr = scratch.work.front();
    scratch.work.pop_front();

    while (true) {
      if (probed(addr) || state.insn_starts.count(addr) != 0) {
        break;  // rejoined known-good code
      }
      if (probe.insns.size() >= kMaxProbeInsns) {
        return probe;  // runaway: reject
      }
      const auto insn = code.insn_at(addr);
      if (!insn) {
        return probe;  // error (i): invalid opcode
      }
      if (into_middle(addr)) {
        return probe;  // error (ii): middle of an existing instruction
      }
      const std::uint64_t off = offsets.of(addr);
      scratch.insns.set(off);
      for (std::uint64_t k = 1; k < insn->length; ++k) {
        scratch.interior.set(off + k);
      }
      probe.insns.push_back(addr);
      probe.lengths.emplace_back(addr, insn->length);
      if (insn->mem_target &&
          code.elf().is_code_address(*insn->mem_target)) {
        probe.constants.push_back(*insn->mem_target);
      }
      if (insn->imm && code.elf().is_code_address(*insn->imm)) {
        probe.constants.push_back(*insn->imm);
      }

      auto check_target = [&](std::uint64_t t) -> bool {
        if (!code.is_code(t)) {
          return false;
        }
        if (into_middle(t)) {
          return false;  // error (iii)
        }
        return true;
      };

      bool fallthrough = false;
      switch (insn->kind) {
        case Kind::kCallDirect: {
          if (!check_target(*insn->target)) {
            return probe;
          }
          fallthrough = true;  // probing assumes callees return
          break;
        }
        case Kind::kCallIndirect:
          fallthrough = true;
          break;
        case Kind::kJmpDirect:
        case Kind::kCondJmp: {
          const std::uint64_t t = *insn->target;
          if (!check_target(t)) {
            return probe;
          }
          // Follow intra-probe flow, but stop at detected functions.
          if (state.starts.count(t) == 0 && !probed(t) &&
              state.insn_starts.count(t) == 0) {
            enqueue(t);
          }
          fallthrough = insn->kind == Kind::kCondJmp;
          break;
        }
        case Kind::kJmpIndirect:
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
        return probe;  // ran off the end of the section
      }
    }
  }

  // Error (iv): calling-convention validation.
  if (!analysis::meets_calling_convention(code, start)) {
    return probe;
  }
  probe.legitimate = true;
  std::sort(probe.insns.begin(), probe.insns.end());
  std::sort(probe.constants.begin(), probe.constants.end());
  probe.constants.erase(
      std::unique(probe.constants.begin(), probe.constants.end()),
      probe.constants.end());
  return probe;
}

}  // namespace

PointerDetectionResult detect_pointer_functions(
    const disasm::CodeView& code, disasm::Result& state,
    const disasm::Options& options,
    const PointerDetectionOptions& scan_options) {
  PointerDetectionResult result;
  // Probing assumes every callee returns (see the header), so the main
  // pass's noreturn knowledge is not consulted.
  (void)options;

  ProbeScratch scratch(code.offsets().size());
  std::set<std::uint64_t> seen;
  std::deque<std::uint64_t> queue;
  for (const std::uint64_t p : analysis::collect_pointer_candidates(
           code.elf(), state, scan_options.aligned_only)) {
    if (seen.insert(p).second) {
      queue.push_back(p);
    }
  }

  while (!queue.empty()) {
    const std::uint64_t p = queue.front();
    queue.pop_front();
    if (state.covered.contains(p) || state.starts.count(p) != 0) {
      continue;  // already known code: not a new start
    }
    ++result.probed;
    Probe probe = probe_pointer(code, state, p, scratch);
    if (!probe.legitimate) {
      continue;
    }
    result.accepted.insert(p);
    state.starts.insert(p);
    std::uint64_t max_end = 0;
    for (const auto& [addr, len] : probe.lengths) {
      state.covered.add(addr, addr + len);
      state.insn_starts.insert(addr);
      max_end = std::max(max_end, addr + len);
    }
    // Provisional structure; the detector rebuilds full per-function
    // structure (jumps, tables) after the pointer loop finishes.
    state.functions.emplace(
        p, disasm::Function{p, std::move(probe.insns), max_end, {}, {}, false});
    // New constants from the accepted code join the queue (§IV-E: "we will
    // update the pointer collection based on the results of recursive
    // disassembly from that pointer").
    for (const std::uint64_t c : probe.constants) {
      if (seen.insert(c).second) {
        queue.push_back(c);
      }
    }
  }
  return result;
}

}  // namespace fetch::core
