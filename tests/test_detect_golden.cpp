/// Golden digests of `detect` output. Every DetectionResult field is
/// dumped in canonical form and hashed with FNV-1a, over a fixed
/// synthetic slice (every Table II project x 2 profiles). The generator's
/// bytes do not depend on the host compiler, so the digests hold across
/// toolchains; any change to the disassembly state that alters a single
/// start, extent, merge or diagnostic shows up here.
///
/// The real-toolchain fixtures cannot be pinned by digest (their bytes
/// depend on the compiler), so for them the test checks that the public
/// pass-by-pass replay equals FunctionDetector::run. ElfFile's section
/// range table is checked against a linear first-match scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"
#include "baselines/tools.hpp"
#include "core/detector.hpp"
#include "core/pointer_detector.hpp"
#include "core/tail_call_merger.hpp"
#include "elf/elf_builder.hpp"
#include "eval/runner.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/hash.hpp"

namespace fetch {
namespace {

void hash_set(util::Fnv1a& h, std::string_view tag,
              const std::set<std::uint64_t>& values) {
  h.str(tag);
  h.value(values.size());
  for (const std::uint64_t v : values) {
    h.value(v);
  }
}

void hash_result(util::Fnv1a& h, const core::DetectionResult& r) {
  h.str("functions");
  h.value(r.functions.size());
  for (const auto& [addr, prov] : r.functions) {
    h.value(addr);
    h.value(prov);
  }
  h.str("extents");
  h.value(r.extents.size());
  for (const auto& [addr, extent] : r.extents) {
    h.value(addr);
    h.value(extent.entry);
    h.value(extent.end);
    h.value(extent.instructions);
  }
  hash_set(h, "fde_starts", r.fde_starts);
  hash_set(h, "symbol_starts", r.symbol_starts);
  hash_set(h, "call_targets", r.call_targets);
  hash_set(h, "pointer_starts", r.pointer_starts);
  hash_set(h, "tail_targets", r.tail_targets);
  h.str("merged_parts");
  h.value(r.merged_parts.size());
  for (const auto& [part, parent] : r.merged_parts) {
    h.value(part);
    h.value(parent);
  }
  hash_set(h, "invalid_fde_starts", r.invalid_fde_starts);
  hash_set(h, "skipped_incomplete_cfi", r.skipped_incomplete_cfi);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

constexpr const char* kProfiles[2][2] = {{"gcc", "O2"}, {"llvm", "O3"}};

synth::SynthBinary slice_binary(std::size_t project, std::size_t profile) {
  const auto spec = synth::make_program(
      synth::projects()[project],
      synth::profile_for(kProfiles[profile][0], kProfiles[profile][1]),
      0x601d0000u + project * 2 + profile);
  return synth::generate(spec);
}

/// Digest of the default front-end run and of the experiment run (the
/// latter adds the conditional-noreturn knowledge from ground truth).
std::string detect_digest(const synth::SynthBinary& bin) {
  const elf::ElfFile elf(bin.image);
  const core::FunctionDetector detector(elf);
  util::Fnv1a h;
  hash_result(h, detector.run());
  hash_result(h, detector.run(eval::fetch_options(bin.truth)));
  return hex(h.digest());
}

/// Digest of every baseline tool's start set (they share the recursive
/// disassembly state through weaker option sets).
std::string baseline_digest(const synth::SynthBinary& bin) {
  const elf::ElfFile elf(bin.image);
  util::Fnv1a h;
  for (const baselines::ToolSpec& tool : baselines::conventional_tools()) {
    hash_set(h, tool.name, tool.run(elf));
  }
  baselines::GhidraOptions ghidra;
  hash_set(h, "ghidra", baselines::ghidra_like(elf, ghidra));
  baselines::AngrOptions angr;
  angr.fsig = angr.tcall = angr.scan = true;
  hash_set(h, "angr", baselines::angr_like(elf, angr));
  return hex(h.digest());
}

// Generated on the node-container implementation of the disassembly
// state; one row per Table II project, columns {gcc O2, llvm O3}.
const char* const kDetectDigests[22][2] = {
    {"4ac21ad37736dbf5", "5f5594a6ab036edd"},
    {"39bbc2e53cc69ff9", "92ffd125e5a79825"},
    {"2c95d12f003bfe57", "11b184ddf97601b3"},
    {"7d13ac681531c6cb", "ee76cfc02185b953"},
    {"0de6d7d1dbb41a9d", "37981d08184042a9"},
    {"14694886e2c680c3", "0b2dc5687cde16b3"},
    {"005d3fc1885d98a5", "48886fbe42703745"},
    {"123aa2d02de105cf", "fd10f06e7726085f"},
    {"5c928d905f921e55", "68ed7a30d147b433"},
    {"9c766b31a8b8f265", "7ee17a129eac2715"},
    {"621a0c428903b325", "557e713d11a593b5"},
    {"5ab9ccc54681bd27", "55a0156642c9f015"},
    {"efde5c52c2164003", "43b8f5541fc7716b"},
    {"bdbdfbf65091e729", "fbb9a794006edf0f"},
    {"a4fb4f03c50d73b3", "a7f6785b9ee17c8b"},
    {"ae46ee4e2317408d", "9aec6e87f5fb6b7b"},
    {"2924667e974ff86d", "ffb7685c1ee3051d"},
    {"5e82d929b56b7cff", "f420fad10c76a00f"},
    {"6db1857f2ec94a15", "2cc6e00edf5b03b5"},
    {"12ef7ffe50e9d02b", "b086d8c9dcfb8c51"},
    {"e77611e91c3b9c4d", "58d110b66204b8cb"},
    {"804f5556e24e0f3b", "40705e1d5988254f"},
};
// Baseline tools on the gcc O2 column.
const char* const kBaselineDigests[22] = {
    "bd833e702e70de56",
    "fc9a561a5bfd9000",
    "433e128ae6d73efe",
    "d82bbfc4c5ef384a",
    "3445af65017bd8fb",
    "281d5da5f37a7377",
    "04abf0261c5182b8",
    "9aa7b0ef42586a09",
    "32c3c8b43b4eea30",
    "8c27f843a6b219c1",
    "b669edff84175548",
    "4776420f73bf9684",
    "70bbd1327eaf5597",
    "f035ff43335f8f1f",
    "8a7b1cefc82cbf79",
    "3ae6091ee1538860",
    "871d0ee672f8fc99",
    "c5c326f049c96a31",
    "8c9d94070d0cb2fc",
    "4995f90d70c25066",
    "609cc4c628eff65b",
    "886fbdd7d3ba8669",
};

TEST(DetectGolden, SyntheticSliceDigestsArePinned) {
  ASSERT_EQ(synth::projects().size(), 22u);
  for (std::size_t p = 0; p < 22; ++p) {
    for (std::size_t k = 0; k < 2; ++k) {
      const synth::SynthBinary bin = slice_binary(p, k);
      EXPECT_EQ(detect_digest(bin), kDetectDigests[p][k])
          << "project " << p << " (" << synth::projects()[p].name << ") "
          << kProfiles[k][0] << " " << kProfiles[k][1];
    }
  }
}

TEST(DetectGolden, BaselineDigestsArePinned) {
  for (std::size_t p = 0; p < 22; ++p) {
    const synth::SynthBinary bin = slice_binary(p, 0);
    EXPECT_EQ(baseline_digest(bin), kBaselineDigests[p])
        << "project " << p << " (" << synth::projects()[p].name << ")";
  }
}

// --- Public-call replay on real-toolchain fixtures ---------------------------

/// The pass sequence a caller of the public API runs (as the repository
/// benchmark's layer replay does): analyze, pointer detection, re-analysis,
/// data-pointer scan and Algorithm 1, with FunctionDetector::run's default
/// seeds.
std::set<std::uint64_t> replay_starts(const elf::ElfFile& elf) {
  const auto eh = eh::EhFrame::from_elf(elf);
  const disasm::CodeView code(elf);
  const core::DetectorOptions options;
  std::set<std::uint64_t> fde_starts;
  std::vector<std::uint64_t> seeds;
  if (eh) {
    for (const std::uint64_t pc : eh->pc_begins()) {
      if (code.is_code(pc)) {
        fde_starts.insert(pc);
        seeds.push_back(pc);
      }
    }
  }
  if (code.is_code(elf.entry())) {
    seeds.push_back(elf.entry());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  std::vector<std::uint64_t> kept;
  for (const std::uint64_t s : seeds) {
    if (fde_starts.count(s) == 0 ||
        analysis::meets_calling_convention(code, s)) {
      kept.push_back(s);
    }
  }

  disasm::Result state = disasm::analyze(code, kept, options.disasm);
  const core::PointerDetectionResult pd =
      core::detect_pointer_functions(code, state, options.disasm);
  if (!pd.accepted.empty()) {
    const std::vector<std::uint64_t> all(state.starts.begin(),
                                         state.starts.end());
    state = disasm::analyze(code, all, options.disasm);
  }
  if (eh) {
    const std::set<std::uint64_t> data_refs =
        analysis::scan_data_pointers(elf, state);
    (void)core::merge_noncontiguous_functions(code, state, *eh, data_refs,
                                              fde_starts);
  }
  return state.starts;
}

std::vector<std::string> fixture_paths() {
  std::vector<std::string> out;
  for (const char* name :
       {"fixture_math", "fixture_strings", "fixture_branches"}) {
    out.push_back(std::string(FETCH_FIXTURE_DIR) + "/" + name);
  }
  return out;
}

TEST(DetectGolden, PublicReplayEqualsRunOnFixtures) {
  for (const std::string& path : fixture_paths()) {
    const elf::ElfFile elf = elf::ElfFile::load(path);
    const core::FunctionDetector detector(elf);
    const std::set<std::uint64_t> expected = detector.run().starts();
    EXPECT_FALSE(expected.empty()) << path;
    EXPECT_EQ(replay_starts(elf), expected) << path;
  }
}

TEST(DetectGolden, PublicReplayEqualsRunOnSyntheticSlice) {
  for (std::size_t p = 0; p < 22; p += 7) {
    const synth::SynthBinary bin = slice_binary(p, 1);
    const elf::ElfFile elf(bin.image);
    const core::FunctionDetector detector(elf);
    EXPECT_EQ(replay_starts(elf), detector.run().starts()) << p;
  }
}

// --- Section lookup ------------------------------------------------------------

const elf::Section* linear_section_at(const elf::ElfFile& elf,
                                      std::uint64_t addr) {
  for (const elf::Section& s : elf.sections()) {
    if (s.contains(addr)) {
      return &s;
    }
  }
  return nullptr;
}

/// Compares section_at / is_code_address with the first-match scan at
/// every section boundary +-1 (and a few extremes).
void expect_lookup_matches_scan(const elf::ElfFile& elf,
                                const std::string& what) {
  std::vector<std::uint64_t> probes = {0, 1, ~0ull, ~0ull - 1};
  for (const elf::Section& s : elf.sections()) {
    for (const std::uint64_t base : {s.addr, s.addr + s.size}) {
      probes.push_back(base - 1);
      probes.push_back(base);
      probes.push_back(base + 1);
    }
  }
  for (const std::uint64_t a : probes) {
    const elf::Section* want = linear_section_at(elf, a);
    EXPECT_EQ(elf.section_at(a), want) << what << " @0x" << std::hex << a;
    EXPECT_EQ(elf.is_code_address(a), want != nullptr && want->executable())
        << what << " @0x" << std::hex << a;
  }
}

TEST(DetectGolden, SectionLookupMatchesLinearScanOnFixtures) {
  for (const std::string& path : fixture_paths()) {
    expect_lookup_matches_scan(elf::ElfFile::load(path), path);
  }
}

TEST(DetectGolden, SectionLookupMatchesLinearScanOnHandcraftedElf) {
  using namespace elf;
  ElfBuilder b;
  const std::vector<std::uint8_t> code(0x40, 0xc3);
  b.add_section(".text", kShtProgbits, kShfAlloc | kShfExecinstr, 0x401000,
                code);
  // Overlaps the tail of .text: first match keeps .text for the overlap.
  b.add_section(".data", kShtProgbits, kShfAlloc | kShfWrite, 0x401020,
                std::vector<std::uint8_t>(0x40, 1));
  // Executable NOBITS: code addresses without file bytes.
  b.add_section(".xbss", kShtNobits, kShfAlloc | kShfExecinstr, 0x402000,
                std::vector<std::uint8_t>(0x30, 0));
  // A non-executable section listed first that shadows part of the next.
  b.add_section(".shadow", kShtProgbits, kShfAlloc, 0x403008,
                std::vector<std::uint8_t>(0x8, 0));
  b.add_section(".text2", kShtProgbits, kShfAlloc | kShfExecinstr, 0x403000,
                code);
  // Same start, shorter: nested inside .text2.
  b.add_section(".nested", kShtProgbits, kShfAlloc | kShfExecinstr, 0x403000,
                std::vector<std::uint8_t>(0x4, 0x90));
  // Not allocated: never matches.
  b.add_section(".note", kShtProgbits, 0, 0x401000,
                std::vector<std::uint8_t>(0x100, 0));
  // Zero-sized allocated section.
  b.add_section(".empty", kShtProgbits, kShfAlloc | kShfExecinstr, 0x404000,
                {});
  b.add_section(".top", kShtProgbits, kShfAlloc | kShfExecinstr,
                0xfffffffffffff000ull, std::vector<std::uint8_t>(0x10, 0xc3));
  b.set_entry(0x401000);
  std::vector<std::uint8_t> image = b.build();

  // Make .top wrap past 2^64 (addr + size overflows): patch its size.
  Ehdr ehdr;
  std::memcpy(&ehdr, image.data(), sizeof ehdr);
  const ElfFile parsed(image);
  for (std::size_t i = 0; i < parsed.sections().size(); ++i) {
    if (parsed.sections()[i].name == ".top") {
      Shdr sh;
      const std::size_t at = ehdr.shoff + i * sizeof(Shdr);
      std::memcpy(&sh, image.data() + at, sizeof sh);
      sh.size = 0x2000;
      sh.type = kShtNobits;
      std::memcpy(image.data() + at, &sh, sizeof sh);
    }
  }
  const ElfFile elf(image);
  ASSERT_NE(elf.section(".top"), nullptr);
  ASSERT_EQ(elf.section(".top")->size, 0x2000u);
  expect_lookup_matches_scan(elf, "handcrafted");
  EXPECT_TRUE(elf.is_code_address(0x402010));   // NOBITS executable
  EXPECT_FALSE(elf.is_code_address(0x403008));  // shadowed by .shadow
  EXPECT_EQ(elf.section_at(0x401030)->name, ".text");

  // Detection over such an image runs and agrees with its own replay.
  const core::FunctionDetector detector(elf);
  EXPECT_EQ(replay_starts(elf), detector.run().starts());
}

}  // namespace
}  // namespace fetch
