/// \file inputs.cpp
/// Workload inputs: seeded synthetic draws, their on-disk form, and the
/// pin table that keeps parent and change analysing the same bytes.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <tuple>

#include "bench.hpp"
#include "elf/elf_file.hpp"
#include "eval/truth_sidecar.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace fetchbench {

using namespace fetch;

namespace {

/// \p count stripped programs; \p pick chooses each one's project and
/// profile from the seeded RNG.
template <typename Pick>
std::vector<synth::SynthBinary> draw(std::uint64_t seed, std::uint64_t salt,
                                     std::size_t count, Pick&& pick) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  std::vector<synth::SynthBinary> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [project, profile] = pick(rng);
    synth::ProgramSpec spec =
        synth::make_program(project, profile, rng.next());
    spec.name.append("-").append(std::to_string(i));
    spec.stripped = true;
    out.push_back(synth::generate(spec));
  }
  return out;
}

}  // namespace

std::vector<synth::SynthBinary> synth_corpus_draw(std::uint64_t seed,
                                                  std::size_t count) {
  // Stratified: file i takes project i mod 22 and one of the 8 compiler ×
  // optimisation profiles in turn, so every seed draws the same mix of
  // shapes and only the programs themselves change with the seed.
  static const char* const kCompilers[] = {"gcc", "llvm"};
  static const char* const kOpts[] = {"O2", "O3", "Os", "Ofast"};
  const auto& projects = synth::projects();
  std::size_t i = 0;
  return draw(seed, kSynthCorpusSalt, count, [&](Rng&) {
    const synth::ProjectDef& project = projects[i % projects.size()];
    const std::size_t profile = (i / projects.size() + i) % 8;
    ++i;
    return std::pair(project, synth::profile_for(kCompilers[profile % 2],
                                                 kOpts[profile / 2]));
  });
}

std::vector<synth::SynthBinary> service_pool(std::uint64_t seed,
                                             std::size_t count) {
  // One project shape with a narrow function-count range: under a Zipf
  // popularity a handful of files take most queries, so similar sizes
  // keep the workload's cost from hinging on which files the seed made
  // popular.
  static const synth::ProjectDef kShape{"service-pool", "Server", "C", 1.0,
                                        0.0, 60, 64, 1.0};
  static const synth::Profile kProfile = synth::profile_for("gcc", "O2");
  return draw(seed, kServicePoolSalt, count,
              [](Rng&) { return std::pair(kShape, kProfile); });
}

std::string draw_digest(const std::vector<synth::SynthBinary>& draw) {
  util::Fnv1a hasher;
  for (const synth::SynthBinary& bin : draw) {
    hasher.bytes(bin.image);
    for (const std::uint64_t start : bin.truth.starts) {
      hasher.value(start);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hasher.digest()));
  return buf;
}

std::vector<std::string> write_draw(const std::vector<synth::SynthBinary>& draw,
                                    const std::string& dir,
                                    std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < draw.size(); ++i) {
    const std::string path =
        (fs::path(dir) / (std::to_string(i) + ".elf")).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(draw[i].image.data()),
              static_cast<std::streamsize>(draw[i].image.size()));
    out.close();
    elf::FunctionTruth truth;
    truth.starts = draw[i].truth.starts;
    truth.source = "generator";
    if (!out ||
        !eval::write_truth_sidecar(eval::truth_sidecar_path(path), truth,
                                   error)) {
      if (error->empty()) {
        *error = "cannot write " + path;
      }
      return {};
    }
    paths.push_back(path);
  }
  return paths;
}

std::uint64_t check_draw_pin(const Pins& pins, const std::string& workload,
                             const RunArgs& args, const std::string& digest,
                             std::uint64_t insns, Result* result) {
  if (args.smoke) {
    return insns;
  }
  const auto by_workload = pins.draws.find(workload);
  if (by_workload == pins.draws.end() ||
      by_workload->second.count(args.seed) == 0) {
    std::cerr << "note: seed " << args.seed << " of " << workload
              << " is not pinned (digest " << digest << ")\n";
    return insns;
  }
  const PinnedDraw& pin = by_workload->second.at(args.seed);
  if (pin.digest != digest) {
    result->fail(workload + " seed " + std::to_string(args.seed) +
                 ": draw digest " + digest + " differs from pinned " +
                 pin.digest + " (the generator changed; re-pin)");
  }
  if (pin.insns != insns) {
    std::cerr << "note: linear sweep now counts " << insns
              << " instructions, pinned " << pin.insns
              << "; the pinned count stays the denominator\n";
  }
  return pin.insns;
}

namespace {

std::uint64_t draw_insns(const std::vector<synth::SynthBinary>& draw) {
  std::uint64_t insns = 0;
  for (const synth::SynthBinary& bin : draw) {
    insns += linear_sweep_insns(bin.image);
  }
  return insns;
}

}  // namespace

int print_pins(const std::vector<std::string>& realbin_paths,
               std::uint64_t max_seed) {
  std::cout << "{\n  \"realbin\": [";
  for (std::size_t i = 0; i < realbin_paths.size(); ++i) {
    const std::string& path = realbin_paths[i];
    std::vector<std::uint8_t> bytes;
    if (!util::read_file_bytes(path, &bytes)) {
      std::cerr << "error: cannot read " << path << "\n";
      return 1;
    }
    const elf::ElfFile elf(bytes);
    const bool symtab = elf.function_truth().source == "symtab";
    std::cout << (i == 0 ? "\n" : ",\n") << "    {\"path\": \"" << path
              << "\", \"size\": " << bytes.size() << ", \"fnv1a\": \""
              << fnv_hex(bytes) << "\", \"insns\": "
              << linear_sweep_insns(bytes)
              << ", \"symtab_truth\": " << (symtab ? "true" : "false") << "}";
  }
  std::cout << "\n  ],\n  \"draws\": {";
  using DrawFn = std::vector<synth::SynthBinary> (*)(std::uint64_t,
                                                     std::size_t);
  const std::tuple<const char*, DrawFn, std::size_t> workloads[] = {
      {"synth-corpus", synth_corpus_draw, kSynthCorpusFiles},
      {"service-zipf", service_pool, kServicePoolFiles}};
  bool first_workload = true;
  for (const auto& [name, make_draw, files] : workloads) {
    std::cout << (first_workload ? "\n" : ",\n") << "    \"" << name
              << "\": {";
    first_workload = false;
    for (std::uint64_t seed = 0; seed <= max_seed; ++seed) {
      const auto bins = make_draw(seed, files);
      std::cout << (seed == 0 ? "\n" : ",\n") << "      \"" << seed
                << "\": {\"digest\": \"" << draw_digest(bins)
                << "\", \"insns\": " << draw_insns(bins) << "}";
    }
    std::cout << "\n    }";
  }
  std::cout << "\n  }\n}\n";
  return 0;
}

void write_trace(const Tracer& tracer, const RunArgs& args) {
  const std::string path =
      (std::filesystem::path(args.out_dir).parent_path() /
       ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
        ".jsonl"))
          .string();
  if (!tracer.write_jsonl(path)) {
    std::cerr << "warning: cannot write " << path << "\n";
  } else {
    std::cerr << "spans: " << tracer.spans().size() << " written to " << path
              << "\n";
  }
  tracer.print_self_times();
}

}  // namespace fetchbench
