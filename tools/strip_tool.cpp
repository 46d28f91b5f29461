/// \file strip_tool.cpp
/// Producer side of the stripped evaluation tier: strips an ELF64 binary
/// (drop .symtab/.strtab, optionally .dynsym/.dynstr) and captures the
/// binary's *pre-strip* symbol-table ground truth into a fetch-truth-v1
/// sidecar (`<output>.truth.json`) so the stripped copy can still be
/// scored with meaningful precision (`fetch-cli batch --truth sidecar`).
///
///   strip_tool [--drop-dynsym] [--truth-out PATH | --no-truth]
///              -o OUTPUT INPUT
///
/// The transform is elf::strip_image: deterministic, idempotent, and
/// layout-preserving (allocated sections keep their offsets and
/// addresses), so detection results on the stripped copy differ from the
/// original only through the missing symbol tables.

#include <iostream>
#include <string>
#include <string_view>

#include "elf/elf_file.hpp"
#include "elf/strip.hpp"
#include "eval/truth_sidecar.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace {

using namespace fetch;

constexpr const char* kUsage =
    "usage: strip_tool [--drop-dynsym] [--truth-out PATH | --no-truth]\n"
    "                  -o OUTPUT INPUT\n";

}  // namespace

int main(int argc, char** argv) {
  elf::StripOptions options;
  std::string output;
  std::string truth_out;
  bool no_truth = false;
  namespace cli = util::cli;
  cli::Parser parser(kUsage,
                     {cli::flag("--drop-dynsym", &options.drop_dynsym),
                      cli::flag("--no-truth", &no_truth),
                      cli::text("--truth-out", &truth_out),
                      cli::text("-o", &output)});
  if (!parser.parse(argc, argv)) {
    return 2;
  }
  if (parser.positionals().size() != 1 || output.empty() ||
      (no_truth && parser.given("--truth-out"))) {
    return parser.fail();
  }
  const std::string& input = parser.positionals()[0];

  std::vector<std::uint8_t> image;
  if (!util::read_file_bytes(input, &image)) {
    std::cerr << "error: cannot read input file: " << input << "\n";
    return 1;
  }

  try {
    // Truth must be captured from the *original* image: that is the whole
    // point of the sidecar — the stripped copy cannot produce it anymore.
    const elf::ElfFile original({image.data(), image.size()});
    const elf::FunctionTruth truth = original.function_truth();

    const elf::StripResult result = elf::strip_image(
        {image.data(), image.size()}, options);

    std::string error;
    if (!util::write_text_file(
            output,
            {reinterpret_cast<const char*>(result.image.data()),
             result.image.size()},
            &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    if (!no_truth) {
      const std::string sidecar =
          truth_out.empty() ? eval::truth_sidecar_path(output) : truth_out;
      if (!eval::write_truth_sidecar(sidecar, truth, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cout << "truth sidecar: " << sidecar << " (" << truth.starts.size()
                << " starts, source " << truth.source << ")\n";
    }
    std::cout << "stripped " << input << " -> " << output << " (dropped";
    if (result.dropped.empty()) {
      std::cout << " nothing";
    } else {
      for (const std::string& name : result.dropped) {
        std::cout << " " << name;
      }
    }
    std::cout << ")\n";
  } catch (const ParseError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
