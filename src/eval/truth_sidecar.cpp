#include "eval/truth_sidecar.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/fs.hpp"

namespace fetch::eval {

namespace {

util::json::Value json_count(std::size_t value) {
  return util::json::Value::number(static_cast<std::uint64_t>(value));
}

std::string hex_addr(std::uint64_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(addr));
  return buf;
}

}  // namespace

std::string truth_sidecar_path(const std::string& binary_path) {
  return binary_path + ".truth.json";
}

util::json::Value truth_sidecar_json(const elf::FunctionTruth& truth) {
  util::json::Value doc = util::json::Value::object();
  doc.set("schema", util::json::Value(kTruthSchema));
  doc.set("source", util::json::Value(truth.source));
  util::json::Value starts = util::json::Value::array();
  for (const elf::Addr addr : truth.starts) {  // std::set: sorted, stable
    starts.add(util::json::Value(hex_addr(addr)));
  }
  doc.set("starts", std::move(starts));
  util::json::Value counters = util::json::Value::object();
  counters.set("zero_sized", json_count(truth.zero_sized));
  counters.set("ifuncs", json_count(truth.ifuncs));
  counters.set("aliases", json_count(truth.aliases));
  counters.set("undefined", json_count(truth.undefined));
  counters.set("non_code", json_count(truth.non_code));
  doc.set("counters", std::move(counters));
  return doc;
}

bool write_truth_sidecar(const std::string& sidecar_path,
                         const elf::FunctionTruth& truth,
                         std::string* error) {
  return util::write_text_file(sidecar_path,
                               truth_sidecar_json(truth).dump() + "\n", error);
}

std::optional<elf::FunctionTruth> load_truth_sidecar(
    const std::string& sidecar_path, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = sidecar_path + ": " + message;
    }
    return std::nullopt;
  };
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(sidecar_path, &bytes)) {
    return fail("cannot read sidecar");
  }
  const std::string text(bytes.begin(), bytes.end());
  const std::optional<util::json::Value> doc = util::json::Value::parse(text);
  if (!doc || !doc->is_object()) {
    return fail("not a JSON object");
  }
  const util::json::Value* schema = doc->get("schema");
  if (schema == nullptr || schema->text() != kTruthSchema) {
    return fail("missing or unsupported schema");
  }
  const util::json::Value* starts = doc->get("starts");
  if (starts == nullptr || !starts->is_array()) {
    return fail("missing starts array");
  }
  elf::FunctionTruth truth;
  truth.source = "sidecar";
  for (const util::json::Value& item : starts->items()) {
    if (item.kind() != util::json::Value::Kind::kString) {
      return fail("starts must be hex-address strings");
    }
    char* end = nullptr;
    const unsigned long long addr = std::strtoull(item.text().c_str(), &end, 0);
    if (end == nullptr || *end != '\0' || item.text().empty()) {
      return fail("bad address: " + item.text());
    }
    truth.starts.insert(static_cast<elf::Addr>(addr));
  }
  const util::json::Value* counters = doc->get("counters");
  if (counters != nullptr && counters->is_object()) {
    const auto count = [&](const char* key) -> std::size_t {
      const util::json::Value* v = counters->get(key);
      return v == nullptr ? 0 : static_cast<std::size_t>(v->as_double());
    };
    truth.zero_sized = count("zero_sized");
    truth.ifuncs = count("ifuncs");
    truth.aliases = count("aliases");
    truth.undefined = count("undefined");
    truth.non_code = count("non_code");
  }
  if (truth.starts.empty()) {
    truth.source = "none";
  }
  return truth;
}

}  // namespace fetch::eval
