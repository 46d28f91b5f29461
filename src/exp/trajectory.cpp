#include "exp/trajectory.hpp"

#include <filesystem>

#include "util/fs.hpp"
#include "util/json_schema.hpp"

namespace fetch::exp {

using util::json::Value;

std::optional<Value> load_or_init_trajectory(const std::string& path,
                                             std::string* error) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    Value doc = Value::object();
    doc.set("schema", Value("fetch-exp-trajectory-v1"));
    doc.set("entries", Value::array());
    return doc;
  }
  auto doc = util::json::load_file(path, error);
  if (!doc) {
    return std::nullopt;
  }
  if (!util::json::expect_schema(*doc, "fetch-exp-trajectory-v1", error,
                                 path)) {
    return std::nullopt;
  }
  if (util::json::require(*doc, "entries", Value::Kind::kArray, error,
                          path) == nullptr) {
    return std::nullopt;
  }
  return doc;
}

Value make_trajectory_entry(const std::string& commit,
                            const std::string& spec_name,
                            const std::string& spec_hash) {
  Value entry = Value::object();
  entry.set("commit", Value(commit));
  entry.set("spec", Value(spec_name));
  entry.set("spec_hash", Value(spec_hash));
  entry.set("runs", Value::array());
  return entry;
}

void append_trajectory_entry(Value* doc, Value entry) {
  // load_or_init_trajectory guarantees the array exists; re-find it via
  // set() so this also works on a freshly built document.
  Value entries = Value::array();
  if (const Value* existing = doc->get("entries")) {
    entries = *existing;
  }
  entries.add(std::move(entry));
  doc->set("entries", std::move(entries));
}

bool write_trajectory(const std::string& path, const Value& doc,
                      std::string* error) {
  return util::write_text_file(path, doc.dump() + "\n", error);
}

}  // namespace fetch::exp
