#include "obs/metrics.hpp"

#include "util/fs.hpp"
#include "util/json_schema.hpp"

namespace fetch::obs {

namespace {

using util::json::Value;

Value json_u64(std::uint64_t value) { return Value::number(value); }

Value json_i64(std::int64_t value) {
  // Gauges can be negative; number(double, text) keeps the exact integer
  // spelling so round trips are lossless for every realistic magnitude.
  return Value::number(static_cast<double>(value), std::to_string(value));
}

bool parse_u64(const Value& value, std::uint64_t* out) {
  if (value.kind() != Value::Kind::kNumber || value.as_double() < 0) {
    return false;
  }
  *out = static_cast<std::uint64_t>(value.as_double());
  return true;
}

}  // namespace

HistogramData freeze_histogram(const Histogram& histogram) {
  HistogramData data;
  data.count = histogram.count();
  data.sum_us = histogram.sum_us();
  std::size_t last = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (histogram.bucket_count(i) != 0) {
      last = i + 1;
    }
  }
  data.buckets.reserve(last);
  for (std::size_t i = 0; i < last; ++i) {
    data.buckets.emplace_back(Histogram::le_us(i),
                              histogram.bucket_count(i));
  }
  return data;
}

std::size_t Counter::tls_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

// --- Snapshot ---------------------------------------------------------------

void Snapshot::set_counter(const std::string& name, std::uint64_t value) {
  counters_[name] = value;
}

void Snapshot::set_gauge(const std::string& name, std::int64_t value) {
  gauges_[name] = value;
}

void Snapshot::set_histogram(const std::string& name, HistogramData data) {
  histograms_[name] = std::move(data);
}

util::json::Value Snapshot::json() const {
  Value doc = Value::object();
  doc.set("schema", Value(kMetricsSchema));
  Value counters = Value::object();
  for (const auto& [name, value] : counters_) {
    counters.set(name, json_u64(value));
  }
  doc.set("counters", std::move(counters));
  Value gauges = Value::object();
  for (const auto& [name, value] : gauges_) {
    gauges.set(name, json_i64(value));
  }
  doc.set("gauges", std::move(gauges));
  Value histograms = Value::object();
  for (const auto& [name, data] : histograms_) {
    Value entry = Value::object();
    entry.set("count", json_u64(data.count));
    entry.set("sum_us", json_u64(data.sum_us));
    Value buckets = Value::array();
    for (const auto& [le, count] : data.buckets) {
      Value row = Value::object();
      row.set("le_us", json_u64(le));
      row.set("count", json_u64(count));
      buckets.add(std::move(row));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

std::optional<Snapshot> Snapshot::from_json(const util::json::Value& doc,
                                            std::string* error) {
  constexpr const char* kContext = "metrics snapshot";
  if (!util::json::expect_schema(doc, kMetricsSchema, error, kContext)) {
    return std::nullopt;
  }
  Snapshot out;
  const Value* counters = util::json::require(
      doc, "counters", Value::Kind::kObject, error, kContext);
  if (counters == nullptr) {
    return std::nullopt;
  }
  for (const auto& [name, value] : counters->members()) {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v)) {
      *error = std::string(kContext) + ": counter \"" + name +
               "\" must be a non-negative number";
      return std::nullopt;
    }
    out.counters_[name] = v;
  }
  const Value* gauges = util::json::require(doc, "gauges",
                                            Value::Kind::kObject, error,
                                            kContext);
  if (gauges == nullptr) {
    return std::nullopt;
  }
  for (const auto& [name, value] : gauges->members()) {
    if (value.kind() != Value::Kind::kNumber) {
      *error = std::string(kContext) + ": gauge \"" + name +
               "\" must be a number";
      return std::nullopt;
    }
    out.gauges_[name] = static_cast<std::int64_t>(value.as_double());
  }
  const Value* histograms = util::json::require(
      doc, "histograms", Value::Kind::kObject, error, kContext);
  if (histograms == nullptr) {
    return std::nullopt;
  }
  for (const auto& [name, entry] : histograms->members()) {
    const std::string context =
        std::string(kContext) + ": histogram \"" + name + "\"";
    if (!entry.is_object()) {
      *error = context + " must be an object";
      return std::nullopt;
    }
    HistogramData data;
    const Value* count = util::json::require(entry, "count",
                                             Value::Kind::kNumber, error,
                                             context);
    const Value* sum = count != nullptr
                           ? util::json::require(entry, "sum_us",
                                                 Value::Kind::kNumber, error,
                                                 context)
                           : nullptr;
    const Value* buckets = sum != nullptr
                               ? util::json::require(entry, "buckets",
                                                     Value::Kind::kArray,
                                                     error, context)
                               : nullptr;
    if (buckets == nullptr || !parse_u64(*count, &data.count) ||
        !parse_u64(*sum, &data.sum_us)) {
      if (error->empty()) {
        *error = context + " has a malformed count/sum_us";
      }
      return std::nullopt;
    }
    for (const Value& row : buckets->items()) {
      std::uint64_t le = 0;
      std::uint64_t bucket_count = 0;
      const Value* le_member =
          row.is_object()
              ? util::json::require(row, "le_us", Value::Kind::kNumber,
                                    error, context)
              : nullptr;
      const Value* count_member =
          le_member != nullptr
              ? util::json::require(row, "count", Value::Kind::kNumber,
                                    error, context)
              : nullptr;
      if (count_member == nullptr || !parse_u64(*le_member, &le) ||
          !parse_u64(*count_member, &bucket_count)) {
        if (error->empty()) {
          *error = context + " has a malformed bucket row";
        }
        return std::nullopt;
      }
      data.buckets.emplace_back(le, bucket_count);
    }
    out.histograms_[name] = std::move(data);
  }
  return out;
}

std::string prometheus_text(const Snapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters()) {
    const std::string full = "fetch_" + name;
    out += "# TYPE " + full + " counter\n";
    out += full + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges()) {
    const std::string full = "fetch_" + name;
    out += "# TYPE " + full + " gauge\n";
    out += full + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, data] : snapshot.histograms()) {
    const std::string full = "fetch_" + name;
    out += "# TYPE " + full + " histogram\n";
    // JSON buckets are per-bucket counts; Prometheus buckets cumulate.
    std::uint64_t cumulative = 0;
    for (const auto& [le, count] : data.buckets) {
      cumulative += count;
      out += full + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += full + "_bucket{le=\"+Inf\"} " + std::to_string(data.count) + "\n";
    out += full + "_sum " + std::to_string(data.sum_us) + "\n";
    out += full + "_count " + std::to_string(data.count) + "\n";
  }
  return out;
}

// --- Registry ---------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

void Registry::collect(Snapshot* out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out->set_counter(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out->set_gauge(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out->set_histogram(name, freeze_histogram(*histogram));
  }
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

bool write_global_metrics_json(const std::string& path, std::string* error) {
  Snapshot snapshot;
  Registry::global().collect(&snapshot);
  return util::write_text_file(path, snapshot.json().dump() + "\n", error);
}

}  // namespace fetch::obs
