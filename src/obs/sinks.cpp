#include "obs/sinks.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace aqueduct::obs {

void JsonlSnapshotSink::on_snapshot(const MetricsSnapshot& snap) {
  JsonWriter w(os_);
  w.begin_object();
  w.field("type", "metrics");
  w.field("seq", snap.seq);
  w.field("t_ns", static_cast<std::int64_t>(snap.at.count()));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.end_object();
  w.key("deltas");
  w.begin_object();
  for (const auto& [name, value] : snap.counter_deltas) {
    if (value != 0) w.field(name, value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snap.gauges) w.field(name, value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name);
    w.begin_object();
    w.field("count", h.count);
    w.field("sum", h.sum);
    if (bounds_written_.insert(name).second) {
      w.key("bounds");
      w.begin_array();
      for (const double b : h.bounds) w.element(b);
      w.end_array();
    }
    w.key("buckets");
    w.begin_array();
    for (const std::uint64_t c : h.buckets) w.element(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os_ << '\n';
  ++lines_;
}

std::string PrometheusTextSink::prometheus_name(std::string_view name) {
  std::string out = "aqueduct_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void PrometheusTextSink::write_text(std::ostream& os,
                                    const MetricsSnapshot& snap) {
  os << "# Aqueduct telemetry snapshot seq=" << snap.seq
     << " t_ns=" << snap.at.count() << "\n";
  for (const auto& [name, value] : snap.counters) {
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " counter\n" << pn << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " gauge\n" << pn << " " << json_number(value)
       << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string pn = prometheus_name(name);
    os << "# TYPE " << pn << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      os << pn << "_bucket{le=\"" << json_number(h.bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    os << pn << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << pn << "_sum " << json_number(h.sum) << "\n";
    os << pn << "_count " << h.count << "\n";
  }
}

void PrometheusTextSink::on_snapshot(const MetricsSnapshot& snap) {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return;
  write_text(out, snap);
  ++writes_;
}

namespace {

std::uint64_t fold_fnv1a64(std::uint64_t hash, std::string_view data) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

std::uint64_t digest_fnv1a64(std::string_view data) {
  return fold_fnv1a64(0xcbf29ce484222325ull, data);
}

DigestStreamBuf::int_type DigestStreamBuf::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) {
    return traits_type::not_eof(c);
  }
  const char ch = traits_type::to_char_type(c);
  digest_ = fold_fnv1a64(digest_, std::string_view(&ch, 1));
  ++bytes_;
  return c;
}

std::streamsize DigestStreamBuf::xsputn(const char* s, std::streamsize n) {
  digest_ = fold_fnv1a64(digest_, std::string_view(s, static_cast<std::size_t>(n)));
  bytes_ += static_cast<std::uint64_t>(n);
  return n;
}

}  // namespace aqueduct::obs
