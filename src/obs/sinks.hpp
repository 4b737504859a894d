// Concrete snapshot sinks — the exporter end of the telemetry pipeline.
//
//   * JsonlSnapshotSink — one JSON object per snapshot, appended to a
//     stream: a machine-readable time series. Deterministic: under
//     SimExecutor the same scenario + seed yields byte-identical output.
//   * PrometheusTextSink — rewrites a file with the Prometheus text
//     exposition format on every snapshot, so `curl`/node_exporter-style
//     scrapers (or a human with `cat`) always see the latest values.
//
// Layering: protocol code (src/net ... src/fault) may depend on the obs
// *interfaces* (metrics, trace, snapshot) but never on this header — the
// choice of export format belongs to composition roots (harness, runner,
// examples, tests). tools/check_layering.py enforces this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <set>
#include <streambuf>
#include <string>
#include <string_view>

#include "obs/snapshot.hpp"

namespace aqueduct::obs {

class JsonlSnapshotSink final : public SnapshotSink {
 public:
  /// `os` must outlive the sink's subscription.
  explicit JsonlSnapshotSink(std::ostream& os) : os_(os) {}

  void on_snapshot(const MetricsSnapshot& snap) override;

  std::uint64_t lines() const { return lines_; }

 private:
  std::ostream& os_;
  /// Histogram bounds are immutable, so they are emitted only the first
  /// time each histogram name appears in the series.
  std::set<std::string> bounds_written_;
  std::uint64_t lines_ = 0;
};

class PrometheusTextSink final : public SnapshotSink {
 public:
  /// Every snapshot truncates and rewrites the file at `path`.
  explicit PrometheusTextSink(std::string path) : path_(std::move(path)) {}

  void on_snapshot(const MetricsSnapshot& snap) override;

  const std::string& path() const { return path_; }
  std::uint64_t writes() const { return writes_; }

  /// Renders one snapshot in the text exposition format. Exposed so other
  /// roots (live_cli's console mode, tests) can reuse the formatter.
  static void write_text(std::ostream& os, const MetricsSnapshot& snap);

  /// Maps an instrument name to a Prometheus metric name: `aqueduct_`
  /// prefix, every character outside [a-zA-Z0-9_:] replaced with '_'.
  static std::string prometheus_name(std::string_view name);

 private:
  std::string path_;
  std::uint64_t writes_ = 0;
};

/// FNV-1a 64-bit digest. Used by the sweep runner to roll a per-unit JSONL
/// telemetry series up into one deterministic fingerprint.
std::uint64_t digest_fnv1a64(std::string_view data);

/// An output stream buffer that keeps nothing: it folds every byte written
/// through it into a running FNV-1a 64-bit digest and counts the bytes, so
/// a series is fingerprinted as it is written instead of being buffered
/// first. digest() equals digest_fnv1a64() of everything written so far.
class DigestStreamBuf final : public std::streambuf {
 public:
  std::uint64_t digest() const { return digest_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::uint64_t digest_ = digest_fnv1a64({});
  std::uint64_t bytes_ = 0;
};

}  // namespace aqueduct::obs
