#include "ckpt/checkpoint.hpp"

#include <array>
#include <cstring>

#include "ckpt/atomic_file.hpp"
#include "util/errors.hpp"

namespace hsbp::ckpt {

using util::DataError;

namespace {

constexpr char kMagic[8] = {'H', 'S', 'B', 'P', 'C', 'K', 'P', 'T'};
// Byte values are part of the format: 2 was the retired
// sample-pipeline kind and is never reused.
constexpr std::uint8_t kKindSbp = 1;
constexpr std::uint8_t kKindServe = 3;

// ------------------------------------------------- little-endian codec

class ByteWriter {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
    }
  }

  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
    }
  }

  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
  }

  void i32_vector(const std::vector<std::int32_t>& values) {
    u64(values.size());
    for (const std::int32_t v : values) i32(v);
  }

  const std::string& str() const noexcept { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader: any overrun means the payload lies about its
/// own structure, which the CRC should have caught — still reported as
/// a DataError rather than trusted.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint32_t u32() {
    const std::string_view b = take(4);
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() {
    const std::string_view b = take(8);
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
               << (8 * i);
    }
    return value;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::vector<std::int32_t> i32_vector() {
    const std::uint64_t count = u64();
    if (count > remaining() / 4) {
      throw DataError("checkpoint: assignment length exceeds payload");
    }
    std::vector<std::int32_t> values(static_cast<std::size_t>(count));
    for (auto& v : values) v = i32();
    return values;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  void expect_end() const {
    if (pos_ != data_.size()) {
      throw DataError("checkpoint: trailing bytes after payload");
    }
  }

 private:
  std::string_view take(std::size_t n) {
    if (remaining() < n) {
      throw DataError("checkpoint: payload ends mid-field (truncated)");
    }
    const std::string_view slice = data_.substr(pos_, n);
    pos_ += n;
    return slice;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------- envelope

std::string seal(std::uint8_t kind, const std::string& payload) {
  ByteWriter head;
  head.u32(kFormatVersion);
  head.u8(kind);
  head.u64(payload.size());
  std::string body = head.str() + payload;
  const std::uint32_t checksum = crc32(body);
  ByteWriter tail;
  tail.u32(checksum);
  return std::string(kMagic, sizeof(kMagic)) + body + tail.str();
}

const char* kind_name(std::uint8_t kind) {
  return kind == kKindSbp ? "sbp-run" : "serve-snapshot";
}

/// Verifies the envelope and returns the payload bytes.
std::string open_envelope(const std::string& path, std::uint8_t want_kind) {
  const std::string file = read_file(path);
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 1 + 8;
  constexpr std::size_t kTrailer = 4;
  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw DataError("'" + path + "' is not an hsbp checkpoint (bad magic)");
  }
  if (file.size() < kHeader + kTrailer) {
    throw DataError("checkpoint '" + path + "' is truncated (" +
                    std::to_string(file.size()) + " bytes)");
  }
  ByteReader head(std::string_view(file).substr(sizeof(kMagic)));
  const std::uint32_t version = head.u32();
  if (version != kFormatVersion) {
    throw DataError("checkpoint '" + path + "' has format version " +
                    std::to_string(version) + ", this build reads version " +
                    std::to_string(kFormatVersion));
  }
  const std::uint8_t kind = head.u8();
  if (kind != kKindSbp && kind != kKindServe) {
    throw DataError("checkpoint '" + path + "' has unknown kind " +
                    std::to_string(kind));
  }
  if (kind != want_kind) {
    throw DataError("checkpoint '" + path + "' holds a " + kind_name(kind) +
                    " snapshot, expected " + kind_name(want_kind));
  }
  const std::uint64_t payload_size = head.u64();
  const std::uint64_t expected = kHeader + payload_size + kTrailer;
  if (file.size() < expected) {
    throw DataError("checkpoint '" + path + "' is truncated (" +
                    std::to_string(file.size()) + " of " +
                    std::to_string(expected) + " bytes)");
  }
  if (file.size() > expected) {
    throw DataError("checkpoint '" + path + "' has trailing garbage");
  }
  const std::string_view body =
      std::string_view(file).substr(sizeof(kMagic),
                                    kHeader - sizeof(kMagic) + payload_size);
  ByteReader tail(
      std::string_view(file).substr(kHeader + payload_size, kTrailer));
  if (crc32(body) != tail.u32()) {
    throw DataError("checkpoint '" + path +
                    "' failed its CRC-32 check (corrupt)");
  }
  return file.substr(kHeader, static_cast<std::size_t>(payload_size));
}

// ------------------------------------------------------ field codecs

void write_fingerprint(ByteWriter& w, const GraphFingerprint& fp) {
  w.i32(fp.num_vertices);
  w.i64(fp.num_edges);
  w.u64(fp.degree_hash);
}

GraphFingerprint read_fingerprint(ByteReader& r) {
  GraphFingerprint fp;
  fp.num_vertices = r.i32();
  fp.num_edges = r.i64();
  fp.degree_hash = r.u64();
  return fp;
}

void write_snapshot(ByteWriter& w, const sbp::Snapshot& snapshot) {
  w.i32(snapshot.num_blocks);
  w.f64(snapshot.mdl);
  w.i32_vector(snapshot.assignment);
}

sbp::Snapshot read_snapshot(ByteReader& r) {
  sbp::Snapshot snapshot;
  snapshot.num_blocks = r.i32();
  snapshot.mdl = r.f64();
  snapshot.assignment = r.i32_vector();
  return snapshot;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t value) noexcept {
  // SplitMix64 finalizer over a running combine — order-sensitive, so
  // permuted degree sequences hash differently.
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

GraphFingerprint fingerprint(const graph::GraphView& graph) {
  GraphFingerprint fp;
  fp.num_vertices = graph.num_vertices();
  fp.num_edges = graph.num_edges();
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (graph::Vertex v = 0; v < graph.num_vertices(); ++v) {
    const auto word =
        (static_cast<std::uint64_t>(graph.out_degree(v)) << 32) |
        (static_cast<std::uint64_t>(graph.in_degree(v)) & 0xffffffffULL);
    h = mix64(h, word);
  }
  fp.degree_hash = h;
  return fp;
}

void validate_fingerprint(const GraphFingerprint& saved,
                          const graph::GraphView& graph,
                          const std::string& path) {
  const GraphFingerprint live = fingerprint(graph);
  if (saved == live) return;
  throw DataError(
      "checkpoint '" + path + "' belongs to a different graph: saved V=" +
      std::to_string(saved.num_vertices) + " E=" +
      std::to_string(saved.num_edges) + " degree-hash=" +
      std::to_string(saved.degree_hash) + ", live V=" +
      std::to_string(live.num_vertices) + " E=" +
      std::to_string(live.num_edges) + " degree-hash=" +
      std::to_string(live.degree_hash));
}

// ------------------------------------------------------------ sbp-run

void save_sbp_checkpoint(const std::string& path, const SbpCheckpoint& ckpt,
                         FaultInjector* fault) {
  ByteWriter w;
  write_fingerprint(w, ckpt.graph);
  w.u32(ckpt.variant);
  w.u64(ckpt.seed);

  const sbp::SbpStats& s = ckpt.stats;
  w.f64(s.block_merge_seconds);
  w.f64(s.mcmc_seconds);
  w.f64(s.total_seconds);
  w.i64(s.outer_iterations);
  w.i64(s.mcmc_iterations);
  w.i64(s.proposals);
  w.i64(s.accepted_moves);
  w.i64(s.parallel_updates);
  w.i64(s.serial_updates);

  w.u64(ckpt.rng_streams.size());
  for (const util::Rng::State& state : ckpt.rng_streams) {
    for (const std::uint64_t word : state) w.u64(word);
  }

  w.u8(ckpt.search.have_mid ? 1 : 0);
  w.u8(ckpt.search.have_lower ? 1 : 0);
  w.u8(ckpt.search.done ? 1 : 0);
  write_snapshot(w, ckpt.search.upper);
  write_snapshot(w, ckpt.search.mid);
  write_snapshot(w, ckpt.search.lower);

  atomic_write_file(path, seal(kKindSbp, w.str()), fault);
}

SbpCheckpoint load_sbp_checkpoint(const std::string& path) {
  // The payload must outlive the reader (ByteReader is a view).
  const std::string payload = open_envelope(path, kKindSbp);
  ByteReader r(payload);
  SbpCheckpoint ckpt;
  ckpt.graph = read_fingerprint(r);
  ckpt.variant = r.u32();
  ckpt.seed = r.u64();

  sbp::SbpStats& s = ckpt.stats;
  s.block_merge_seconds = r.f64();
  s.mcmc_seconds = r.f64();
  s.total_seconds = r.f64();
  s.outer_iterations = r.i64();
  s.mcmc_iterations = r.i64();
  s.proposals = r.i64();
  s.accepted_moves = r.i64();
  s.parallel_updates = r.i64();
  s.serial_updates = r.i64();

  const std::uint64_t streams = r.u64();
  if (streams > r.remaining() / 32) {
    throw DataError("checkpoint: RNG stream count exceeds payload");
  }
  ckpt.rng_streams.resize(static_cast<std::size_t>(streams));
  for (util::Rng::State& state : ckpt.rng_streams) {
    for (std::uint64_t& word : state) word = r.u64();
  }

  ckpt.search.have_mid = r.u8() != 0;
  ckpt.search.have_lower = r.u8() != 0;
  ckpt.search.done = r.u8() != 0;
  ckpt.search.upper = read_snapshot(r);
  ckpt.search.mid = read_snapshot(r);
  ckpt.search.lower = read_snapshot(r);
  r.expect_end();
  return ckpt;
}

// ------------------------------------------------------ serve-snapshot

void save_serve_checkpoint(const std::string& path,
                           const ServeCheckpoint& ckpt,
                           FaultInjector* fault) {
  ByteWriter w;
  write_fingerprint(w, ckpt.graph);
  w.u64(ckpt.epoch);
  w.i32(ckpt.num_vertices);
  w.u64(ckpt.edges.size());
  for (const auto& [u, v] : ckpt.edges) {
    w.i32(u);
    w.i32(v);
  }
  w.i32_vector(ckpt.assignment);
  w.i32(ckpt.num_blocks);
  w.f64(ckpt.mdl);
  atomic_write_file(path, seal(kKindServe, w.str()), fault);
}

ServeCheckpoint load_serve_checkpoint(const std::string& path) {
  // The payload must outlive the reader (ByteReader is a view).
  const std::string payload = open_envelope(path, kKindServe);
  ByteReader r(payload);
  ServeCheckpoint ckpt;
  ckpt.graph = read_fingerprint(r);
  ckpt.epoch = r.u64();
  ckpt.num_vertices = r.i32();
  const std::uint64_t edge_count = r.u64();
  if (edge_count > r.remaining() / 8) {
    throw DataError("checkpoint '" + path +
                    "': edge count exceeds payload");
  }
  ckpt.edges.reserve(static_cast<std::size_t>(edge_count));
  for (std::uint64_t e = 0; e < edge_count; ++e) {
    const std::int32_t u = r.i32();
    const std::int32_t v = r.i32();
    if (u < 0 || u >= ckpt.num_vertices || v < 0 ||
        v >= ckpt.num_vertices) {
      throw DataError("checkpoint '" + path + "': edge " +
                      std::to_string(e) + " endpoint outside [0, " +
                      std::to_string(ckpt.num_vertices) + ")");
    }
    ckpt.edges.emplace_back(u, v);
  }
  ckpt.assignment = r.i32_vector();
  ckpt.num_blocks = r.i32();
  ckpt.mdl = r.f64();
  r.expect_end();

  if (ckpt.assignment.size() !=
      static_cast<std::size_t>(ckpt.num_vertices)) {
    throw DataError("checkpoint '" + path + "': assignment covers " +
                    std::to_string(ckpt.assignment.size()) + " of " +
                    std::to_string(ckpt.num_vertices) + " vertices");
  }
  for (const std::int32_t label : ckpt.assignment) {
    if (label < 0 || label >= ckpt.num_blocks) {
      throw DataError("checkpoint '" + path +
                      "': assignment label outside [0, " +
                      std::to_string(ckpt.num_blocks) + ")");
    }
  }
  // The stored fingerprint must describe the stored edges: a mismatch
  // means the payload was assembled from two different snapshots.
  const graph::Graph rebuilt =
      graph::Graph::from_edges(ckpt.num_vertices, ckpt.edges);
  if (!(fingerprint(rebuilt) == ckpt.graph)) {
    throw DataError("checkpoint '" + path +
                    "': stored edges do not match the stored graph "
                    "fingerprint");
  }
  return ckpt;
}

// ------------------------------------------------------------- helpers

std::uint32_t crc32(std::string_view data) noexcept {
  // IEEE 802.3 reflected CRC-32, table built on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace hsbp::ckpt
