/// \file checkpoint.hpp
/// \brief Versioned, CRC-checksummed snapshot format for long runs.
///
/// One envelope, two payload kinds:
///
///   ┌──────────────────────────────────────────────────────────┐
///   │ magic "HSBPCKPT" (8)                                     │
///   │ u32 format version · u8 kind                             │
///   │   (1=sbp-run, 3=serve-snapshot)                          │
///   │ u64 payload size · payload bytes                         │
///   │ u32 CRC-32 over everything between magic and this field  │
///   └──────────────────────────────────────────────────────────┘
///
/// All integers are little-endian; doubles are their IEEE-754 bit
/// patterns. Loaders check, in order: magic, version, kind, size,
/// CRC, then parse with a bounds-checked reader — a corrupt,
/// truncated, or version-mismatched file is always a util::DataError
/// with a message saying which check failed, never a crash or silent
/// garbage. Kind byte 2 (a retired sample-pipeline payload) is read as
/// an unknown kind.
///
/// The sbp-run payload captures the complete outer-loop state: the
/// golden-ratio bracket's three partitions with their MDLs and block
/// counts, the accumulated counters/timings, every RNG stream's
/// xoshiro256** state, and a graph fingerprint (V, E, degree-sequence
/// hash) plus the (variant, seed) pair, so resuming against the wrong
/// graph or configuration fails loudly instead of continuing a
/// different chain. It is also the SamBaS pipeline's only durable
/// state: sample::run checkpoints its subgraph fit and replays the
/// seed-deterministic stages around it.
///
/// The serve-snapshot payload is a published snapshot of the serving
/// daemon (`hsbp serve`): the full edge list of the graph as served —
/// streamed INGEST batches included, which is why the edges are stored
/// rather than re-read from the original file — plus the partition,
/// MDL, and publish epoch. A resumed daemon rebuilds the CSR from the
/// edges and serves the exact snapshot it last published.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sbp/golden_search.hpp"
#include "sbp/sbp.hpp"
#include "util/rng.hpp"

namespace hsbp::ckpt {

class FaultInjector;

/// Bump when the payload layout changes; old files are rejected with a
/// version-mismatch diagnostic (no silent reinterpretation).
constexpr std::uint32_t kFormatVersion = 1;

/// Identifies the graph a checkpoint belongs to. The degree-sequence
/// hash catches same-size-different-structure swaps that (V, E) alone
/// would miss.
struct GraphFingerprint {
  std::int32_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::uint64_t degree_hash = 0;

  bool operator==(const GraphFingerprint&) const = default;
};

GraphFingerprint fingerprint(const graph::GraphView& graph);

/// \throws util::DataError if `saved` does not match the live graph.
void validate_fingerprint(const GraphFingerprint& saved,
                          const graph::GraphView& graph,
                          const std::string& path);

// ------------------------------------------------------------ sbp-run

/// Full outer-loop state of sbp::run at a phase boundary.
struct SbpCheckpoint {
  GraphFingerprint graph;
  std::uint32_t variant = 0;  ///< static_cast of sbp::Variant
  std::uint64_t seed = 0;
  sbp::SbpStats stats;        ///< counters + seconds accumulated so far
  std::vector<util::Rng::State> rng_streams;
  sbp::GoldenSearch::State search;
};

/// Atomically writes the checkpoint (temp → fsync → rename).
/// \throws util::IoError on write failure.
void save_sbp_checkpoint(const std::string& path, const SbpCheckpoint& ckpt,
                         FaultInjector* fault = nullptr);

/// \throws util::IoError if unreadable, util::DataError if invalid.
SbpCheckpoint load_sbp_checkpoint(const std::string& path);

// ------------------------------------------------------ serve-snapshot

/// One published snapshot of the serving daemon: enough to rebuild the
/// graph as served (original file plus every ingested batch) and the
/// partition bit-exact. `graph` fingerprints the *stored* edge list so
/// a corrupted or hand-swapped file fails loudly on load.
struct ServeCheckpoint {
  GraphFingerprint graph;
  std::uint64_t epoch = 0;
  std::int32_t num_vertices = 0;
  std::vector<graph::Edge> edges;
  std::vector<std::int32_t> assignment;
  std::int32_t num_blocks = 0;
  double mdl = 0.0;
};

void save_serve_checkpoint(const std::string& path,
                           const ServeCheckpoint& ckpt,
                           FaultInjector* fault = nullptr);

/// \throws util::IoError if unreadable, util::DataError if invalid —
/// including when the stored edge list no longer matches the stored
/// fingerprint or the assignment does not cover the vertex set.
ServeCheckpoint load_serve_checkpoint(const std::string& path);

// ------------------------------------------------------------- helpers

/// CRC-32 (IEEE 802.3, reflected) — exposed for the format tests.
std::uint32_t crc32(std::string_view data) noexcept;

}  // namespace hsbp::ckpt
