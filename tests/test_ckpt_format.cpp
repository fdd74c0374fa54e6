// Checkpoint envelope format: round-trips, and rejection (with a clear
// diagnostic, never a crash) of corrupt, truncated, version-mismatched,
// wrong-kind, and wrong-graph files.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/atomic_file.hpp"
#include "ckpt/checkpoint.hpp"
#include "graph/graph.hpp"
#include "util/errors.hpp"

namespace hsbp::ckpt {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

void rewrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Asserts that `load` throws util::DataError whose message contains
/// `needle` — the "clear diagnostic" half of the rejection contract.
template <typename Fn>
void expect_rejected(Fn load, const std::string& needle) {
  try {
    load();
    FAIL() << "expected util::DataError containing '" << needle << "'";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

graph::Graph triangle_graph() {
  return graph::Graph::from_edges(4, {{{0, 1}, {1, 2}, {2, 0}, {3, 0}}});
}

SbpCheckpoint make_sbp_checkpoint(const graph::Graph& g) {
  SbpCheckpoint ckpt;
  ckpt.graph = fingerprint(g);
  ckpt.variant = 2;
  ckpt.seed = 42;
  ckpt.stats.outer_iterations = 7;
  ckpt.stats.mcmc_iterations = 31;
  ckpt.stats.proposals = 100;
  ckpt.stats.accepted_moves = 40;
  ckpt.stats.mcmc_seconds = 1.5;
  ckpt.stats.block_merge_seconds = 0.25;
  ckpt.stats.total_seconds = 2.0;
  ckpt.rng_streams = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  ckpt.search.upper = {{0, 1, 2, 3}, 4, 150.0};
  ckpt.search.mid = {{0, 1, 1, 0}, 2, 120.5};
  ckpt.search.have_mid = true;
  return ckpt;
}

TEST(Crc32, MatchesKnownVectors) {
  EXPECT_EQ(crc32(""), 0u);
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(CheckpointFormat, SbpRoundTrip) {
  const auto g = triangle_graph();
  const std::string path = temp_path("sbp_roundtrip.ckpt");
  const auto saved = make_sbp_checkpoint(g);
  save_sbp_checkpoint(path, saved);

  const auto loaded = load_sbp_checkpoint(path);
  EXPECT_EQ(loaded.graph, saved.graph);
  EXPECT_EQ(loaded.variant, saved.variant);
  EXPECT_EQ(loaded.seed, saved.seed);
  EXPECT_EQ(loaded.stats.outer_iterations, saved.stats.outer_iterations);
  EXPECT_EQ(loaded.stats.mcmc_iterations, saved.stats.mcmc_iterations);
  EXPECT_DOUBLE_EQ(loaded.stats.mcmc_seconds, saved.stats.mcmc_seconds);
  EXPECT_EQ(loaded.rng_streams, saved.rng_streams);
  EXPECT_EQ(loaded.search.upper.assignment, saved.search.upper.assignment);
  EXPECT_EQ(loaded.search.mid.assignment, saved.search.mid.assignment);
  EXPECT_DOUBLE_EQ(loaded.search.mid.mdl, saved.search.mid.mdl);
  EXPECT_TRUE(loaded.search.have_mid);
  EXPECT_FALSE(loaded.search.have_lower);
  EXPECT_FALSE(loaded.search.done);
  fs::remove(path);
}

TEST(CheckpointFormat, CorruptPayloadFailsCrc) {
  const auto g = triangle_graph();
  const std::string path = temp_path("corrupt.ckpt");
  save_sbp_checkpoint(path, make_sbp_checkpoint(g));

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  rewrite(path, bytes);

  expect_rejected([&] { load_sbp_checkpoint(path); }, "CRC-32");
}

TEST(CheckpointFormat, TruncatedFileRejected) {
  const auto g = triangle_graph();
  const std::string path = temp_path("truncated.ckpt");
  save_sbp_checkpoint(path, make_sbp_checkpoint(g));

  std::string bytes = read_file(path);
  bytes.resize(bytes.size() - 7);
  rewrite(path, bytes);

  expect_rejected([&] { load_sbp_checkpoint(path); }, "truncated");
}

TEST(CheckpointFormat, SeverelyTruncatedFileRejected) {
  const std::string path = temp_path("stub.ckpt");
  rewrite(path, "HSBPCKPT");  // magic only, nothing after
  expect_rejected([&] { load_sbp_checkpoint(path); }, "truncated");
}

TEST(CheckpointFormat, BadMagicRejected) {
  const std::string path = temp_path("not_a.ckpt");
  rewrite(path, "definitely not a checkpoint file at all");
  expect_rejected([&] { load_sbp_checkpoint(path); }, "bad magic");
}

TEST(CheckpointFormat, VersionMismatchRejected) {
  const auto g = triangle_graph();
  const std::string path = temp_path("version.ckpt");
  save_sbp_checkpoint(path, make_sbp_checkpoint(g));

  // The u32 version sits immediately after the 8-byte magic
  // (little-endian); bump it to a future version.
  std::string bytes = read_file(path);
  bytes[8] = 99;
  rewrite(path, bytes);

  expect_rejected([&] { load_sbp_checkpoint(path); }, "format version 99");
}

TEST(CheckpointFormat, WrongKindRejected) {
  const auto g = triangle_graph();
  const std::string path = temp_path("kind.ckpt");
  save_sbp_checkpoint(path, make_sbp_checkpoint(g));
  // A serve-snapshot loader must refuse an sbp-run snapshot.
  expect_rejected([&] { load_serve_checkpoint(path); },
                  "holds a sbp-run snapshot, expected serve-snapshot");
  fs::remove(path);
}

TEST(CheckpointFormat, KindBytesArePinned) {
  // The kind is byte 12, after the 8-byte magic and the u32 version.
  // Files written by earlier builds must keep loading, so the values
  // never move.
  const auto g = triangle_graph();
  const std::string sbp_path = temp_path("kind_sbp.ckpt");
  save_sbp_checkpoint(sbp_path, make_sbp_checkpoint(g));
  std::string bytes = read_file(sbp_path);
  EXPECT_EQ(bytes[12], 1);

  const std::string serve_path = temp_path("kind_serve.ckpt");
  ServeCheckpoint serve;
  serve.graph = fingerprint(g);
  serve.epoch = 3;
  serve.num_vertices = g.num_vertices();
  serve.edges = g.edges();
  serve.assignment = {0, 0, 0, 1};
  serve.num_blocks = 2;
  serve.mdl = 12.5;
  save_serve_checkpoint(serve_path, serve);
  EXPECT_EQ(read_file(serve_path)[12], 3);
  EXPECT_EQ(load_serve_checkpoint(serve_path).epoch, 3u);

  // Kind 2 was the retired sample-pipeline payload: behind a valid CRC
  // it is still an unknown kind to every loader.
  bytes[12] = 2;
  const std::size_t crc_at = bytes.size() - 4;
  const std::uint32_t crc =
      crc32(std::string_view(bytes).substr(8, crc_at - 8));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[crc_at + i] = static_cast<char>((crc >> (8 * i)) & 0xffu);
  }
  rewrite(sbp_path, bytes);
  expect_rejected([&] { load_sbp_checkpoint(sbp_path); }, "unknown kind 2");
  expect_rejected([&] { load_serve_checkpoint(sbp_path); },
                  "unknown kind 2");
  fs::remove(sbp_path);
  fs::remove(serve_path);
}

TEST(CheckpointFormat, TrailingGarbageRejected) {
  const auto g = triangle_graph();
  const std::string path = temp_path("trailing.ckpt");
  save_sbp_checkpoint(path, make_sbp_checkpoint(g));

  std::string bytes = read_file(path);
  bytes += "extra";
  rewrite(path, bytes);

  expect_rejected([&] { load_sbp_checkpoint(path); }, "trailing garbage");
}

TEST(CheckpointFormat, MissingFileThrowsIoError) {
  EXPECT_THROW(load_sbp_checkpoint(temp_path("absent.ckpt")),
               util::IoError);
}

TEST(Fingerprint, DistinguishesStructureNotJustSize) {
  // Same V and E, different degree sequence → different fingerprint.
  const auto a = graph::Graph::from_edges(4, {{{0, 1}, {0, 2}, {0, 3}}});
  const auto b = graph::Graph::from_edges(4, {{{0, 1}, {1, 2}, {2, 3}}});
  const auto fa = fingerprint(a);
  const auto fb = fingerprint(b);
  EXPECT_EQ(fa.num_vertices, fb.num_vertices);
  EXPECT_EQ(fa.num_edges, fb.num_edges);
  EXPECT_NE(fa.degree_hash, fb.degree_hash);
  EXPECT_FALSE(fa == fb);
}

TEST(Fingerprint, WrongGraphValidationThrowsWithBothFingerprints) {
  const auto g = triangle_graph();
  const auto other = graph::Graph::from_edges(5, {{{0, 1}, {2, 3}, {3, 4}}});
  try {
    validate_fingerprint(fingerprint(g), other, "some.ckpt");
    FAIL() << "expected util::DataError";
  } catch (const util::DataError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("different graph"), std::string::npos) << what;
    EXPECT_NE(what.find("saved V=4"), std::string::npos) << what;
    EXPECT_NE(what.find("live V=5"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace hsbp::ckpt
