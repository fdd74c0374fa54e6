/// Forced-dispatch bit-identity of the SIMD layer (DESIGN §13): every
/// dispatch level the host supports — scalar, SSE2, AVX2 — must produce
/// the SAME bits as the audited scalar reference, for the low-level
/// primitives and for the full move kernels on random moves across the
/// three graph densities. All comparisons are exact ==, never
/// EXPECT_NEAR: the canonical strided-4 accumulation order makes the
/// levels literally interchangeable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "blockmodel/blockmodel.hpp"
#include "blockmodel/merge_delta.hpp"
#include "blockmodel/simd_kernels.hpp"
#include "blockmodel/vertex_move_delta.hpp"
#include "generator/dcsbm.hpp"
#include "reference_kernels.hpp"
#include "sbp/hastings.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace hsbp::blockmodel {
namespace {

using graph::Graph;
using graph::Vertex;
namespace usimd = util::simd;

/// Forces a dispatch level for the test body and restores the previous
/// one on scope exit, so test order never leaks a forced level.
class ScopedLevel {
 public:
  explicit ScopedLevel(usimd::Level level) : saved_(usimd::active_level()) {
    usimd::set_level(level);
  }
  ~ScopedLevel() { usimd::set_level(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  usimd::Level saved_;
};

std::vector<usimd::Level> supported_levels() {
  std::vector<usimd::Level> levels;
  for (const auto level :
       {usimd::Level::kScalar, usimd::Level::kSse2, usimd::Level::kAvx2}) {
    if (level <= usimd::max_supported_level()) levels.push_back(level);
  }
  return levels;
}

TEST(SimdDispatch, ParseLevelRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(usimd::parse_level("scalar"), usimd::Level::kScalar);
  EXPECT_EQ(usimd::parse_level("sse2"), usimd::Level::kSse2);
  EXPECT_EQ(usimd::parse_level("avx2"), usimd::Level::kAvx2);
  EXPECT_EQ(usimd::parse_level("auto"), std::nullopt);
  EXPECT_EQ(usimd::parse_level("neon"), std::nullopt);
  EXPECT_EQ(usimd::parse_level(""), std::nullopt);
  for (const auto level : supported_levels()) {
    EXPECT_EQ(usimd::parse_level(usimd::level_name(level)), level);
  }
}

TEST(SimdDispatch, SetLevelClampsToHostSupport) {
  const usimd::Level saved = usimd::active_level();
  usimd::set_level(usimd::Level::kAvx2);
  EXPECT_LE(usimd::active_level(), usimd::max_supported_level());
  usimd::set_level(usimd::Level::kScalar);
  EXPECT_EQ(usimd::active_level(), usimd::Level::kScalar);
  usimd::set_level(saved);
}

/// The primitives on raw arrays: every level must match the scalar
/// level bit-for-bit across awkward lengths (0, 1, partial vectors,
/// tails of every residue mod 8).
TEST(SimdPrimitives, BitIdenticalAcrossLevelsAndLengths) {
  util::Rng rng(20260808);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> terms(n), kd(n), fnum(n), fden(n), bnum(n), bden(n);
    std::vector<Count> newv(n), oldv(n), fa(n), fb(n), fc(n);
    for (std::size_t i = 0; i < n; ++i) {
      terms[i] = rng.uniform() * 100.0 - 50.0;
      kd[i] = static_cast<double>(1 + rng.uniform_int(std::uint64_t{16}));
      fnum[i] = rng.uniform() * 40.0 + 1.0;
      fden[i] = rng.uniform() * 40.0 + 2.0;
      bnum[i] = rng.uniform() * 40.0 + 1.0;
      bden[i] = rng.uniform() * 40.0 + 2.0;
      // Straddle the xlogx table boundary so the live-log fallback
      // lanes are exercised too.
      oldv[i] = static_cast<Count>(rng.uniform_int(
          static_cast<std::uint64_t>(2 * kXlogxTableSize)));
      newv[i] = static_cast<Count>(rng.uniform_int(
          static_cast<std::uint64_t>(2 * kXlogxTableSize)));
      fb[i] = static_cast<Count>(rng.uniform_int(
          static_cast<std::uint64_t>(kXlogxTableSize)));
      fc[i] = static_cast<Count>(rng.uniform_int(
          static_cast<std::uint64_t>(kXlogxTableSize)));
      fa[i] = fb[i] + fc[i];
    }

    // Scalar results are the reference bits.
    double strided_ref = 0.0, fwd_ref = 0.0, bwd_ref = 0.0;
    double diff_ref = 0.0, fold_ref = 0.0;
    {
      const ScopedLevel force(usimd::Level::kScalar);
      strided_ref = usimd::strided_sum(terms.data(), n);
      usimd::ratio_pair_sums(kd.data(), fnum.data(), fden.data(), bnum.data(),
                             bden.data(), n, &fwd_ref, &bwd_ref);
      diff_ref = simd::xlogx_diff_sum(newv.data(), oldv.data(), n);
      fold_ref = simd::merge_fold_sum(fa.data(), fb.data(), fc.data(), n);
    }
    for (const auto level : supported_levels()) {
      const ScopedLevel force(level);
      EXPECT_EQ(usimd::strided_sum(terms.data(), n), strided_ref)
          << "level=" << usimd::level_name(level) << " n=" << n;
      double fwd = 0.0, bwd = 0.0;
      usimd::ratio_pair_sums(kd.data(), fnum.data(), fden.data(), bnum.data(),
                             bden.data(), n, &fwd, &bwd);
      EXPECT_EQ(fwd, fwd_ref)
          << "level=" << usimd::level_name(level) << " n=" << n;
      EXPECT_EQ(bwd, bwd_ref)
          << "level=" << usimd::level_name(level) << " n=" << n;
      EXPECT_EQ(simd::xlogx_diff_sum(newv.data(), oldv.data(), n), diff_ref)
          << "level=" << usimd::level_name(level) << " n=" << n;
      EXPECT_EQ(simd::merge_fold_sum(fa.data(), fb.data(), fc.data(), n),
                fold_ref)
          << "level=" << usimd::level_name(level) << " n=" << n;
    }
  }
}

/// The async phase can stage transiently negative post-move counts
/// (fresh membership reads against a pass-frozen matrix). xlogx_count
/// routes them through the live-log fallback — a NaN term — and every
/// vector level must do the same instead of gathering table[negative]
/// out of bounds (the scalar/AVX2 divergence this test pins down).
/// NaN != NaN, so the comparison is on bits, not values.
TEST(SimdPrimitives, NegativeCountsTakeFallbackLaneBitIdentically) {
  util::Rng rng(20260809);
  for (std::size_t n = 1; n <= 19; ++n) {
    std::vector<Count> newv(n), oldv(n);
    for (std::size_t i = 0; i < n; ++i) {
      oldv[i] = static_cast<Count>(rng.uniform_int(std::uint64_t{8}));
      newv[i] = oldv[i] + 1;
    }
    // One negative staged value per group of 4 so the vector loop body
    // (not just the scalar tail) sees it.
    for (std::size_t i = 0; i < n; i += 4) newv[i] = -1;

    double ref;
    {
      const ScopedLevel force(usimd::Level::kScalar);
      ref = simd::xlogx_diff_sum(newv.data(), oldv.data(), n);
    }
    EXPECT_TRUE(std::isnan(ref)) << "n=" << n;
    for (const auto level : supported_levels()) {
      const ScopedLevel force(level);
      const double got = simd::xlogx_diff_sum(newv.data(), oldv.data(), n);
      EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0)
          << "level=" << usimd::level_name(level) << " n=" << n
          << " got=" << got << " ref=" << ref;
    }
  }
}

struct SimdDensityCase {
  graph::Vertex vertices;
  std::int32_t communities;
  graph::EdgeCount edges;
};

/// Sparse, medium, and dense: density controls the neighbor fan-out and
/// hence whether the kernels take their small-n scalar or batched
/// vector paths — both must hold the identity.
const SimdDensityCase kSimdDensities[] = {
    {120, 6, 360},    // sparse: avg degree 3
    {120, 6, 1800},   // medium: avg degree 15
    {120, 6, 7200},   // dense: avg degree 60
};

class SimdKernelIdentity : public ::testing::TestWithParam<int> {};

/// The full move-kernel chain — gather, ΔMDL, Hastings correction,
/// post-move cell lookup — forced to each supported dispatch level,
/// compared == against the audited reference on random moves.
TEST_P(SimdKernelIdentity, MoveChainBitIdenticalAtEveryLevel) {
  const SimdDensityCase& dc = kSimdDensities[GetParam()];

  generator::DcsbmParams params;
  params.num_vertices = dc.vertices;
  params.num_communities = dc.communities;
  params.num_edges = dc.edges;
  params.seed = 4242;
  const auto generated = generator::generate_dcsbm(params);
  const Graph& g = generated.graph;

  util::Rng rng(913 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::int32_t> state(static_cast<std::size_t>(dc.vertices));
  for (auto& label : state) {
    label = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
  }
  auto b = Blockmodel::from_assignment(g, state, dc.communities);
  const FlatMembershipView view{b.assignment().data()};
  const auto ref_view = [&b](Vertex u) { return b.block_of(u); };

  MoveScratch scratch;
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto v = static_cast<Vertex>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.vertices)));
    const BlockId from = b.block_of(v);
    const auto to = static_cast<BlockId>(
        rng.uniform_int(static_cast<std::uint64_t>(dc.communities)));
    if (to == from) continue;

    const auto ref_nb =
        reference::gather_neighbor_blocks_view(g, ref_view, v);
    const auto ref_delta = reference::vertex_move_delta(b, from, to, ref_nb);
    const double ref_corr =
        reference::hastings_correction(b, ref_nb, from, to, ref_delta);
    const auto ref_merge = reference::merge_delta_mdl(
        b, from, to, g.num_vertices(), g.num_edges());

    for (const auto level : supported_levels()) {
      const ScopedLevel force(level);
      gather_neighbor_blocks_into(g, view, v, b.num_blocks(), scratch);
      EXPECT_EQ(scratch.nb.out, ref_nb.out)
          << "level=" << usimd::level_name(level);
      EXPECT_EQ(scratch.nb.in, ref_nb.in)
          << "level=" << usimd::level_name(level);
      vertex_move_delta_into(b, from, to, scratch.nb, scratch);
      EXPECT_EQ(scratch.delta_mdl, ref_delta.delta_mdl)
          << "level=" << usimd::level_name(level) << " v=" << v << " from="
          << from << " to=" << to;
      EXPECT_EQ(sbp::hastings_correction(b, from, to, scratch), ref_corr)
          << "level=" << usimd::level_name(level) << " v=" << v << " from="
          << from << " to=" << to;
      EXPECT_EQ(merge_delta_mdl(b, from, to, g.num_vertices(), g.num_edges()),
                ref_merge)
          << "level=" << usimd::level_name(level) << " merge " << from
          << " into " << to;
    }

    ++compared;
    // Walk the chain so later trials see evolving, messy matrices.
    if (b.block_size(from) > 1 && trial % 3 == 0) b.move_vertex(g, v, to);
  }
  EXPECT_GT(compared, 200);
}

INSTANTIATE_TEST_SUITE_P(Densities, SimdKernelIdentity,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace hsbp::blockmodel
