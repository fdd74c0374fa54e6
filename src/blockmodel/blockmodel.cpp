#include "blockmodel/blockmodel.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "blockmodel/block_tally.hpp"
#include "util/omp_region.hpp"

namespace hsbp::blockmodel {

using graph::GraphView;
using graph::Vertex;

Blockmodel Blockmodel::from_assignment(const GraphView& graph,
                                       std::span<const std::int32_t> assignment,
                                       BlockId num_blocks) {
  if (assignment.size() != static_cast<std::size_t>(graph.num_vertices())) {
    throw std::invalid_argument("Blockmodel: assignment size " +
                                std::to_string(assignment.size()) +
                                " != vertex count " +
                                std::to_string(graph.num_vertices()));
  }
  for (const std::int32_t label : assignment) {
    if (label < 0 || label >= num_blocks) {
      throw std::invalid_argument("Blockmodel: label " +
                                  std::to_string(label) +
                                  " outside [0, " +
                                  std::to_string(num_blocks) + ")");
    }
  }
  Blockmodel b;
  b.num_blocks_ = num_blocks;
  b.assignment_.assign(assignment.begin(), assignment.end());
  b.build_from(graph);
  return b;
}

Blockmodel Blockmodel::from_assignment_chunked(
    const GraphView& graph, std::span<const std::int32_t> assignment,
    BlockId num_blocks, Vertex chunk_vertices,
    const std::function<void()>& release) {
  if (assignment.size() != static_cast<std::size_t>(graph.num_vertices())) {
    throw std::invalid_argument("Blockmodel: assignment size " +
                                std::to_string(assignment.size()) +
                                " != vertex count " +
                                std::to_string(graph.num_vertices()));
  }
  for (const std::int32_t label : assignment) {
    if (label < 0 || label >= num_blocks) {
      throw std::invalid_argument("Blockmodel: label " +
                                  std::to_string(label) +
                                  " outside [0, " +
                                  std::to_string(num_blocks) + ")");
    }
  }
  Blockmodel b;
  b.num_blocks_ = num_blocks;
  b.assignment_.assign(assignment.begin(), assignment.end());
  b.build_from(graph, chunk_vertices, &release);
  return b;
}

Blockmodel Blockmodel::identity(const GraphView& graph) {
  std::vector<std::int32_t> assignment(
      static_cast<std::size_t>(graph.num_vertices()));
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    assignment[v] = static_cast<std::int32_t>(v);
  }
  return from_assignment(graph, assignment, graph.num_vertices());
}

void Blockmodel::build_from(const GraphView& graph) {
  build_from(graph, 0, nullptr);
}

void Blockmodel::build_from(const GraphView& graph, Vertex chunk_vertices,
                            const std::function<void()>* release) {
  const auto blocks = static_cast<std::size_t>(num_blocks_);
  m_ = DictTransposeMatrix(num_blocks_);
  d_out_.assign(blocks, 0);
  d_in_.assign(blocks, 0);
  block_sizes_.assign(blocks, 0);
  ll_cells_ = 0;
  ll_degrees_ = 0;

  for (const std::int32_t label : assignment_) {
    ++block_sizes_[static_cast<std::size_t>(label)];
  }

  // Sharded parallel accumulation (DESIGN §11): phase A gathers each
  // thread's (block pair → count) maps bucketed by row owner
  // (shard = row mod S); phase B merges each row shard into the matrix
  // rows — no two shards share a row, so no locks — accumulating d_out_
  // in the same sweep and re-emitting the merged cells bucketed by
  // column owner; phase C merges those into the column slices,
  // accumulating d_in_. The likelihood partials are per-shard
  // fixed-point integers, so the serial reduction at the end is
  // order-independent and the result is bit-identical to the
  // incrementally maintained sums.
  const Vertex v_count = graph.num_vertices();
  const int threads = omp_get_max_threads();
  const auto shards = static_cast<std::size_t>(threads);

  std::vector<std::vector<std::unordered_map<std::uint64_t, Count>>> locals(
      shards, std::vector<std::unordered_map<std::uint64_t, Count>>(shards));

  struct ColCell {
    BlockId row;
    BlockId col;
    Count value;
  };
  std::vector<std::vector<std::vector<ColCell>>> col_cells(
      shards, std::vector<std::vector<ColCell>>(shards));

  struct ShardTotals {
    Count total = 0;
    std::int64_t nnz = 0;
    LlFixed ll_cells = 0;
    LlFixed ll_degrees = 0;
  };
  std::vector<ShardTotals> totals(shards);

  // Orphaned worksharing bodies: each runs inside an enclosing
  // util::omp_region. Splitting them out lets the chunked path below run
  // phase A over bounded vertex ranges (releasing mapped pages between
  // ranges) while the default path keeps the original single region.
  //
  // Phase A tallies each vertex's out-neighbor blocks first (the
  // gather's BlockTally), then makes one map update per distinct
  // (row, col) pair in first-sighting order instead of one per edge. A
  // libstdc++ unordered_map's iteration order depends only on the
  // sequence of new keys inserted (rehashes are triggered by the
  // element count), and a key new to the map is inserted at its first
  // sighting either way — so phases B and C see the same maps, in the
  // same order, and build the same slices (DESIGN §11).
  //
  // One tally per thread, a cache line apart: every vertex writes its
  // thread's tally.
  struct alignas(64) ThreadTally {
    BlockTally tally;
  };
  std::vector<ThreadTally> tallies(shards);
  const auto phase_a = [&](Vertex begin, Vertex end) {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    auto& local = locals[tid];
    BlockTally& tally = tallies[tid].tally;
#pragma omp for schedule(static) nowait
    for (Vertex v = begin; v < end; ++v) {
      const auto src_block = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(assignment_[static_cast<std::size_t>(v)]));
      auto& bucket = local[static_cast<std::size_t>(src_block) % shards];
      const std::span<const Vertex> targets = graph.out_neighbors(v);
      tally.begin(num_blocks_, targets.size());
      tally.add(targets, -1, [labels = assignment_.data()](Vertex u) {
        return labels[static_cast<std::size_t>(u)];
      });
      for (std::size_t i = 0; i < tally.size(); ++i) {
        const BlockId dst_block = tally.block(i);
        bucket[(src_block << 32) | static_cast<std::uint32_t>(dst_block)] +=
            tally.count(dst_block);
      }
    }
  };

  const auto phase_b = [&] {
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(shards); ++s) {
      ShardTotals& t = totals[static_cast<std::size_t>(s)];
      for (std::size_t src = 0; src < shards; ++src) {
        for (const auto& [key, count] :
             locals[src][static_cast<std::size_t>(s)]) {
          const auto row = static_cast<BlockId>(key >> 32);
          const auto col = static_cast<BlockId>(key & 0xffffffffULL);
          t.nnz += m_.bulk_row(row).add(col, count);
          d_out_[static_cast<std::size_t>(row)] += count;
          t.total += count;
        }
      }
      // Owned rows are final here: fold their cells into the likelihood
      // partial and re-bucket them by column owner for phase C.
      auto& out_buckets = col_cells[static_cast<std::size_t>(s)];
      for (auto r = static_cast<BlockId>(s); r < num_blocks_;
           r += static_cast<BlockId>(shards)) {
        for (const auto& [col, value] : m_.bulk_row(r)) {
          t.ll_cells += xlogx_fixed(value);
          out_buckets[static_cast<std::size_t>(col) % shards].push_back(
              {r, col, value});
        }
        t.ll_degrees += xlogx_fixed(d_out_[static_cast<std::size_t>(r)]);
      }
    }
  };

  const auto phase_c = [&] {
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(shards); ++s) {
      ShardTotals& t = totals[static_cast<std::size_t>(s)];
      for (std::size_t src = 0; src < shards; ++src) {
        for (const ColCell& cell :
             col_cells[src][static_cast<std::size_t>(s)]) {
          m_.bulk_col(cell.col).add(cell.row, cell.value);
          d_in_[static_cast<std::size_t>(cell.col)] += cell.value;
        }
      }
      for (auto c = static_cast<BlockId>(s); c < num_blocks_;
           c += static_cast<BlockId>(shards)) {
        t.ll_degrees += xlogx_fixed(d_in_[static_cast<std::size_t>(c)]);
      }
    }
  };

  if (release == nullptr) {
    util::omp_region([&] {
      phase_a(0, v_count);
      util::omp_region_barrier();  // phase A maps → phase B merge
      phase_b();
      util::omp_region_barrier();  // phase B cells → phase C columns
      phase_c();
    });
  } else {
    // Out-of-core path: scan bounded vertex ranges, dropping mapped CSR
    // pages between ranges so peak residency stays near one chunk. The
    // gathered maps are the same integer counts, just accumulated in a
    // different grouping.
    const std::int64_t chunk =
        chunk_vertices > 0 ? chunk_vertices
                           : std::max<std::int64_t>(v_count, 1);
    for (std::int64_t begin = 0; begin < v_count; begin += chunk) {
      const auto end = static_cast<Vertex>(
          std::min<std::int64_t>(begin + chunk, v_count));
      util::omp_region(
          [&] { phase_a(static_cast<Vertex>(begin), end); });
      (*release)();
    }
    util::omp_region([&] {
      phase_b();
      util::omp_region_barrier();  // phase B cells → phase C columns
      phase_c();
    });
  }

  Count total = 0;
  std::int64_t nnz = 0;
  for (const ShardTotals& t : totals) {
    total += t.total;
    nnz += t.nnz;
    ll_cells_ += t.ll_cells;
    ll_degrees_ += t.ll_degrees;
  }
  m_.set_bulk_counters(total, static_cast<std::size_t>(nnz));
}

void Blockmodel::move_vertex(const GraphView& graph, Vertex v, BlockId to) {
  const BlockId from = assignment_[static_cast<std::size_t>(v)];
  if (from == to) return;
  assert(to >= 0 && to < num_blocks_);
  // Each edge incident on v is touched exactly once: out-edges cover the
  // self-loop case (v, v); in-edges skip u == v to avoid double counting.
  // The Σ xlogx(M_rs) step terms (one canonical step-table lookup per
  // ±1 cell change) accumulate in a local before one flush into the
  // fixed-point member — integer addition keeps the sum bit-identical
  // to any other grouping.
  LlFixed ll_delta = 0;
  for (const Vertex u : graph.out_neighbors(v)) {
    const BlockId ub = (u == v) ? from : assignment_[static_cast<std::size_t>(u)];
    ll_delta += remove_cell_unit(from, ub);
  }
  for (const Vertex u : graph.in_neighbors(v)) {
    if (u == v) continue;
    ll_delta += remove_cell_unit(assignment_[static_cast<std::size_t>(u)], from);
  }

  assignment_[static_cast<std::size_t>(v)] = to;

  for (const Vertex u : graph.out_neighbors(v)) {
    const BlockId ub = (u == v) ? to : assignment_[static_cast<std::size_t>(u)];
    ll_delta += insert_cell_unit(to, ub);
  }
  for (const Vertex u : graph.in_neighbors(v)) {
    if (u == v) continue;
    ll_delta += insert_cell_unit(assignment_[static_cast<std::size_t>(u)], to);
  }
  ll_cells_ += ll_delta;

  const Count out_deg = graph.out_degree(v);
  const Count in_deg = graph.in_degree(v);
  ll_degrees_ -= xlogx_fixed(d_out_[static_cast<std::size_t>(from)]) +
                 xlogx_fixed(d_out_[static_cast<std::size_t>(to)]) +
                 xlogx_fixed(d_in_[static_cast<std::size_t>(from)]) +
                 xlogx_fixed(d_in_[static_cast<std::size_t>(to)]);
  d_out_[static_cast<std::size_t>(from)] -= out_deg;
  d_out_[static_cast<std::size_t>(to)] += out_deg;
  d_in_[static_cast<std::size_t>(from)] -= in_deg;
  d_in_[static_cast<std::size_t>(to)] += in_deg;
  ll_degrees_ += xlogx_fixed(d_out_[static_cast<std::size_t>(from)]) +
                 xlogx_fixed(d_out_[static_cast<std::size_t>(to)]) +
                 xlogx_fixed(d_in_[static_cast<std::size_t>(from)]) +
                 xlogx_fixed(d_in_[static_cast<std::size_t>(to)]);
  --block_sizes_[static_cast<std::size_t>(from)];
  ++block_sizes_[static_cast<std::size_t>(to)];
}

void Blockmodel::rebuild(const GraphView& graph,
                         std::span<const std::int32_t> assignment) {
  assert(assignment.size() == static_cast<std::size_t>(graph.num_vertices()));
  assignment_.assign(assignment.begin(), assignment.end());
  build_from(graph);
}

bool Blockmodel::check_consistency(const GraphView& graph) const {
  if (!m_.check_consistency()) return false;
  Blockmodel fresh = from_assignment(graph, assignment_, num_blocks_);
  if (fresh.m_.total() != m_.total()) return false;
  // The maintained fixed-point likelihood sums must equal a from-scratch
  // rebuild's exactly (integer addition is order-independent).
  if (fresh.ll_cells_ != ll_cells_ || fresh.ll_degrees_ != ll_degrees_) {
    return false;
  }
  for (BlockId r = 0; r < num_blocks_; ++r) {
    if (fresh.d_out_[static_cast<std::size_t>(r)] !=
            d_out_[static_cast<std::size_t>(r)] ||
        fresh.d_in_[static_cast<std::size_t>(r)] !=
            d_in_[static_cast<std::size_t>(r)] ||
        fresh.block_sizes_[static_cast<std::size_t>(r)] !=
            block_sizes_[static_cast<std::size_t>(r)]) {
      return false;
    }
    for (const auto& [col, value] : fresh.m_.row(r)) {
      if (m_.get(r, col) != value) return false;
    }
    for (const auto& [col, value] : m_.row(r)) {
      if (fresh.m_.get(r, col) != value) return false;
    }
  }
  return true;
}

}  // namespace hsbp::blockmodel
