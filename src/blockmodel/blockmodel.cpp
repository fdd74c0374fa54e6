#include "blockmodel/blockmodel.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <numeric>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "blockmodel/block_tally.hpp"
#include "util/omp_region.hpp"

namespace hsbp::blockmodel {

using graph::GraphView;
using graph::Vertex;

Blockmodel Blockmodel::from_assignment(const GraphView& graph,
                                       std::span<const std::int32_t> assignment,
                                       BlockId num_blocks) {
  return from_assignment_chunked(graph, assignment, num_blocks, 0, {});
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
  b.build_from(graph, chunk_vertices, release);
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

void Blockmodel::build_from(const GraphView& graph, Vertex chunk_vertices,
                            const std::function<void()>& release) {
  const auto blocks = static_cast<std::size_t>(num_blocks_);
  m_ = DictTransposeMatrix(num_blocks_);
  d_out_.assign(blocks, 0);
  d_in_.assign(blocks, 0);
  block_sizes_.assign(blocks, 0);

  // One order rule at every thread count (DESIGN §11): row r tallies the
  // out-neighbor blocks of its vertices in ascending id (the gather's
  // BlockTally), so it lists its columns in order of first sighting, and
  // the columns are filled from the rows in ascending row id. Threads
  // own contiguous ranges of rows, then of columns: the split decides
  // who writes a line, never its order.
  //
  // A counting sort lists block r's vertices in ascending id as
  // members[first[r] .. first[r + 1]); next[r] is the first of them no
  // row fill has taken yet.
  const Vertex v_count = graph.num_vertices();
  for (const std::int32_t label : assignment_) {
    ++block_sizes_[static_cast<std::size_t>(label)];
  }
  std::vector<std::int64_t> first(blocks + 1, v_count);
  std::partial_sum(block_sizes_.begin(), block_sizes_.end(), first.begin());
  std::vector<Vertex> members(static_cast<std::size_t>(v_count));
  for (Vertex v = v_count; v-- > 0;) {
    const auto label = static_cast<std::size_t>(block_of(v));
    members[static_cast<std::size_t>(--first[label])] = v;
  }
  std::vector<std::int64_t> next(first.begin(), first.end() - 1);

  // One tally and one set of partial sums per thread, a cache line apart.
  struct alignas(64) ThreadPart {
    BlockTally tally;
    Count total = 0;
    std::int64_t nnz = 0;
  };
  std::vector<ThreadPart> parts(
      static_cast<std::size_t>(omp_get_max_threads()));

  // The calling thread's share [lo, hi) of the C rows (or columns).
  const auto owned = [c = static_cast<std::int64_t>(num_blocks_)] {
    const std::int64_t t = omp_get_thread_num();
    const std::int64_t n = omp_get_num_threads();
    return std::pair{static_cast<BlockId>(c * t / n),
                     static_cast<BlockId>(c * (t + 1) / n)};
  };

  // Bodies of the util::omp_region calls below. fill_rows(end) adds to
  // each owned row its untaken members below `end`.
  const auto fill_rows = [&](Vertex end) {
    const auto [lo, hi] = owned();
    BlockTally& tally =
        parts[static_cast<std::size_t>(omp_get_thread_num())].tally;
    const std::int32_t* const labels = assignment_.data();
    const auto label_of = [labels](Vertex u) {
      return labels[static_cast<std::size_t>(u)];
    };
    const auto out_neighbors = [&graph](Vertex v) {
      return graph.out_neighbors(v);
    };
    const auto member = [&members](std::int64_t i) {
      return members[static_cast<std::size_t>(i)];
    };
    for (BlockId r = lo; r < hi; ++r) {
      const auto row = static_cast<std::size_t>(r);
      const std::int64_t from = next[row];
      Count sightings = 0;
      for (; next[row] < first[row + 1] && member(next[row]) < end;
           ++next[row]) {
        sightings += graph.out_degree(member(next[row]));
      }
      if (next[row] == from) continue;
      const std::span<const Vertex> taken(
          members.data() + from, static_cast<std::size_t>(next[row] - from));
      FlatSlice& slice = m_.bulk_row(r);
      // Runs of at most INT32_MAX sightings keep the tally's counters
      // from overflowing on a row of more out-edges; they add up to the
      // single tally's entries, in its order.
      tally_runs(tally, num_blocks_,
                 taken | std::views::transform(out_neighbors),
                 static_cast<std::size_t>(sightings), label_of,
                 [&slice](BlockId col, std::int32_t n) { slice.add(col, n); });
      d_out_[row] += sightings;
    }
  };

  const auto fill_cols = [&] {
    const auto [lo, hi] = owned();
    ThreadPart& part = parts[static_cast<std::size_t>(omp_get_thread_num())];
    for (BlockId r = 0; r < num_blocks_; ++r) {
      for (const auto& [col, value] : m_.row(r)) {
        if (col < lo || col >= hi) continue;
        part.nnz += m_.bulk_col(col).add(r, value);
        d_in_[static_cast<std::size_t>(col)] += value;
        part.total += value;
      }
    }
  };

  // Out-of-core builds scan bounded vertex ranges, calling `release`
  // between ranges to drop mapped CSR pages, so peak residency stays near
  // one chunk; the ranges run in ascending order, so the rows come out
  // the same. Every other build fills its rows in one range.
  const std::int64_t chunk = release && chunk_vertices > 0
                                 ? chunk_vertices
                                 : std::max<std::int64_t>(v_count, 1);
  for (std::int64_t begin = 0; begin < v_count; begin += chunk) {
    const auto end =
        static_cast<Vertex>(std::min<std::int64_t>(begin + chunk, v_count));
    util::omp_region([&] { fill_rows(end); });
    if (release) release();
  }
  util::omp_region(fill_cols);  // every row is final here

  Count total = 0;
  std::int64_t nnz = 0;
  for (const ThreadPart& part : parts) {
    total += part.total;
    nnz += part.nnz;
  }
  m_.set_bulk_counters(total, static_cast<std::size_t>(nnz));
}

void Blockmodel::move_vertex(const GraphView& graph, Vertex v, BlockId to) {
  const BlockId from = assignment_[static_cast<std::size_t>(v)];
  if (from == to) return;
  assert(to >= 0 && to < num_blocks_);
  // Each edge incident on v is touched exactly once: out-edges cover the
  // self-loop case (v, v); in-edges skip u == v to avoid double counting.
  for (const Vertex u : graph.out_neighbors(v)) {
    const BlockId ub = (u == v) ? from : assignment_[static_cast<std::size_t>(u)];
    m_.add(from, ub, -1);
  }
  for (const Vertex u : graph.in_neighbors(v)) {
    if (u == v) continue;
    m_.add(assignment_[static_cast<std::size_t>(u)], from, -1);
  }

  assignment_[static_cast<std::size_t>(v)] = to;

  for (const Vertex u : graph.out_neighbors(v)) {
    const BlockId ub = (u == v) ? to : assignment_[static_cast<std::size_t>(u)];
    m_.add(to, ub, +1);
  }
  for (const Vertex u : graph.in_neighbors(v)) {
    if (u == v) continue;
    m_.add(assignment_[static_cast<std::size_t>(u)], to, +1);
  }

  const Count out_deg = graph.out_degree(v);
  const Count in_deg = graph.in_degree(v);
  d_out_[static_cast<std::size_t>(from)] -= out_deg;
  d_out_[static_cast<std::size_t>(to)] += out_deg;
  d_in_[static_cast<std::size_t>(from)] -= in_deg;
  d_in_[static_cast<std::size_t>(to)] += in_deg;
  --block_sizes_[static_cast<std::size_t>(from)];
  ++block_sizes_[static_cast<std::size_t>(to)];
}

bool Blockmodel::check_consistency(const GraphView& graph) const {
  if (!m_.check_consistency()) return false;
  Blockmodel fresh = from_assignment(graph, assignment_, num_blocks_);
  if (fresh.m_.total() != m_.total()) return false;
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
