/// \file block_tally.hpp
/// \brief Per-block sighting counter with first-sighting order — the
/// dedup behind the MCMC step's neighbor gather and the blockmodel
/// build's edge scan (DESIGN §10, §11).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "blockmodel/flat_slice.hpp"
#include "graph/graph.hpp"

namespace hsbp::blockmodel {

/// Counts sightings per block id in a flat int32 array indexed by
/// block, and lists each block once, in the order of its first
/// sighting. Counting is branch-free: each sighting writes its block at
/// the list's end and advances the end only if the block is new.
/// begin() zeroes exactly the counters its own list names, so a tally
/// costs O(sightings), never O(C), and counters off the list read 0.
class BlockTally {
 public:
  /// Forgets the previous tally and makes room for up to `sightings`
  /// sightings of blocks in [0, num_blocks). Both arrays only grow.
  void begin(BlockId num_blocks, std::size_t sightings) {
    for (std::size_t i = 0; i < size_; ++i) {
      count_[static_cast<std::size_t>(list_[i])] = 0;
    }
    size_ = 0;
    if (count_.size() < static_cast<std::size_t>(num_blocks)) {
      count_.resize(static_cast<std::size_t>(num_blocks), 0);
    }
    if (list_.size() < sightings) list_.resize(sightings);
  }

  /// One sighting of block_of(u) for every u in `vertices` except
  /// `skip` (pass -1 to keep them all); returns how many were skipped.
  /// \pre every block_of(u) < the num_blocks of begin(), and at most
  /// `sightings` of them since begin() (neither is checked).
  template <typename BlockOf>
  std::size_t add(std::span<const graph::Vertex> vertices, graph::Vertex skip,
                  BlockOf block_of) noexcept {
    // Local copies of the array bases and the list end: the compiler
    // cannot prove the int32 stores below leave the members alone.
    BlockId* const list = list_.data();
    std::int32_t* const count = count_.data();
    std::size_t size = size_;
    std::size_t skipped = 0;
    for (const graph::Vertex u : vertices) {
      if (u == skip) {
        ++skipped;
        continue;
      }
      const BlockId block = block_of(u);
      list[size] = block;
      size += count[static_cast<std::size_t>(block)]++ == 0;
    }
    size_ = size;
    return skipped;
  }

  /// Distinct blocks seen, and the i-th in first-sighting order.
  std::size_t size() const noexcept { return size_; }
  BlockId block(std::size_t i) const noexcept { return list_[i]; }

  /// Sightings of `block` since begin(); 0 for blocks off the list.
  std::int32_t count(BlockId block) const noexcept {
    assert(static_cast<std::size_t>(block) < count_.size());
    return count_[static_cast<std::size_t>(block)];
  }

 private:
  std::vector<std::int32_t> count_;
  std::vector<BlockId> list_;
  std::size_t size_ = 0;
};

}  // namespace hsbp::blockmodel
