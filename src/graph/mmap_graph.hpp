/// \file mmap_graph.hpp
/// \brief Read-only mmap view over a binary CSR file (binary_csr.hpp) —
/// the storage backend that lets MCMC run on graphs larger than RAM.
///
/// Opening validates the header (magic, version, byte order, CRC, exact
/// file size) and the offset-array sentinels, then maps the whole file
/// PROT_READ/MAP_PRIVATE and closes the descriptor. `view()` hands out
/// a GraphView aimed at the mapped arrays: every kernel that takes
/// `const GraphView&` runs on the file directly, with the page cache as
/// its working set. Resident memory is bounded by the OS, and the
/// out-of-core driver tightens the bound by calling `evict()`
/// (MADV_DONTNEED) between pipeline stages — clean read-only pages drop
/// instantly and fault back in on the next touch.
///
/// The payload CRC is deliberately not checked on open (that would
/// fault in the entire file); call verify_payload() when integrity
/// matters more than latency.
#pragma once

#include <cstdint>
#include <string>

#include "graph/binary_csr.hpp"
#include "graph/view.hpp"

namespace hsbp::graph {

class MmapGraph {
 public:
  MmapGraph() = default;

  /// Opens and maps `path`.
  /// \throws util::IoError if the file cannot be opened or mapped;
  /// util::DataError if it is not a valid binary CSR file.
  explicit MmapGraph(const std::string& path);

  ~MmapGraph();
  MmapGraph(MmapGraph&& other) noexcept;
  MmapGraph& operator=(MmapGraph&& other) noexcept;
  MmapGraph(const MmapGraph&) = delete;
  MmapGraph& operator=(const MmapGraph&) = delete;

  /// CSR view over the mapped arrays. Valid while this MmapGraph lives.
  GraphView view() const noexcept {
    return {out_offsets_, out_targets_, in_offsets_, in_sources_,
            header_.num_vertices, header_.num_edges, header_.self_loops};
  }

  Vertex num_vertices() const noexcept { return header_.num_vertices; }
  EdgeCount num_edges() const noexcept { return header_.num_edges; }
  EdgeCount num_self_loops() const noexcept { return header_.self_loops; }
  std::int64_t file_bytes() const noexcept {
    return static_cast<std::int64_t>(map_bytes_);
  }
  const std::string& path() const noexcept { return path_; }

  /// Drops resident pages (MADV_DONTNEED). Safe at any time: pages
  /// fault back in from the file on the next access. The out-of-core
  /// driver calls this between stages to keep peak RSS under budget.
  void evict() const noexcept;

  /// Bytes this mapping contributes to the process RSS (the Rss field
  /// of its /proc/self/smaps entry — mincore would report page-cache
  /// residency, which evict() leaves intact); -1 if the query fails.
  /// Used by tests and the RSS bench.
  std::int64_t resident_bytes() const;

  /// Recomputes the payload CRC over the whole file.
  /// \throws util::DataError on mismatch (bit rot, torn write).
  void verify_payload() const;

 private:
  void reset() noexcept;

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  BinaryCsrHeader header_;
  const std::uint64_t* out_offsets_ = nullptr;
  const std::uint64_t* in_offsets_ = nullptr;
  const Vertex* out_targets_ = nullptr;
  const Vertex* in_sources_ = nullptr;
};

}  // namespace hsbp::graph
