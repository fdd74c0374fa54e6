#include "graph/mmap_graph.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "util/errors.hpp"

namespace hsbp::graph {

namespace {

/// Closes the descriptor on every exit path out of the constructor.
class FdGuard {
 public:
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

}  // namespace

MmapGraph::MmapGraph(const std::string& path) : path_(path) {
  FdGuard fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    throw util::IoError("cannot open '" + path + "' for reading");
  }
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0) {
    throw util::IoError("cannot stat '" + path + "'");
  }
  const auto file_size = static_cast<std::int64_t>(st.st_size);

  char header_bytes[kBinaryCsrHeaderBytes];
  ssize_t got = 0;
  while (got < static_cast<ssize_t>(kBinaryCsrHeaderBytes)) {
    const ssize_t n =
        ::pread(fd.get(), header_bytes + got,
                kBinaryCsrHeaderBytes - static_cast<std::size_t>(got), got);
    if (n < 0) throw util::IoError("cannot read '" + path + "'");
    if (n == 0) break;  // short file; decode reports "too small"
    got += n;
  }
  header_ = decode_binary_csr_header(header_bytes,
                                     static_cast<std::size_t>(got),
                                     file_size, path);

  map_bytes_ = static_cast<std::size_t>(file_size);
  map_ = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw util::IoError("cannot map '" + path + "'");
  }

  const char* base = static_cast<const char*>(map_);
  const auto num_vertices = static_cast<std::size_t>(header_.num_vertices);
  out_offsets_ = reinterpret_cast<const std::uint64_t*>(
      base + kBinaryCsrHeaderBytes);
  in_offsets_ = out_offsets_ + (num_vertices + 1);
  out_targets_ = reinterpret_cast<const Vertex*>(in_offsets_ +
                                                 (num_vertices + 1));
  in_sources_ = out_targets_ + header_.num_edges;

  // Sentinel check: the offset arrays must start at 0 and end at E.
  // Catches payload corruption cheaply (4 loads) without the full CRC.
  const auto num_edges = static_cast<std::uint64_t>(header_.num_edges);
  if (out_offsets_[0] != 0 || out_offsets_[num_vertices] != num_edges ||
      in_offsets_[0] != 0 || in_offsets_[num_vertices] != num_edges) {
    const std::string message =
        "binary CSR '" + path + "': offset arrays inconsistent with header";
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    throw util::DataError(message);
  }
}

MmapGraph::~MmapGraph() { reset(); }

MmapGraph::MmapGraph(MmapGraph&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_bytes_(other.map_bytes_),
      header_(other.header_),
      out_offsets_(other.out_offsets_),
      in_offsets_(other.in_offsets_),
      out_targets_(other.out_targets_),
      in_sources_(other.in_sources_) {
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  other.out_offsets_ = other.in_offsets_ = nullptr;
  other.out_targets_ = other.in_sources_ = nullptr;
  other.header_ = BinaryCsrHeader{};
}

MmapGraph& MmapGraph::operator=(MmapGraph&& other) noexcept {
  if (this != &other) {
    reset();
    path_ = std::move(other.path_);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    header_ = std::exchange(other.header_, BinaryCsrHeader{});
    out_offsets_ = std::exchange(other.out_offsets_, nullptr);
    in_offsets_ = std::exchange(other.in_offsets_, nullptr);
    out_targets_ = std::exchange(other.out_targets_, nullptr);
    in_sources_ = std::exchange(other.in_sources_, nullptr);
  }
  return *this;
}

void MmapGraph::reset() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
  }
  map_bytes_ = 0;
}

void MmapGraph::evict() const noexcept {
  if (map_ != nullptr) ::madvise(map_, map_bytes_, MADV_DONTNEED);
}

std::int64_t MmapGraph::resident_bytes() const {
  if (map_ == nullptr) return 0;
  // mincore cannot answer this: for file mappings it reports page-cache
  // residency, which MADV_DONTNEED leaves intact. The mapping's actual
  // contribution to this process's RSS is the Rss field of its
  // /proc/self/smaps entry, found by its start address.
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%lx-",
                reinterpret_cast<unsigned long>(map_));
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return -1;
  std::string line;
  bool in_entry = false;
  while (std::getline(smaps, line)) {
    if (!in_entry) {
      in_entry = line.rfind(prefix, 0) == 0;
      continue;
    }
    if (line.rfind("Rss:", 0) == 0) {
      return std::strtoll(line.c_str() + 4, nullptr, 10) * 1024;
    }
  }
  return -1;
}

void MmapGraph::verify_payload() const {
  if (map_ == nullptr) return;
  const char* base = static_cast<const char*>(map_);
  const std::uint32_t computed = ckpt::crc32(std::string_view(
      base + kBinaryCsrHeaderBytes, map_bytes_ - kBinaryCsrHeaderBytes));
  if (computed != header_.payload_crc) {
    throw util::DataError("binary CSR '" + path_ +
                          "': payload CRC mismatch (corrupt file)");
  }
}

}  // namespace hsbp::graph
