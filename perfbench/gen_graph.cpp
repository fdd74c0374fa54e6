/// \file gen_graph.cpp
/// \brief Input generator of the benchmark: a directed degree-corrected
/// planted-partition graph and its true communities, made from a seed.
///
///   gen_graph --vertices V --communities C --edges E --p-in P
///             --alpha A --seed S --graph OUT --truth OUT
///
/// Vertex v belongs to community truth[v] (balanced, shuffled). Each
/// vertex carries a degree propensity θ: Pareto with tail exponent A
/// (capped at 50), or 1 for every vertex when A is 0. Every vertex
/// first gets one edge to a θ-weighted member of its own community, so
/// no vertex is isolated; the remaining edges pick a source community in
/// proportion to its θ mass, keep it as the target community with
/// probability P (else a uniformly random one), and draw both endpoints
/// θ-weighted. Self-loops are redrawn; parallel edges are kept.
///
/// OUT ending in `.mtx` is written as Matrix Market (1-based), anything
/// else as a `src dst` edge list (0-based). The truth file holds one
/// label per line in vertex order. Only the raw 64-bit generator output
/// feeds the transforms below, so a seed gives the same graph on every
/// standard library.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Index of a draw from the cumulative weights `cum`.
std::size_t draw(const std::vector<double>& cum, Rng& rng) {
  const double target = rng.uniform() * cum.back();
  const auto it = std::upper_bound(cum.begin(), cum.end(), target);
  return std::min(static_cast<std::size_t>(it - cum.begin()), cum.size() - 1);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gen_graph: %s\nusage: gen_graph --vertices V --communities C "
               "--edges E --p-in P --alpha A --seed S --graph OUT "
               "--truth OUT\n",
               why);
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  long long vertices = 0, communities = 0, edges = 0;
  double p_in = -1.0, alpha = -1.0;
  unsigned long long seed = 0;
  std::string graph_path, truth_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--vertices") vertices = std::atoll(value);
    else if (flag == "--communities") communities = std::atoll(value);
    else if (flag == "--edges") edges = std::atoll(value);
    else if (flag == "--p-in") p_in = std::atof(value);
    else if (flag == "--alpha") alpha = std::atof(value);
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--graph") graph_path = value;
    else if (flag == "--truth") truth_path = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (vertices < 2 || communities < 1 || communities > vertices / 2 ||
      edges < vertices || p_in < 0.0 || p_in > 1.0 || alpha < 0.0 ||
      graph_path.empty() || truth_path.empty()) {
    usage("missing or out-of-range argument");
  }
  const auto V = static_cast<std::size_t>(vertices);
  const auto C = static_cast<std::size_t>(communities);
  Rng rng(seed);

  std::vector<std::uint32_t> truth(V);
  for (std::size_t v = 0; v < V; ++v) truth[v] = static_cast<std::uint32_t>(v % C);
  for (std::size_t i = V - 1; i > 0; --i) {
    std::swap(truth[i], truth[rng.below(i + 1)]);
  }
  std::vector<double> theta(V, 1.0);
  if (alpha > 0.0) {
    for (auto& t : theta) t = std::min(50.0, std::pow(1.0 - rng.uniform(), -1.0 / alpha));
  }
  std::vector<std::vector<std::uint32_t>> members(C);
  std::vector<std::vector<double>> cum(C);
  for (std::size_t v = 0; v < V; ++v) {
    const std::uint32_t c = truth[v];
    members[c].push_back(static_cast<std::uint32_t>(v));
    cum[c].push_back((cum[c].empty() ? 0.0 : cum[c].back()) + theta[v]);
  }
  std::vector<double> mass(C);
  for (std::size_t c = 0; c < C; ++c) {
    mass[c] = (c == 0 ? 0.0 : mass[c - 1]) + cum[c].back();
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(static_cast<std::size_t>(edges));
  for (std::size_t v = 0; v < V; ++v) {
    const std::uint32_t c = truth[v];
    std::uint32_t u = members[c][draw(cum[c], rng)];
    while (u == v) u = members[c][draw(cum[c], rng)];
    out.emplace_back(static_cast<std::uint32_t>(v), u);
  }
  while (out.size() < static_cast<std::size_t>(edges)) {
    const std::size_t r = draw(mass, rng);
    const std::size_t s = rng.uniform() < p_in ? r : rng.below(C);
    const std::uint32_t u = members[r][draw(cum[r], rng)];
    const std::uint32_t w = members[s][draw(cum[s], rng)];
    if (u != w) out.emplace_back(u, w);
  }

  const bool mtx = graph_path.size() >= 4 &&
                   graph_path.compare(graph_path.size() - 4, 4, ".mtx") == 0;
  std::FILE* g = std::fopen(graph_path.c_str(), "w");
  if (g == nullptr) usage(("cannot write " + graph_path).c_str());
  if (mtx) {
    std::fprintf(g, "%%%%MatrixMarket matrix coordinate pattern general\n%zu %zu %zu\n",
                 V, V, out.size());
  }
  const unsigned base = mtx ? 1 : 0;
  for (const auto& [u, w] : out) std::fprintf(g, "%u %u\n", u + base, w + base);
  std::FILE* t = std::fopen(truth_path.c_str(), "w");
  if (t == nullptr) usage(("cannot write " + truth_path).c_str());
  for (const std::uint32_t c : truth) std::fprintf(t, "%u\n", c);
  const bool ok = std::fclose(g) == 0 && std::fclose(t) == 0;
  return ok ? 0 : 74;
}
