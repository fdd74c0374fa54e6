#include "blockmodel/mdl.hpp"

#include <omp.h>

#include <cassert>
#include <cmath>
#include <vector>

#include "blockmodel/xlogx_table.hpp"
#include "util/omp_region.hpp"

namespace hsbp::blockmodel {

double xlogx(double x) noexcept {
  assert(x >= 0.0);
  return x > 0.0 ? x * std::log(x) : 0.0;
}

double h_function(double x) noexcept {
  assert(x >= 0.0);
  return (1.0 + x) * std::log1p(x) - xlogx(x);
}

double log_likelihood(const Blockmodel& b) {
  const int threads = omp_get_max_threads();
  std::vector<LlFixed> partials(static_cast<std::size_t>(threads), 0);
  const BlockId num_blocks = b.num_blocks();
  util::omp_region([&] {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    LlFixed local = 0;
#pragma omp for schedule(static) nowait
    for (BlockId r = 0; r < num_blocks; ++r) {
      for (const auto& [col, count] : b.matrix().row(r)) {
        (void)col;
        local += xlogx_fixed(count);
      }
      local -= xlogx_fixed(b.degree_out(r));
      local -= xlogx_fixed(b.degree_in(r));
    }
    partials[tid] = local;
  });
  LlFixed sum = 0;
  for (const LlFixed partial : partials) sum += partial;
  return ll_fixed_to_double(sum);
}

double model_description_length(graph::Vertex num_vertices,
                                graph::EdgeCount num_edges,
                                BlockId num_blocks) noexcept {
  if (num_edges <= 0 || num_blocks <= 0) return 0.0;
  const double e = static_cast<double>(num_edges);
  const double c = static_cast<double>(num_blocks);
  return e * h_function(c * c / e) +
         static_cast<double>(num_vertices) * std::log(c);
}

double mdl(const Blockmodel& b, graph::Vertex num_vertices,
           graph::EdgeCount num_edges) {
  return model_description_length(num_vertices, num_edges, b.num_blocks()) -
         log_likelihood(b);
}

double null_mdl(graph::Vertex num_vertices,
                graph::EdgeCount num_edges) noexcept {
  if (num_edges <= 0) return 0.0;
  const double e = static_cast<double>(num_edges);
  // C = 1: M_11 = E, d_out = d_in = E, so L = E log(E/E²) = −E log E.
  const double likelihood = -e * std::log(e);
  return model_description_length(num_vertices, num_edges, 1) - likelihood;
}

}  // namespace hsbp::blockmodel
