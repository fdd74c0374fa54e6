/// \file mdl.hpp
/// \brief Minimum description length of a DCSBM fit (paper Eq. 1–2).
///
///   L(G|B) = Σ_{r,s} M_rs log( M_rs / (d_out_r · d_in_s) )
///   MDL    = E·h(C²/E) + V·log C − L(G|B),
///   h(x)   = (1+x)·log(1+x) − x·log x.
///
/// For fast ΔMDL we use the decomposition
///   L = Σ_{r,s} M_rs log M_rs − Σ_r d_out_r log d_out_r
///       − Σ_s d_in_s log d_in_s,
/// so a vertex move touches only the O(deg) changed cells plus four
/// degree entries, and a merge one row + one column.
#pragma once

#include "blockmodel/blockmodel.hpp"
#include "graph/graph.hpp"

namespace hsbp::blockmodel {

/// x·log x with the conventional limit 0·log 0 = 0. \pre x >= 0.
double xlogx(double x) noexcept;

/// The model-complexity weight h(x) of Eq. 2.
double h_function(double x) noexcept;

/// Log-likelihood term L(G|B) (Eq. 1) of the current blockmodel state,
/// by an O(nnz + C) OpenMP sweep over the matrix rows and block degrees.
/// Each count contributes its quantized xlogx_fixed term and the terms
/// add as integers, so the result does not depend on the order the
/// slices list their entries in, nor on the thread count: any two
/// states with the same cells and degrees decode to the same double
/// (DESIGN §11).
/// Opens a util::omp_region, which is not reentrant: never call it inside
/// an OpenMP region, nor from one thread while another runs a region.
double log_likelihood(const Blockmodel& b);

/// Model description length E·h(C²/E) + V·log C for C blocks.
double model_description_length(graph::Vertex num_vertices,
                                graph::EdgeCount num_edges,
                                BlockId num_blocks) noexcept;

/// Full MDL (Eq. 2) of the blockmodel over the given graph size; costs
/// one log_likelihood() rescan, under the same threading rule.
double mdl(const Blockmodel& b, graph::Vertex num_vertices,
           graph::EdgeCount num_edges);

/// MDL of the structure-less null blockmodel (every vertex in one
/// community) — the normalizer for MDL_norm (paper §4.2).
double null_mdl(graph::Vertex num_vertices,
                graph::EdgeCount num_edges) noexcept;

}  // namespace hsbp::blockmodel
