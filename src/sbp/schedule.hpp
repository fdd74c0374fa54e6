/// \file schedule.hpp
/// \brief Work distribution of the asynchronous MCMC passes (DESIGN §13).
///
/// The async pass's default `schedule(static)` gives every thread one
/// contiguous vertex range — skew-blind: one hub-heavy chunk serializes
/// the pass (the paper's §5.5 load-balancing remark). The alternative
/// balances the hubs:
///
///   - Static:       contiguous chunks; the default.
///   - DegreeSorted: vertices re-ordered by descending degree, then
///                   dealt round-robin (`schedule(static, 1)`), so the
///                   heavy vertices spread across threads first.
///
/// Both fix the vertex→thread→RNG-stream mapping for a given thread
/// count. That does not make a multi-threaded pass reproducible: the
/// in-pass membership reads race by design, so which moves a thread
/// sees depends on timing. A one-thread pass is reproducible under
/// either schedule.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/view.hpp"

namespace hsbp::sbp {

/// OpenMP work distribution of an asynchronous pass over its vertex set.
enum class PassSchedule {
  Static,
  DegreeSorted,
};

/// Stable lowercase name ("static", "degree-sorted") — the CLI/bench
/// spelling.
const char* schedule_name(PassSchedule schedule) noexcept;

/// Inverse of schedule_name; nullopt for unknown spellings.
std::optional<PassSchedule> parse_schedule(std::string_view name) noexcept;

/// Fills `out` with `vertices` re-ordered by descending total degree.
/// Ties keep their input order (stable), so the result — and therefore
/// the DegreeSorted vertex→thread mapping — is deterministic.
void degree_sorted_order(const graph::GraphView& graph,
                         std::span<const graph::Vertex> vertices,
                         std::vector<graph::Vertex>& out);

}  // namespace hsbp::sbp
