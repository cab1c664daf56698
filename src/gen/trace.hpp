// Effective single-mutation traces over an existing dataset: the input the
// `serve` verb streams through AuditService, and the workload the engine,
// store and service suites check their delta claims on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/model.hpp"

namespace rolediet::gen {

/// A name-based trace of `count` mutations that each change state: in turn a
/// revocation of an existing user edge, a random assignment, a revocation of
/// an existing permission edge, a random grant (a revocation becomes an
/// addition while its axis has no edges). Every draw is validated against a
/// scratch engine, so no-ops are redrawn and the trace replays
/// effect-for-effect. Deterministic in (base, count, seed). Throws
/// std::invalid_argument unless the dataset has a user, a role and a
/// permission.
[[nodiscard]] std::vector<core::Mutation> effective_trace(const core::RbacDataset& base,
                                                          std::size_t count,
                                                          std::uint64_t seed);

}  // namespace rolediet::gen
