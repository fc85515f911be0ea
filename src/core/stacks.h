// Named protocol stacks: one table mapping a ScenarioSpec's `protocol`
// field to a built P2PSystem plus the StorageService facade that drives it.
//
// The stacks: "churnstore" (the paper's full stack), "chord", "flooding",
// "k-walker", "sqrt-replication". A new stack is one more row in the table
// in stacks.cpp; it is then reachable from every scenario via
// `protocol=<name>` with no other code changes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.h"
#include "core/system.h"

namespace churnstore {

struct BuiltSystem {
  std::unique_ptr<P2PSystem> system;
  /// One of the stack's own protocols (the paper stack's SearchManager,
  /// each baseline's module); the system owns it.
  StorageService* service = nullptr;
};

/// A spec's extra key=value map. Every stack runs at fixed constants, so
/// build_stack reads none of it; the parameter stays for the callers that
/// pass `spec.extras`.
using StackExtras = std::map<std::string, std::string>;

/// Builds the named stack; throws std::invalid_argument for unknown names.
[[nodiscard]] BuiltSystem build_stack(std::string_view name,
                                      const SystemConfig& config,
                                      const StackExtras& extras = {});

/// (name, summary) for every stack, sorted by name.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> stack_catalog();

}  // namespace churnstore
