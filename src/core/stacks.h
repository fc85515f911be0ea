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
  /// Set when the service is a standalone adapter; when the service IS one
  /// of the stack's protocols, the system owns it and this stays null.
  std::unique_ptr<StorageService> owned_service;
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

/// StorageService over the paper stack (wraps Store/Search managers).
class ChurnstoreService final : public StorageService {
 public:
  explicit ChurnstoreService(P2PSystem& sys) : sys_(sys) {}

  bool try_store(Vertex creator, ItemId item) override {
    return sys_.store_item(creator, item);
  }
  [[nodiscard]] std::uint64_t begin_search(Vertex initiator,
                                           ItemId item) override {
    return sys_.search(initiator, item);
  }
  [[nodiscard]] WorkloadOutcome search_outcome(
      std::uint64_t sid) const override;
  [[nodiscard]] std::uint32_t search_timeout() const override {
    return sys_.search_timeout();
  }
  [[nodiscard]] std::size_t copies_alive(ItemId item) const override {
    return sys_.store().copies_alive(item);
  }
  [[nodiscard]] bool is_available(ItemId item) const override {
    return sys_.store().is_available(item);
  }

 private:
  P2PSystem& sys_;
};

}  // namespace churnstore
