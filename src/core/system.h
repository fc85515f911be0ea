// churnstore::P2PSystem — the simulation driver and public API.
//
// P2PSystem owns a dynamic Network and an ordered list of Protocol modules
// and drives the paper's synchronous round structure over them. The default
// constructor wires the paper's stack (soup, committees, landmarks, store,
// search); the two-argument constructor builds a system around ANY protocol
// list, which is how the baselines (flooding, sqrt-replication, k-walker,
// Chord) run on the same driver:
//
//   P2PSystem sys({.sim = {.n = 1024, .seed = 7}});
//   sys.run_rounds(sys.warmup_rounds());              // fill sample buffers
//   sys.store_item(/*creator=*/3, /*item=*/42);
//   sys.run_rounds(2 * sys.tau());
//   auto sid = sys.search(/*initiator=*/900, /*item=*/42);
//   sys.run_rounds(sys.search_timeout());
//   const SearchStatus* st = sys.search_status(sid);  // located? fetched?
//
//   // Custom stack: only the walk soup plus a baseline.
//   std::vector<std::unique_ptr<Protocol>> mods;
//   mods.push_back(std::make_unique<TokenSoup>(cfg.walk));
//   P2PSystem sys2(cfg, std::move(mods));
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "landmark/landmark.h"
#include "net/config.h"
#include "net/network.h"
#include "storage/search_protocol.h"
#include "storage/store_protocol.h"
#include "walk/token_soup.h"

namespace churnstore {

struct SystemConfig {
  SimConfig sim{};
  WalkConfig walk{};
  ProtocolConfig protocol{};
};

/// Cumulative wall-clock seconds per round phase outside the protocols'
/// round hooks (P2PSystem::protocol_secs() holds each protocol's own).
/// The ledger binary and the obs exporters read them. Zero-cost unless
/// enabled via P2PSystem::enable_phase_timing.
struct RoundPhaseTimers {
  bool enabled = false;
  double churn_secs = 0;     ///< begin_round: adversary churn + edges
  double deliver_secs = 0;   ///< lane flush + inbox filing
  double dispatch_secs = 0;  ///< on_message dispatch over all inboxes

  void reset() noexcept { *this = RoundPhaseTimers{.enabled = enabled}; }
};

/// Cumulative global-heap traffic across run_round() calls, measured by
/// the HeapSentinel across every thread (shard-pool workers included).
/// Always accumulated (one counter snapshot per round); when
/// HeapSentinel::available() is false the alloc/free/byte fields stay
/// zero and mean "unknown" — report n/a, never a fake heap-quiet claim.
struct RoundHeapStats {
  std::uint64_t rounds = 0;  ///< run_round() calls observed
  std::uint64_t allocs = 0;  ///< operator new calls during those rounds
  std::uint64_t frees = 0;   ///< operator delete calls during those rounds
  std::uint64_t bytes = 0;   ///< bytes requested during those rounds

  void reset() noexcept { *this = RoundHeapStats{}; }
};

class P2PSystem;

/// End-of-round callback for exporters (obs/export.h): runs after the
/// round's protocols, delivery, heap accounting, and trace drain, so it
/// observes the finished round. Explicitly cold-path — anything it
/// allocates is exporter overhead, excluded from heap_stats().
struct RoundObserver {
  virtual ~RoundObserver() = default;
  virtual void on_round_observed(P2PSystem& sys) = 0;
};

class P2PSystem {
 public:
  /// Build the paper's full protocol stack.
  explicit P2PSystem(const SystemConfig& config);

  /// Build a system around an arbitrary protocol list. Protocols are
  /// attached (and later run) in list order; modules that read a sibling's
  /// derived constants at attach time (e.g. CommitteeManager reads
  /// TokenSoup::tau) must come after that sibling.
  P2PSystem(const SystemConfig& config,
            std::vector<std::unique_ptr<Protocol>> protocols);

  /// The paper stack as a protocol list (soup, committees, landmarks,
  /// store, search) for callers that want to extend it before building.
  [[nodiscard]] static std::vector<std::unique_ptr<Protocol>> paper_protocols(
      const SystemConfig& config);

  P2PSystem(P2PSystem&&) = default;
  P2PSystem& operator=(P2PSystem&&) = default;

  /// --- round driver ---------------------------------------------------
  /// Execute exactly one synchronous round (churn/edges, protocol work,
  /// delivery, message dispatch).
  void run_round();
  void run_rounds(std::uint32_t k);

  /// Install the worker pool the sharded round engine runs on (borrowed;
  /// nullptr = serial). With sim.shards > 1 the per-round work (TokenSoup
  /// token moves, staged merges) spreads across the pool, caller helping,
  /// so a Runner can nest trial x shard scheduling on ONE pool. Results are
  /// bit-identical with or without a pool.
  void set_shard_pool(ThreadPool* pool) noexcept {
    net_->set_worker_pool(pool);
  }

  /// Per-phase round timing (off by default; one clock read per phase and
  /// per protocol when on). The ledger binary's traced runs and the obs
  /// sessions turn it on.
  void enable_phase_timing(bool on) noexcept { phase_timers_.enabled = on; }
  [[nodiscard]] const RoundPhaseTimers& phase_timers() const noexcept {
    return phase_timers_;
  }
  void reset_phase_timers() noexcept {
    phase_timers_.reset();
    std::fill(protocol_secs_.begin(), protocol_secs_.end(), 0.0);
  }
  /// Cumulative round-hook seconds per registered protocol (index-aligned
  /// with protocols()); accumulated only while phase timing is enabled.
  /// The registry exports each as secs.<protocol name>, and the
  /// chrome-trace exporter renders them as per-protocol segments.
  [[nodiscard]] const std::vector<double>& protocol_secs() const noexcept {
    return protocol_secs_;
  }

  /// Install (or clear, with nullptr) the end-of-round observer (borrowed).
  void set_round_observer(RoundObserver* obs) noexcept { observer_ = obs; }

  /// Global-heap traffic per round (HeapSentinel deltas around run_round).
  /// The steady-state proof reads: reset, run K rounds, assert allocs == 0
  /// — valid only while HeapSentinel::available().
  [[nodiscard]] const RoundHeapStats& heap_stats() const noexcept {
    return heap_stats_;
  }
  void reset_heap_stats() noexcept { heap_stats_.reset(); }

  /// Rounds of warm-up needed before sample buffers are useful (~2 tau).
  [[nodiscard]] std::uint32_t warmup_rounds() const noexcept {
    return 2 * tau() + 2;
  }

  /// --- storage / search API (paper stack; asserts if absent) -------------
  /// Store an item with a deterministic pseudo-random payload of the
  /// configured size. Returns false while the creator's samples are cold.
  bool store_item(Vertex creator, ItemId item);
  /// Store explicit content.
  bool store_item(Vertex creator, ItemId item, std::vector<std::uint8_t> payload);

  [[nodiscard]] std::uint64_t search(Vertex initiator, ItemId item);
  [[nodiscard]] const SearchStatus* search_status(std::uint64_t sid) const {
    return searches().status(sid);
  }

  /// Demonstration hook: when sim.churn.kind == kAdaptive, the adversary
  /// churns current committee members first — power the paper's oblivious
  /// model denies it (see AdaptiveTargetQuery). Call once after construction.
  void enable_adaptive_adversary();

  /// --- protocol access ----------------------------------------------------
  /// First registered protocol of dynamic type P, or nullptr.
  template <typename P>
  [[nodiscard]] P* find_protocol() const noexcept {
    for (const auto& p : protocols_) {
      if (auto* typed = dynamic_cast<P*>(p.get())) return typed;
    }
    return nullptr;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Protocol>>& protocols()
      const noexcept {
    return protocols_;
  }

  /// Paper-stack component accessors; assert when the module is absent.
  [[nodiscard]] Network& network() noexcept { return *net_; }
  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  [[nodiscard]] TokenSoup& soup() const noexcept { return *checked(soup_); }
  [[nodiscard]] CommitteeManager& committees() const noexcept {
    return *checked(committees_);
  }
  [[nodiscard]] LandmarkManager& landmarks() const noexcept {
    return *checked(landmarks_);
  }
  [[nodiscard]] StoreManager& store() const noexcept { return *checked(store_); }
  [[nodiscard]] SearchManager& searches() const noexcept {
    return *checked(searches_);
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return net_->metrics(); }

  /// --- derived constants --------------------------------------------------
  [[nodiscard]] std::uint32_t n() const noexcept { return net_->n(); }
  [[nodiscard]] Round round() const noexcept { return net_->round(); }
  /// Mixing-time unit; derived from the config so it is meaningful for
  /// every stack, including those without a TokenSoup module.
  [[nodiscard]] std::uint32_t tau() const noexcept {
    return tau_rounds(config_.sim.n, config_.walk);
  }
  [[nodiscard]] std::uint32_t search_timeout() const noexcept {
    return searches().timeout_rounds();
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

 private:
  void dispatch_inboxes();

  template <typename P>
  static P* checked(P* p) noexcept {
    assert(p != nullptr && "module absent from this protocol stack");
    return p;
  }

  SystemConfig config_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  RoundPhaseTimers phase_timers_;
  /// Per-protocol cumulative round-hook seconds (see protocol_secs()).
  std::vector<double> protocol_secs_;
  RoundHeapStats heap_stats_;
  RoundObserver* observer_ = nullptr;

  // Cached paper-stack modules (null when absent from a custom stack).
  TokenSoup* soup_ = nullptr;
  CommitteeManager* committees_ = nullptr;
  LandmarkManager* landmarks_ = nullptr;
  StoreManager* store_ = nullptr;
  SearchManager* searches_ = nullptr;
};

}  // namespace churnstore
