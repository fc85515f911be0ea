// Distributed network-size estimation (the exponential-minimum technique
// the paper sketches in section 4 for counting data nodes, following [2]).
//
// Every node draws k independent Exp(1) variates; each round, nodes
// exchange component-wise minima with their current neighbors. After
// O(diameter) = O(log n) rounds every (connected, surviving) node holds the
// k global minima z_1..z_k; since min of n Exp(1) variables is Exp(n), the
// unbiased estimator n_hat = (k-1) / sum(z_i) concentrates around n with
// relative error O(1/sqrt(k)).
//
// Under churn a fresh node starts with its own draws and re-absorbs the
// global minima from its neighbors within a round or two, so the estimate
// self-heals. k = Theta(log n) keeps the per-round traffic polylog.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "net/network.h"
#include "util/rng.h"

namespace churnstore {

class SizeEstimator final : public Protocol {
 public:
  /// k: exponential variates per node (accuracy ~ 1/sqrt(k)).
  explicit SizeEstimator(std::uint32_t k);
  /// Construct and attach in one step (standalone tests/benches).
  SizeEstimator(Network& net, std::uint32_t k);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "size-estimator";
  }
  void on_attach(Network& net) override;
  /// One round of neighbor min-exchange (driven by Protocol::step(); call
  /// step() between begin_round() and deliver() when standalone). Traffic
  /// is charged to the metrics (k * 64 bits per edge). The neighbor
  /// min-gather is embarrassingly parallel over destination vertices (each
  /// shard writes only its own scratch rows, reading the previous round's
  /// field). Epoch restarts stay serial in the prologue; the field swap and
  /// traffic charges land in the merge.
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// Current estimate at vertex v: (k-1) / sum of its minima.
  [[nodiscard]] double estimate(Vertex v) const;

  /// Median estimate across all nodes (robust summary for benches/tests).
  [[nodiscard]] double median_estimate() const;

  /// Rounds until the first completed epoch is readable (~2 epochs).
  [[nodiscard]] std::uint32_t convergence_rounds() const;
  /// Aggregation restarts every epoch (just over the diameter) so that
  /// churned-in peers' fresh draws cannot ratchet the minimum downward.
  [[nodiscard]] std::uint32_t epoch_rounds() const;

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }

 private:
  void fresh_draws(Vertex v);
  /// Gather component-wise neighbor minima of `field` into `out` for the
  /// vertex range [from, to).
  void gather_min(const std::vector<double>& field, std::vector<double>& out,
                  Vertex from, Vertex to);

  std::uint32_t k_;
  Rng rng_;
  /// Row-major [vertex][i] minima of the running epoch.
  // shardcheck:cold-state(sized to n x k at attach in serial context; hooks write row minima in place)
  std::vector<double> mins_;
  /// Minima of the last completed epoch (what estimate() reads).
  // shardcheck:cold-state(sized at attach; swapped/filled only in serial epoch rollover)
  std::vector<double> last_;
  // shardcheck:cold-state(sized at attach; gather_min writes elements in place)
  std::vector<double> scratch_;   ///< next mins_
  // shardcheck:cold-state(sized at attach; gather_min writes elements in place)
  std::vector<double> scratch2_;  ///< next last_
  std::uint64_t epochs_completed_ = 0;
};

}  // namespace churnstore
