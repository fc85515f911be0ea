// Execution metrics. The paper's scalability claim is that each node
// processes/sends only polylog(n) bits per round; this collector tracks
// exact per-node per-round bit counts plus protocol-level event counters so
// benches can verify the claim quantitatively (experiment E8).
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "stats/summary.h"

namespace churnstore {

class Metrics {
 public:
  explicit Metrics(std::uint32_t n, std::uint32_t shards = 1)
      : bits_this_round_(n, 0),
        touched_shard_(shards == 0 ? 1 : shards) {}

  /// --- per-round accounting -------------------------------------------
  /// First-toucher bookkeeping: a vertex whose counter goes 0 -> nonzero is
  /// appended to exactly one touched list (the serial list here, the charging
  /// shard's list in charge_bits_local — during the sharded phase only v's
  /// owner charges it, so the 0-test never races). end_round then sweeps
  /// only touched vertices instead of all n, which is the difference between
  /// O(active) and O(n) per round at n = 1M with sparse traffic.
  void charge_bits(Vertex v, std::uint64_t bits) noexcept {
    if (bits != 0 && bits_this_round_[v] == 0) touched_serial_.push_back(v);
    bits_this_round_[v] += bits;
    total_bits_ += bits;
  }
  /// Shard-task variant: touches only v's per-round counter and the calling
  /// shard's touched list (safe when the caller owns v's shard). The caller
  /// accounts the global total separately via add_total_bits from serial
  /// context.
  void charge_bits_local(Vertex v, std::uint64_t bits,
                         std::uint32_t shard) noexcept {
    if (bits != 0 && bits_this_round_[v] == 0) touched_shard_[shard].push_back(v);
    bits_this_round_[v] += bits;
  }
  void add_total_bits(std::uint64_t bits) noexcept { total_bits_ += bits; }
  void count_message() noexcept { ++total_messages_; }
  void count_messages(std::uint64_t k) noexcept { total_messages_ += k; }
  void count_dropped() noexcept { ++dropped_messages_; }
  void count_tokens_lost(std::uint64_t k) noexcept { tokens_lost_ += k; }
  void count_tokens_completed(std::uint64_t k) noexcept { tokens_completed_ += k; }
  void count_tokens_spawned(std::uint64_t k) noexcept { tokens_spawned_ += k; }
  void count_tokens_queued(std::uint64_t k) noexcept { tokens_queued_ += k; }
  void count_committee_formed(std::uint64_t k = 1) noexcept {
    committees_formed_ += k;
  }
  void count_committee_lost(std::uint64_t k = 1) noexcept {
    committees_lost_ += k;
  }
  void count_landmark_created(std::uint64_t k = 1) noexcept {
    landmarks_created_ += k;
  }
  void count_landmark_collision(std::uint64_t k = 1) noexcept {
    landmark_collisions_ += k;
  }

  /// Finalize per-round counters; call once per round after delivery.
  /// Sweeps only the touched-vertex lists: max and sum over the touched set
  /// equal max and sum over all n vertices exactly (untouched counters are
  /// zero and contribute nothing to either), so the published stats are
  /// bit-identical to the old full sweep (pinned in tests/obs_trace_test).
  void end_round() noexcept {
    std::uint64_t mx = 0;
    std::uint64_t sum = 0;
    const auto drain = [&](std::vector<Vertex>& touched) {
      for (const Vertex v : touched) {
        const std::uint64_t b = bits_this_round_[v];
        mx = b > mx ? b : mx;
        sum += b;
        bits_this_round_[v] = 0;
      }
      touched.clear();  // capacity kept for next round
    };
    drain(touched_serial_);
    for (auto& list : touched_shard_) drain(list);
    last_round_max_bits_ = mx;
    last_round_mean_bits_ = static_cast<double>(sum) /
                            static_cast<double>(bits_this_round_.size());
    max_bits_per_node_round_.add(static_cast<double>(mx));
    mean_bits_per_node_round_.add(last_round_mean_bits_);
    ++rounds_;
  }

  /// --- aggregated views --------------------------------------------------
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t total_bits() const noexcept { return total_bits_; }
  [[nodiscard]] std::uint64_t total_messages() const noexcept { return total_messages_; }
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept { return dropped_messages_; }
  [[nodiscard]] std::uint64_t tokens_lost() const noexcept { return tokens_lost_; }
  [[nodiscard]] std::uint64_t tokens_completed() const noexcept { return tokens_completed_; }
  [[nodiscard]] std::uint64_t tokens_spawned() const noexcept { return tokens_spawned_; }
  [[nodiscard]] std::uint64_t tokens_queued() const noexcept { return tokens_queued_; }
  [[nodiscard]] std::uint64_t committees_formed() const noexcept { return committees_formed_; }
  [[nodiscard]] std::uint64_t committees_lost() const noexcept { return committees_lost_; }
  [[nodiscard]] std::uint64_t landmarks_created() const noexcept { return landmarks_created_; }
  [[nodiscard]] std::uint64_t landmark_collisions() const noexcept { return landmark_collisions_; }

  /// Distribution (over rounds) of the maximum bits any node sent that round.
  [[nodiscard]] const RunningStat& max_bits_per_node_round() const noexcept {
    return max_bits_per_node_round_;
  }
  [[nodiscard]] const RunningStat& mean_bits_per_node_round() const noexcept {
    return mean_bits_per_node_round_;
  }
  /// Last finished round's values (the per-round jsonl exporter reads these;
  /// the RunningStats above only expose run-cumulative aggregates).
  [[nodiscard]] std::uint64_t last_round_max_bits() const noexcept {
    return last_round_max_bits_;
  }
  [[nodiscard]] double last_round_mean_bits() const noexcept {
    return last_round_mean_bits_;
  }

 private:
  std::vector<std::uint64_t> bits_this_round_;
  /// Vertices whose round counter went 0 -> nonzero via serial charge_bits /
  /// via each shard's charge_bits_local; cleared (capacity kept) every
  /// end_round.
  std::vector<Vertex> touched_serial_;
  std::vector<std::vector<Vertex>> touched_shard_;
  std::uint64_t last_round_max_bits_ = 0;
  double last_round_mean_bits_ = 0.0;
  RunningStat max_bits_per_node_round_;
  RunningStat mean_bits_per_node_round_;
  std::uint64_t rounds_ = 0;
  std::uint64_t total_bits_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t dropped_messages_ = 0;
  std::uint64_t tokens_lost_ = 0;
  std::uint64_t tokens_completed_ = 0;
  std::uint64_t tokens_spawned_ = 0;
  std::uint64_t tokens_queued_ = 0;
  std::uint64_t committees_formed_ = 0;
  std::uint64_t committees_lost_ = 0;
  std::uint64_t landmarks_created_ = 0;
  std::uint64_t landmark_collisions_ = 0;
};

}  // namespace churnstore
