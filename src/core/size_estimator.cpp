#include "core/size_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace churnstore {

SizeEstimator::SizeEstimator(std::uint32_t k) : k_(std::max(1u, k)) {}

SizeEstimator::SizeEstimator(Network& net_ref, std::uint32_t k)
    : SizeEstimator(k) {
  on_attach(net_ref);
}

void SizeEstimator::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  rng_ = net().protocol_rng().fork(0x73697a65ULL);
  mins_.assign(static_cast<std::size_t>(net().n()) * k_, 0.0);
  last_.assign(mins_.size(), 0.0);
  scratch_.assign(mins_.size(), 0.0);
  scratch2_.assign(mins_.size(), 0.0);
  for (Vertex v = 0; v < net().n(); ++v) fresh_draws(v);
  std::copy(mins_.begin(), mins_.end(), last_.begin());
}

void SizeEstimator::fresh_draws(Vertex v) {
  double* row = mins_.data() + static_cast<std::size_t>(v) * k_;
  for (std::uint32_t i = 0; i < k_; ++i) row[i] = rng_.exponential(1.0);
}

void SizeEstimator::on_churn(Vertex v, PeerId, PeerId) {
  // The replacement peer contributes fresh draws to the RUNNING epoch only.
  // Its completed-epoch view starts empty (infinity) and is filled by the
  // neighbor flood within ~1 round — injecting its own draws there would
  // pollute the already-finalized aggregate and ratchet the estimate up.
  fresh_draws(v);
  const std::size_t off = static_cast<std::size_t>(v) * k_;
  std::fill(last_.begin() + static_cast<std::ptrdiff_t>(off),
            last_.begin() + static_cast<std::ptrdiff_t>(off + k_),
            std::numeric_limits<double>::infinity());
}

void SizeEstimator::gather_min(const std::vector<double>& field,
                               std::vector<double>& out, Vertex from,
                               Vertex to) {
  const RegularGraph& g = net().graph();
  const std::uint32_t d = g.degree();
  for (Vertex v = from; v < to; ++v) {
    double* dst = out.data() + static_cast<std::size_t>(v) * k_;
    const double* own = field.data() + static_cast<std::size_t>(v) * k_;
    std::copy(own, own + k_, dst);
    for (std::uint32_t e = 0; e < d; ++e) {
      const double* src =
          field.data() + static_cast<std::size_t>(g.neighbor(v, e)) * k_;
      for (std::uint32_t i = 0; i < k_; ++i) {
        dst[i] = std::min(dst[i], src[i]);
      }
    }
  }
}

void SizeEstimator::on_round_begin() {
  // Epoch restart: without it, every churned-in peer adds fresh draws and
  // the all-time minimum ratchets downward, inflating the estimate without
  // bound. Each epoch aggregates only the draws of peers present during
  // that epoch; reads are served from the last completed epoch. Serial: the
  // draws come from the protocol's sequential stream.
  const auto epoch_len = static_cast<Round>(epoch_rounds());
  if (net().round() % epoch_len == 0) {
    last_.swap(mins_);
    for (Vertex v = 0; v < net().n(); ++v) fresh_draws(v);
    ++epochs_completed_;
  }
}

void SizeEstimator::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Both fields keep flooding: the running epoch converges, the completed
  // epoch's result reaches freshly churned-in peers. Each shard writes its
  // own vertices' scratch rows, reading the whole previous-round fields.
  (void)shard;
  gather_min(mins_, scratch_, ctx.begin(), ctx.end());
  gather_min(last_, scratch2_, ctx.begin(), ctx.end());
}

void SizeEstimator::on_round_merge() {
  mins_.swap(scratch_);
  last_.swap(scratch2_);
  // Each node sends both k-vectors to each neighbor once per round.
  const std::uint64_t bits =
      static_cast<std::uint64_t>(net().graph().degree()) * 2 * k_ * 64;
  for (Vertex v = 0; v < net().n(); ++v) net().charge_processing(v, bits);
}

double SizeEstimator::estimate(Vertex v) const {
  const std::vector<double>& field = epochs_completed_ > 0 ? last_ : mins_;
  const double* row = field.data() + static_cast<std::size_t>(v) * k_;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k_; ++i) sum += row[i];
  if (sum <= 0.0) return 0.0;
  // MLE of n from k Exp(n) minima is k/sum; (k-1)/sum is unbiased.
  const double numer = k_ > 1 ? static_cast<double>(k_ - 1)
                              : static_cast<double>(k_);
  return numer / sum;
}

double SizeEstimator::median_estimate() const {
  std::vector<double> est(net().n());
  for (Vertex v = 0; v < net().n(); ++v) est[v] = estimate(v);
  std::nth_element(est.begin(), est.begin() + est.size() / 2, est.end());
  return est[est.size() / 2];
}

std::uint32_t SizeEstimator::epoch_rounds() const {
  // Just over the expander diameter (O(log n)) so each epoch's minima reach
  // everyone; short epochs also bound the churn-draw inflation to
  // ~(1 + churn * epoch / n).
  return static_cast<std::uint32_t>(
             std::ceil(std::log2(std::max(2u, net().n())))) +
         6;
}

std::uint32_t SizeEstimator::convergence_rounds() const {
  return 2 * epoch_rounds() + 2;
}

}  // namespace churnstore
