#include "net/config.h"

#include <algorithm>
#include <cmath>

namespace churnstore {

namespace {

/// The paper's churn exponent k = 1 + delta: churn c * n / ln^k n per round.
constexpr double kChurnExponent = 1.5;
/// delta in the landmark tree depth cap (0.5 + delta) log2 n.
constexpr double kTreeDepthDelta = 0.25;

}  // namespace

std::uint32_t ChurnSpec::per_round(std::uint32_t n) const noexcept {
  if (kind == AdversaryKind::kNone || n == 0) return 0;
  std::int64_t c;
  if (absolute >= 0) {
    c = absolute;
  } else {
    const double ln_n = std::log(std::max<std::uint32_t>(n, 3));
    c = static_cast<std::int64_t>(
        std::floor(multiplier * static_cast<double>(n) /
                   std::pow(ln_n, kChurnExponent)));
  }
  c = std::max<std::int64_t>(c, 0);
  c = std::min<std::int64_t>(c, n / 4);
  return static_cast<std::uint32_t>(c);
}

std::uint32_t walks_per_round(std::uint32_t n, const WalkConfig& wc) {
  const double ln_n = std::log(std::max<std::uint32_t>(n, 3));
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(wc.rate_mult * ln_n)));
}

std::uint32_t walk_length(std::uint32_t n, const WalkConfig& wc) {
  const double ln_n = std::log(std::max<std::uint32_t>(n, 3));
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::lround(wc.t_mult * ln_n)));
}

std::uint32_t forward_cap(std::uint32_t n, const WalkConfig& wc) {
  // With continuous spawning (alpha log n fresh walks per node per round,
  // section 4.1) the steady-state in-flight load per node is
  // walks_per_round * walk_length = Theta(log^2 n) tokens; mirroring the
  // paper's "cap = twice the expected load" choice (Lemma 1) the default
  // cap is twice that, so every token is forwarded once per round w.h.p.
  return std::max<std::uint32_t>(4,
                                 2 * walks_per_round(n, wc) * walk_length(n, wc));
}

std::uint32_t tau_rounds(std::uint32_t n, const WalkConfig& wc) {
  // Walks advance one step per round unless queued by the cap; Lemma 1 shows
  // queueing is negligible, so tau = T plus a small constant slack.
  return walk_length(n, wc) + 2;
}

std::uint32_t committee_target(std::uint32_t n) {
  const double ln_n = std::log(std::max<std::uint32_t>(n, 3));
  return std::max<std::uint32_t>(3,
                                 static_cast<std::uint32_t>(std::lround(ln_n)));
}

std::uint32_t landmark_tree_depth(std::uint32_t n,
                                  std::uint32_t committee_size) {
  const double nn = std::max<std::uint32_t>(n, 8);
  const double ln_n = std::log(nn);
  const double log2_n = std::log2(nn);
  // Paper equation (4). log() in the paper is natural log; the loss terms
  // use the churn exponent k.
  const double loss_core =
      1.0 - 1.0 / std::pow(ln_n, (kChurnExponent - 1.0) / 2.0);
  const double loss_churn = 1.0 - 1.0 / std::pow(ln_n, kChurnExponent - 1.0);
  const double loss_collide = 1.0 - 1.0 / (nn * nn * nn);
  const double arg = 2.0 * loss_core * loss_churn * loss_collide;
  double mu_paper = 0.0;
  if (arg > 1.0) {
    const double denom = 2.0 * std::log2(arg);
    mu_paper =
        std::ceil((log2_n - 2.0 * (std::log2(log2_n) + std::log(2.0))) / denom);
  }
  // Sizing bound: committee * 2^mu must reach sqrt(n) landmarks.
  const double c = std::max<std::uint32_t>(committee_size, 1);
  const double mu_size = std::ceil(0.5 * log2_n - std::log2(c)) + 1.0;
  double mu = std::max({mu_paper, mu_size, 1.0});
  const double cap = std::ceil((0.5 + kTreeDepthDelta) * log2_n);
  mu = std::min(mu, cap);
  return static_cast<std::uint32_t>(std::max(1.0, mu));
}

}  // namespace churnstore
