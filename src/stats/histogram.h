// Fixed-bin histogram for rounds-to-success distributions and token loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace churnstore {

class Histogram {
 public:
  /// Uniform bins over [lo, hi); values outside are clamped to edge bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void merge(const Histogram& other);
  /// Zero every count in place (capacity and layout kept — the per-round
  /// LookupStats reset must not reallocate on the hot path).
  void clear() noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;

  /// Value v such that fraction q of the mass lies below v (bin midpoint).
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace churnstore
