// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b),
// implemented with log/antilog tables. This is the field underlying the
// Rabin Information Dispersal Algorithm (IDA) of paper section 4.4.
#pragma once

#include <cstdint>
#include <vector>

namespace churnstore::gf256 {

/// Builds the tables on first use (thread-safe, C++11 static init).
void ensure_tables() noexcept;

[[nodiscard]] std::uint8_t add(std::uint8_t a, std::uint8_t b) noexcept;
[[nodiscard]] std::uint8_t sub(std::uint8_t a, std::uint8_t b) noexcept;
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept;
[[nodiscard]] std::uint8_t inv(std::uint8_t a);  // throws on a==0

/// dst[i] ^= c * src[i] for i in [0, len) — the inner loop of encode/decode.
void mul_acc(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
             std::size_t len) noexcept;

/// Dense matrix over GF(256), row-major.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint8_t& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::uint8_t at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const std::uint8_t* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] std::uint8_t* row(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }

  /// Gauss-Jordan inverse. Returns false if singular.
  [[nodiscard]] bool invert(Matrix& out) const;

  [[nodiscard]] Matrix multiply(const Matrix& rhs) const;

  /// Cauchy matrix rows x cols: a_ij = 1/(x_i + y_j) with x_i = i + cols,
  /// y_j = j. Every square submatrix is invertible, which is exactly the
  /// property IDA needs (any K of the L pieces reconstruct).
  static Matrix cauchy(std::size_t rows, std::size_t cols);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace churnstore::gf256
