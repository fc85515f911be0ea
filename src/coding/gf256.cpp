#include "coding/gf256.h"

#include <array>
#include <stdexcept>

namespace churnstore::gf256 {

namespace {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};

  Tables() noexcept {
    // Generator 3 is primitive for 0x11b.
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
      log[static_cast<std::uint8_t>(x)] = static_cast<std::uint8_t>(i);
      // multiply x by 3 = x * 2 + x in GF(2^8)
      std::uint16_t x2 = static_cast<std::uint16_t>(x << 1);
      if (x2 & 0x100) x2 ^= 0x11b;
      x = static_cast<std::uint16_t>(x2 ^ x);
    }
    for (int i = 255; i < 512; ++i)
      exp[static_cast<std::size_t>(i)] =
          exp[static_cast<std::size_t>(i - 255)];
  }
};

const Tables& tables() noexcept {
  static const Tables t;
  return t;
}

}  // namespace

void ensure_tables() noexcept { (void)tables(); }

std::uint8_t add(std::uint8_t a, std::uint8_t b) noexcept {
  return static_cast<std::uint8_t>(a ^ b);
}

std::uint8_t sub(std::uint8_t a, std::uint8_t b) noexcept {
  return static_cast<std::uint8_t>(a ^ b);
}

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256::inv(0)");
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

void mul_acc(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
             std::size_t len) noexcept {
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& t = tables();
  const std::uint8_t lc = t.log[c];
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t s = src[i];
    if (s) dst[i] ^= t.exp[static_cast<std::size_t>(t.log[s]) + lc];
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

bool Matrix::invert(Matrix& out) const {
  if (rows_ != cols_) return false;
  const std::size_t n = rows_;
  Matrix work(*this);
  out = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot search.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(out.at(pivot, c), out.at(col, c));
      }
    }
    const std::uint8_t piv_inv = inv(work.at(col, col));
    for (std::size_t c = 0; c < n; ++c) {
      work.at(col, c) = mul(work.at(col, c), piv_inv);
      out.at(col, c) = mul(out.at(col, c), piv_inv);
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = work.at(r, col);
      if (f == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) = sub(work.at(r, c), mul(f, work.at(col, c)));
        out.at(r, c) = sub(out.at(r, c), mul(f, out.at(col, c)));
      }
    }
  }
  return true;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("gf256 matmul shape");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(r, k);
      if (a == 0) continue;
      mul_acc(out.row(r), rhs.row(k), a, rhs.cols_);
    }
  }
  return out;
}

Matrix Matrix::cauchy(std::size_t rows, std::size_t cols) {
  if (rows + cols > 256)
    throw std::invalid_argument("gf256 Cauchy: rows + cols must be <= 256");
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto x = static_cast<std::uint8_t>(r + cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const auto y = static_cast<std::uint8_t>(c);
      m.at(r, c) = inv(add(x, y));
    }
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

}  // namespace churnstore::gf256
