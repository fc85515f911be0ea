#include "coding/gf256.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace churnstore::gf256 {
namespace {

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(add(0x53, 0xca), 0x53 ^ 0xca);
  EXPECT_EQ(add(7, 7), 0);
  EXPECT_EQ(sub(0x53, 0xca), add(0x53, 0xca));
}

TEST(Gf256, MultiplicationIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, KnownAesProducts) {
  // Classic AES field examples (polynomial 0x11b).
  EXPECT_EQ(mul(0x53, 0xca), 0x01);
  EXPECT_EQ(mul(0x02, 0x87), 0x15);
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv_a = inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), inv_a), 1) << "a=" << a;
  }
  EXPECT_THROW((void)inv(0), std::domain_error);
}

// Field-axiom property sweep over random triples.
class Gf256Axioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Gf256Axioms, AssociativeCommutativeDistributive) {
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next());
    const auto c = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    EXPECT_EQ(add(a, b), add(b, a));
    EXPECT_EQ(add(add(a, b), c), add(a, add(b, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gf256Axioms, ::testing::Values(1, 17, 33));

TEST(Gf256, MulAccMatchesScalarLoop) {
  Rng rng(9);
  std::vector<std::uint8_t> src(257), dst(257), expect(257);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(rng.next());
    dst[i] = static_cast<std::uint8_t>(rng.next());
    expect[i] = dst[i];
  }
  const std::uint8_t c = 0x37;
  for (std::size_t i = 0; i < src.size(); ++i)
    expect[i] = add(expect[i], mul(c, src[i]));
  mul_acc(dst.data(), src.data(), c, src.size());
  EXPECT_EQ(dst, expect);
}

TEST(Gf256, MulAccSpecialCoefficients) {
  std::vector<std::uint8_t> src{1, 2, 3}, dst{4, 5, 6};
  auto copy = dst;
  mul_acc(dst.data(), src.data(), 0, 3);
  EXPECT_EQ(dst, copy);  // c = 0 is a no-op
  mul_acc(dst.data(), src.data(), 1, 3);
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{5, 7, 5}));  // c = 1 is xor
}

TEST(Gf256Matrix, IdentityInverse) {
  const auto id = Matrix::identity(8);
  Matrix out(8, 8);
  ASSERT_TRUE(id.invert(out));
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(out.at(r, c), r == c ? 1 : 0);
}

TEST(Gf256Matrix, SingularMatrixRejected) {
  Matrix m(3, 3);  // all zeros
  Matrix out(3, 3);
  EXPECT_FALSE(m.invert(out));
  // Duplicate rows are singular too.
  Matrix dup(2, 2);
  dup.at(0, 0) = 3;
  dup.at(0, 1) = 5;
  dup.at(1, 0) = 3;
  dup.at(1, 1) = 5;
  EXPECT_FALSE(dup.invert(out));
}

TEST(Gf256Matrix, InverseTimesSelfIsIdentity) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c)
        m.at(r, c) = static_cast<std::uint8_t>(rng.next());
    Matrix inv_m(6, 6);
    if (!m.invert(inv_m)) continue;  // singular draws are fine to skip
    const Matrix prod = m.multiply(inv_m);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c)
        EXPECT_EQ(prod.at(r, c), r == c ? 1 : 0);
  }
}

// The property IDA relies on: every square submatrix of a Cauchy matrix is
// invertible.
class CauchySubmatrix : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CauchySubmatrix, AllSampledSquareSubmatricesInvertible) {
  const auto [l, k] = GetParam();
  const auto cauchy = Matrix::cauchy(static_cast<std::size_t>(l),
                                     static_cast<std::size_t>(k));
  Rng rng(static_cast<std::uint64_t>(l * 1000 + k));
  for (int trial = 0; trial < 50; ++trial) {
    const auto rows = rng.sample_without_replacement(
        static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(k));
    Matrix sub(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
    for (int r = 0; r < k; ++r)
      for (int c = 0; c < k; ++c)
        sub.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            cauchy.at(rows[static_cast<std::size_t>(r)],
                      static_cast<std::size_t>(c));
    Matrix out(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
    EXPECT_TRUE(sub.invert(out)) << "l=" << l << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CauchySubmatrix,
                         ::testing::Values(std::pair{4, 2}, std::pair{8, 5},
                                           std::pair{16, 8}, std::pair{24, 20},
                                           std::pair{40, 10}));

TEST(Gf256Matrix, CauchyShapeLimit) {
  EXPECT_THROW(Matrix::cauchy(200, 100), std::invalid_argument);
  EXPECT_NO_THROW(Matrix::cauchy(128, 128));
}

}  // namespace
}  // namespace churnstore::gf256
