// Spectral-gap estimation for the random-walk matrix P = A/d.
//
// The paper assumes a fixed bound lambda < 1 on the second-largest
// eigenvalue (in absolute value) of every round's graph. We estimate
// max(|lambda_2|, |lambda_n|) by power iteration on P with deflation of the
// principal (all-ones) eigenvector; tests use this to verify the generated
// and rewired graphs remain expanders.
#pragma once

#include "graph/graph.h"
#include "util/rng.h"

namespace churnstore {

struct SpectralOptions {
  int iterations = 120;
};

/// Estimated second-largest absolute eigenvalue of P = A/d, in [0, 1].
[[nodiscard]] double second_eigenvalue_estimate(
    const RegularGraph& g, Rng& rng,
    const SpectralOptions& opts = SpectralOptions{});

}  // namespace churnstore
