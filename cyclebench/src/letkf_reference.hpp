// Independent from-scratch LETKF for single grid columns, used to check the
// program's analysis: brute-force local observation search, Gaspari–Cohn
// R-localization with the Rossby-radius level coupling and the min_weight
// cut, a cyclic Jacobi eigensolve of (m-1)I + Yb^T R^-1 Yb, the mean and
// symmetric square-root weights, then RTPS. It shares no code with
// src/da/letkf.cpp beyond the configuration struct.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "da/ensemble.hpp"
#include "da/letkf.hpp"
#include "da/observation.hpp"

namespace cyclebench {

struct ColumnCheck {
  std::size_t columns = 0;
  double max_abs_diff = 0.0;  ///< K, over the checked columns and all members
  double tolerance = 0.0;
  [[nodiscard]] bool ok() const { return columns > 0 && max_abs_diff <= tolerance; }
};

/// Recomputes the posterior of `columns` from `prior` and compares it with
/// the program's `post`. `mask` / `r_scale` are the QC options the runner
/// passed with this analysis.
ColumnCheck check_letkf_columns(const turbda::da::LetkfConfig& cfg,
                                const turbda::da::Ensemble& prior,
                                const turbda::da::Ensemble& post, std::span<const double> y,
                                const turbda::da::ObservationOperator& h,
                                const turbda::da::DiagonalR& r,
                                std::span<const std::uint8_t> mask, double r_scale,
                                std::span<const std::size_t> columns);

}  // namespace cyclebench
