#include "letkf_reference.hpp"

#include <algorithm>
#include <cmath>

namespace cyclebench {

using namespace turbda;

namespace {

/// Gaspari & Cohn (1999) eq. 4.10 with support half-width c (zero at 2c).
double gc_weight(double dist, double c) {
  const double z = dist / c;
  if (z >= 2.0) return 0.0;
  if (z <= 1.0)
    return 1.0 - 5.0 / 3.0 * z * z + 5.0 / 8.0 * std::pow(z, 3) + 0.5 * std::pow(z, 4) -
           0.25 * std::pow(z, 5);
  return 4.0 - 5.0 * z + 5.0 / 3.0 * z * z + 5.0 / 8.0 * std::pow(z, 3) -
         0.5 * std::pow(z, 4) + std::pow(z, 5) / 12.0 - 2.0 / (3.0 * z);
}

/// Cyclic Jacobi eigensolve of the symmetric n x n matrix `a` (row-major,
/// destroyed). Returns eigenvalues; `v` receives eigenvectors as columns.
std::vector<double> jacobi(std::vector<double> a, std::size_t n, std::vector<double>& v) {
  v.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0, diag = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      diag += a[p * n + p] * a[p * n + p];
      for (std::size_t q = p + 1; q < n; ++q) off += a[p * n + q] * a[p * n + q];
    }
    if (off <= 1e-32 * diag) break;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (apq == 0.0) continue;
        const double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0), s = t * c;
        for (std::size_t k = 0; k < n; ++k) {  // A <- A J
          const double akp = a[k * n + p], akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {  // A <- J^T A
          const double apk = a[p * n + k], aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {  // V <- V J
          const double vkp = v[k * n + p], vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
  }
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = a[i * n + i];
  return w;
}

}  // namespace

ColumnCheck check_letkf_columns(const da::LetkfConfig& cfg, const da::Ensemble& prior,
                                const da::Ensemble& post, std::span<const double> y,
                                const da::ObservationOperator& h, const da::DiagonalR& r,
                                std::span<const std::uint8_t> mask, double r_scale,
                                std::span<const std::size_t> columns) {
  const std::size_t m = prior.size(), p = h.obs_dim();
  const double infl = cfg.mult_inflation;
  const auto locs = h.locations();
  ColumnCheck res;
  res.tolerance = 1e-8;
  if (!locs) return res;

  // Obs-space ensemble, its mean and perturbations.
  std::vector<double> hx(m * p), ybar(p, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    h.apply(prior.member(k), std::span<double>(&hx[k * p], p));
    for (std::size_t o = 0; o < p; ++o) ybar[o] += hx[k * p + o];
  }
  for (double& v : ybar) v /= static_cast<double>(m);

  const double dx = cfg.domain_m / static_cast<double>(cfg.nx);
  const double dy = cfg.domain_m / static_cast<double>(cfg.ny);
  const auto periodic = [&](int a, int b, double step) {
    const double d = std::abs(a - b) * step;
    return std::min(d, cfg.domain_m - d);
  };

  for (const std::size_t g : columns) {
    const std::size_t area = cfg.nx * cfg.ny;
    const int lev = static_cast<int>(g / area);
    const int jy = static_cast<int>((g % area) / cfg.nx);
    const int ix = static_cast<int>(g % cfg.nx);

    // Local observations and their localized R^-1 weights.
    std::vector<std::size_t> sel;
    std::vector<double> wgt;
    for (std::size_t o = 0; o < p; ++o) {
      if (!mask.empty() && mask[o] == 0) continue;
      const auto& L = (*locs)[o];
      const double dh = std::hypot(periodic(ix, L.ix, dx), periodic(jy, L.iy, dy));
      if (dh > cfg.cutoff_m) continue;
      const double dz = static_cast<double>(L.level - lev) * cfg.rossby_radius_m;
      const double rho = gc_weight(std::hypot(dh, dz), 0.5 * cfg.cutoff_m);
      if (rho < cfg.min_weight) continue;
      sel.push_back(o);
      wgt.push_back(rho / (r.variance(o) * r_scale));
    }

    double xbar = 0.0;
    for (std::size_t k = 0; k < m; ++k) xbar += prior.member(k)[g];
    xbar /= static_cast<double>(m);
    std::vector<double> xb(m);
    for (std::size_t k = 0; k < m; ++k) xb[k] = (prior.member(k)[g] - xbar) * infl;

    // A = (m-1) I + Yb^T W Yb and c = Yb^T W (y - ybar).
    std::vector<double> a(m * m, 0.0), c(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) a[i * m + i] = static_cast<double>(m - 1);
    for (std::size_t s = 0; s < sel.size(); ++s) {
      const std::size_t o = sel[s];
      for (std::size_t i = 0; i < m; ++i) {
        const double yi = (hx[i * p + o] - ybar[o]) * infl;
        c[i] += yi * wgt[s] * (y[o] - ybar[o]);
        for (std::size_t j = 0; j < m; ++j)
          a[i * m + j] += yi * wgt[s] * (hx[j * p + o] - ybar[o]) * infl;
      }
    }
    std::vector<double> v;
    const std::vector<double> lam = jacobi(a, m, v);

    // wbar = V L^-1 V^T c;  Wa = sqrt(m-1) V L^-1/2 V^T.
    std::vector<double> vtc(m, 0.0), wbar(m, 0.0), wa(m * m, 0.0);
    for (std::size_t e = 0; e < m; ++e)
      for (std::size_t i = 0; i < m; ++i) vtc[e] += v[i * m + e] * c[i];
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t e = 0; e < m; ++e) {
        wbar[i] += v[i * m + e] * vtc[e] / lam[e];
        for (std::size_t j = 0; j < m; ++j)
          wa[i * m + j] +=
              std::sqrt(static_cast<double>(m - 1)) * v[i * m + e] * v[j * m + e] / std::sqrt(lam[e]);
      }

    std::vector<double> xa(m);
    for (std::size_t k = 0; k < m; ++k) {
      double inc = 0.0;
      for (std::size_t i = 0; i < m; ++i) inc += xb[i] * (wbar[i] + wa[i * m + k]);
      xa[k] = xbar + inc;
    }

    // RTPS: relax the posterior spread toward the prior spread.
    if (cfg.rtps > 0.0) {
      double mu = 0.0, sp = 0.0, sa = 0.0;
      for (std::size_t k = 0; k < m; ++k) mu += xa[k];
      mu /= static_cast<double>(m);
      for (std::size_t k = 0; k < m; ++k) {
        sa += (xa[k] - mu) * (xa[k] - mu);
        sp += (prior.member(k)[g] - xbar) * (prior.member(k)[g] - xbar);
      }
      sa = std::sqrt(sa / static_cast<double>(m - 1));
      sp = std::sqrt(sp / static_cast<double>(m - 1));
      if (sa > 1e-12)
        for (std::size_t k = 0; k < m; ++k)
          xa[k] = mu + (xa[k] - mu) * (1.0 + cfg.rtps * (sp - sa) / sa);
    }

    for (std::size_t k = 0; k < m; ++k) {
      const double d = std::abs(xa[k] - post.member(k)[g]);
      if (!(d <= res.max_abs_diff)) res.max_abs_diff = d;  // keeps a NaN
    }
    ++res.columns;
  }
  return res;
}

}  // namespace cyclebench
