#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "da/localization.hpp"
#include "da/osse.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/linalg.hpp"

namespace turbda::da {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;
using turbda::rng::Rng;

// ------------------------------------------------------------- utilities ---

TEST(Ensemble, MeanAndSpread) {
  Ensemble e(2, 3);
  e.member(0)[0] = 1.0;
  e.member(1)[0] = 3.0;
  const auto mu = e.mean();
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  const auto sd = e.stddev();
  EXPECT_NEAR(sd[0], std::sqrt(2.0), 1e-12);  // unbiased: var = 2
  EXPECT_DOUBLE_EQ(sd[1], 0.0);
}

TEST(Ensemble, InitPerturbed) {
  Ensemble e(50, 10);
  std::vector<double> base(10, 7.0);
  Rng rng(1);
  e.init_perturbed(base, 0.5, rng);
  const auto mu = e.mean();
  for (double v : mu) EXPECT_NEAR(v, 7.0, 0.5);
  EXPECT_NEAR(e.mean_spread(), 0.5, 0.12);
}

TEST(Metrics, RmseDefinitions) {
  std::vector<double> a{1.0, 2.0}, b{0.0, 0.0};
  EXPECT_NEAR(rmse(a, b), std::sqrt(2.5), 1e-12);
}

// ------------------------------------------------------------ observation ---

TEST(Observation, IdentityApplyAdjoint) {
  IdentityObs h(4);
  std::vector<double> x{1, 2, 3, 4}, y(4), out(4);
  h.apply(x, y);
  EXPECT_EQ(y, x);
  h.adjoint(x, y, out);
  EXPECT_EQ(out, x);
  EXPECT_TRUE(h.is_linear());
}

TEST(Observation, IdentityGridLocations) {
  IdentityObs h(2 * 3 * 2, 2, 3, 2);
  const auto locs = h.locations();
  ASSERT_TRUE(locs.has_value());
  ASSERT_EQ(locs->size(), 12u);
  EXPECT_EQ((*locs)[0].ix, 0);
  EXPECT_EQ((*locs)[11].ix, 1);
  EXPECT_EQ((*locs)[11].iy, 2);
  EXPECT_EQ((*locs)[11].level, 1);
}

TEST(Observation, SubsampleStrided) {
  auto h = SubsampleObs::strided(10, 3);
  EXPECT_EQ(h.obs_dim(), 4u);  // 0, 3, 6, 9
  std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, y(4);
  h.apply(x, y);
  EXPECT_EQ(y, (std::vector<double>{0, 3, 6, 9}));
  std::vector<double> r{1, 1, 1, 1}, out(10);
  h.adjoint(x, r, out);
  EXPECT_DOUBLE_EQ(out[3], 1.0);
  EXPECT_DOUBLE_EQ(out[4], 0.0);
}

TEST(Observation, ArctanAdjointMatchesFiniteDifference) {
  ArctanObs h(3);
  std::vector<double> x{0.5, -1.2, 2.0};
  std::vector<double> r{1.0, -0.5, 2.0}, out(3);
  h.adjoint(x, r, out);
  // <J u, r> == <u, J^T r> for u = e_i.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    std::vector<double> yp(3), ym(3);
    h.apply(xp, yp);
    h.apply(xm, ym);
    double jr = 0.0;
    for (std::size_t o = 0; o < 3; ++o) jr += (yp[o] - ym[o]) / (2 * eps) * r[o];
    EXPECT_NEAR(out[i], jr, 1e-8);
  }
  EXPECT_FALSE(h.is_linear());
}

TEST(Observation, DiagonalRPerturbAndInverse) {
  DiagonalR r(std::vector<double>{4.0, 9.0});
  std::vector<double> v{1.0, 1.0}, out(2);
  r.apply_inverse(v, out);
  EXPECT_DOUBLE_EQ(out[0], 0.25);
  EXPECT_DOUBLE_EQ(out[1], 1.0 / 9.0);

  Rng rng(2);
  double s2_0 = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    std::vector<double> y{0.0, 0.0};
    r.perturb(y, rng);
    s2_0 += y[0] * y[0];
  }
  EXPECT_NEAR(s2_0 / n, 4.0, 0.3);
  EXPECT_THROW(DiagonalR bad(2, -1.0), Error);
}

TEST(Localization, GaspariCohnShape) {
  EXPECT_DOUBLE_EQ(gaspari_cohn(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(5.0, 1.0), 0.0);
  // Monotone decreasing on [0, 2c].
  double prev = 1.0;
  for (double d = 0.1; d < 2.0; d += 0.1) {
    const double g = gaspari_cohn(d, 1.0);
    EXPECT_LT(g, prev);
    EXPECT_GE(g, 0.0);
    prev = g;
  }
  // Continuity at the piece boundary x = 1.
  EXPECT_NEAR(gaspari_cohn(1.0 - 1e-9, 1.0), gaspari_cohn(1.0 + 1e-9, 1.0), 1e-6);
}

TEST(Localization, PeriodicDistance) {
  EXPECT_DOUBLE_EQ(periodic_distance(0.0, 9.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(periodic_distance(2.0, 5.0, 10.0), 3.0);
}

// ---------------------------------------------------------------- filters ---

/// Builds a reference Kalman analysis mean from the *sample* covariance so
/// square-root filters can be verified through independent algebra:
///   mean_a = xbar + Pb H^T (H Pb H^T + R)^{-1} (y - H xbar),   here H = I.
std::vector<double> kalman_mean_identity_obs(const Ensemble& ens, std::span<const double> y,
                                             double r_var) {
  const std::size_t m = ens.size(), d = ens.dim();
  const auto xbar = ens.mean();
  tensor::Tensor xb({m, d});
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < d; ++i) xb(k, i) = ens.member(k)[i] - xbar[i];
  tensor::Tensor pb = tensor::matmul_tn(xb, xb);
  pb *= 1.0 / static_cast<double>(m - 1);
  tensor::Tensor s = pb;  // S = Pb + R
  for (std::size_t i = 0; i < d; ++i) s(i, i) += r_var;
  std::vector<double> innov(d);
  for (std::size_t i = 0; i < d; ++i) innov[i] = y[i] - xbar[i];
  const auto z = tensor::spd_solve(s, innov);
  // mean_a = xbar + Pb z
  std::vector<double> out(d);
  for (std::size_t i = 0; i < d; ++i) {
    double acc = xbar[i];
    for (std::size_t j = 0; j < d; ++j) acc += pb(i, j) * z[j];
    out[i] = acc;
  }
  return out;
}

Ensemble make_gaussian_ensemble(std::size_t m, std::size_t d, Rng& rng, double mean = 0.0,
                                double sd = 1.0) {
  Ensemble ens(m, d);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < d; ++i) ens.member(k)[i] = rng.gaussian(mean, sd);
  return ens;
}

TEST(Etkf, MatchesKalmanMeanForLinearGaussian) {
  Rng rng(3);
  const std::size_t m = 40, d = 6;
  Ensemble ens = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d, 1.5);
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  const auto want = kalman_mean_identity_obs(ens, y, 1.0);
  ETKF filter(EtkfConfig{});
  filter.analyze(ens, y, h, r);
  const auto got = ens.mean();
  for (std::size_t i = 0; i < d; ++i) EXPECT_NEAR(got[i], want[i], 1e-8);
}

TEST(Etkf, PosteriorSpreadShrinks) {
  Rng rng(4);
  Ensemble ens = make_gaussian_ensemble(30, 5, rng);
  const double spread0 = ens.mean_spread();
  std::vector<double> y(5, 0.0);
  IdentityObs h(5);
  DiagonalR r(5, 1.0);
  ETKF filter(EtkfConfig{});
  filter.analyze(ens, y, h, r);
  EXPECT_LT(ens.mean_spread(), spread0);
  // With R = I and Pb ~ I, posterior variance ~ 1/2 prior.
  EXPECT_NEAR(ens.mean_spread(), spread0 / std::sqrt(2.0), 0.2 * spread0);
}

TEST(Letkf, MatchesEtkfWithHugeLocalizationRadius) {
  Rng rng(5);
  const std::size_t nx = 4, ny = 4, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 30;
  Ensemble a = make_gaussian_ensemble(m, d, rng);
  Ensemble b(m, d);
  b.data() = a.data();

  std::vector<double> y(d);
  Rng yrng(6);
  yrng.fill_gaussian(y, 0.5, 1.0);
  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 1.0);

  EtkfConfig ecfg;
  ETKF etkf(ecfg);
  etkf.analyze(a, y, h, r);

  LetkfConfig lcfg;
  lcfg.nx = nx;
  lcfg.ny = ny;
  lcfg.n_levels = nlev;
  lcfg.domain_m = 1.0;        // tiny domain
  lcfg.cutoff_m = 1e9;        // localization effectively off
  lcfg.rossby_radius_m = 0.0; // no vertical decay
  lcfg.rtps = 0.0;
  LETKF letkf(lcfg);
  letkf.analyze(b, y, h, r);

  const auto ma = a.mean();
  const auto mb = b.mean();
  for (std::size_t i = 0; i < d; ++i) EXPECT_NEAR(mb[i], ma[i], 1e-6);
}

TEST(Letkf, DistantObservationsDoNotUpdate) {
  // One observation in a corner; analysis beyond the cutoff must equal the
  // forecast exactly.
  Rng rng(7);
  const std::size_t nx = 16, ny = 16;
  const std::size_t d = nx * ny;
  Ensemble ens = make_gaussian_ensemble(12, d, rng);
  const auto prior = ens.data();

  std::vector<std::size_t> idx{0};  // observe cell (0,0) of level 0
  std::vector<ObsLocation> locs{{0, 0, 0}};
  SubsampleObs h(d, idx, locs);
  DiagonalR r(1, 1.0);
  std::vector<double> y{5.0};

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = 1;
  cfg.domain_m = 16.0;  // dx = 1
  cfg.cutoff_m = 3.0;   // support = 3 cells
  cfg.rtps = 0.0;
  LETKF letkf(cfg);
  letkf.analyze(ens, y, h, r);

  // Observed cell moved toward the observation...
  EXPECT_GT(ens.mean()[0], prior(0, 0) - 1e-12);
  // ...but the far corner (8, 8) is untouched for every member (up to the
  // mean/perturbation recombination round-off of the no-obs fast path).
  const std::size_t far = 8 * nx + 8;
  for (std::size_t k = 0; k < ens.size(); ++k)
    EXPECT_NEAR(ens.member(k)[far], prior(k, far), 1e-12);
}

TEST(Letkf, RtpsRestoresSpread) {
  Rng rng(8);
  const std::size_t nx = 8, ny = 8;
  const std::size_t d = nx * ny;
  Ensemble e1 = make_gaussian_ensemble(15, d, rng);
  Ensemble e2(15, d);
  e2.data() = e1.data();
  std::vector<double> y(d, 0.0);
  IdentityObs h(d, nx, ny, 1);
  DiagonalR r(d, 1.0);

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = 1;
  cfg.domain_m = 8.0;
  cfg.cutoff_m = 4.0;
  cfg.rtps = 0.0;
  LETKF noRtps(cfg);
  noRtps.analyze(e1, y, h, r);

  cfg.rtps = 0.9;
  LETKF withRtps(cfg);
  withRtps.analyze(e2, y, h, r);

  EXPECT_GT(e2.mean_spread(), e1.mean_spread());
}

TEST(Letkf, CachedPlanMatchesFreshFilterAcrossCycles) {
  // A static observation network: one filter reusing its prepared plan over
  // several cycles must produce bitwise the same analyses as a fresh filter
  // (fresh plan) built every cycle.
  Rng rng(11);
  const std::size_t nx = 12, ny = 10, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;
  cfg.rtps = 0.3;
  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 0.8);

  Ensemble cached = make_gaussian_ensemble(m, d, rng);
  Ensemble fresh(m, d);
  fresh.data() = cached.data();

  LETKF keeper(cfg);
  EXPECT_FALSE(keeper.has_plan());
  keeper.prepare(h, r);
  EXPECT_TRUE(keeper.has_plan());

  Rng yrng(12);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<double> y(d);
    yrng.fill_gaussian(y, 0.0, 1.0);
    keeper.analyze(cached, y, h, r);
    LETKF once(cfg);
    once.analyze(fresh, y, h, r);
    EXPECT_EQ(0, std::memcmp(cached.data().flat().data(), fresh.data().flat().data(),
                             m * d * sizeof(double)))
        << "cycle " << cycle;
  }
}

TEST(Letkf, PlanInvalidatedOnNetworkChange) {
  // A filter whose plan was warmed on a different network (or different R)
  // must rebuild and match a fresh filter that only ever saw the final one.
  Rng rng(13);
  const std::size_t nx = 12, ny = 12, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;

  IdentityObs h_dense(d, nx, ny, nlev);
  DiagonalR r_dense(d, 1.0);
  SubsampleObs h_sparse = SubsampleObs::strided_grid(nx, ny, nlev, 3);
  const std::size_t p = h_sparse.obs_dim();
  DiagonalR r_sparse(p, 0.5);

  Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y_dense(d), y_sparse(p);
  Rng yrng(14);
  yrng.fill_gaussian(y_dense, 0.0, 1.0);
  yrng.fill_gaussian(y_sparse, 0.0, 1.0);

  // Warm on the dense network, then analyze the sparse one.
  Ensemble a(m, d), b(m, d);
  a.data() = prior.data();
  LETKF reused(cfg);
  reused.analyze(a, y_dense, h_dense, r_dense);
  a.data() = prior.data();
  reused.analyze(a, y_sparse, h_sparse, r_sparse);

  b.data() = prior.data();
  LETKF only_sparse(cfg);
  only_sparse.analyze(b, y_sparse, h_sparse, r_sparse);
  EXPECT_EQ(0, std::memcmp(a.data().flat().data(), b.data().flat().data(),
                           m * d * sizeof(double)));

  // Same network, different R variances: also a different plan.
  DiagonalR r_scaled(p, 2.0);
  a.data() = prior.data();
  reused.analyze(a, y_sparse, h_sparse, r_scaled);
  b.data() = prior.data();
  LETKF only_scaled(cfg);
  only_scaled.analyze(b, y_sparse, h_sparse, r_scaled);
  EXPECT_EQ(0, std::memcmp(a.data().flat().data(), b.data().flat().data(),
                           m * d * sizeof(double)));
}

TEST(Letkf, GroupedSolvesMatchUngroupedAcrossThreads) {
  // With no vertical localization decay (rossby_radius_m = 0), an identity
  // network, and uniform R, both levels of every grid column resolve to the
  // same local problem: grouping must halve the eigensolves and change
  // nothing in the result, at any thread count.
  Rng rng(15);
  const std::size_t nx = 10, ny = 10, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 10;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;
  cfg.rossby_radius_m = 0.0;
  cfg.collect_timings = true;

  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 1.0);
  Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d);
  Rng yrng(16);
  yrng.fill_gaussian(y, 0.0, 1.0);

  Ensemble ref(m, d);
  ref.data() = prior.data();
  {
    cfg.group_columns = false;
    cfg.n_threads = 1;
    LETKF letkf(cfg);
    letkf.analyze(ref, y, h, r);
    EXPECT_EQ(letkf.timings().groups, letkf.timings().columns);
  }
  for (const bool grouped : {false, true}) {
    for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
      cfg.group_columns = grouped;
      cfg.n_threads = nt;
      LETKF letkf(cfg);
      Ensemble work(m, d);
      work.data() = prior.data();
      letkf.analyze(work, y, h, r);
      EXPECT_EQ(0, std::memcmp(ref.data().flat().data(), work.data().flat().data(),
                               m * d * sizeof(double)))
          << "grouped=" << grouped << " threads=" << nt;
      if (grouped) {
        EXPECT_EQ(letkf.timings().groups, letkf.timings().columns / 2);
      }
    }
  }
}

std::vector<simd::SimdLevel> available_simd_levels() {
  std::vector<simd::SimdLevel> out;
  for (simd::SimdLevel lv :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma})
    if (simd::simd_level_available(lv)) out.push_back(lv);
  return out;
}

TEST(Letkf, LaneBatchedMatchesSequentialBitwiseAcrossLevelsAndThreads) {
  // A strided sparse network on an odd-size grid: local problem sizes vary
  // across columns and worker chunks hold group counts that are not lane
  // multiples, so the batched run exercises full batches, size-run tails,
  // and the sequential remainder path together. The result must be bitwise
  // identical to the pure sequential path at every dispatch level and any
  // thread count.
  Rng rng(21);
  const std::size_t nx = 11, ny = 11, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;
  cfg.collect_timings = true;

  SubsampleObs h = SubsampleObs::strided_grid(nx, ny, nlev, 3);
  const std::size_t p = h.obs_dim();
  DiagonalR r(p, 0.5);
  Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(p);
  Rng yrng(22);
  yrng.fill_gaussian(y, 0.0, 1.0);

  const simd::SimdLevel orig = simd::active_simd_level();
  for (const simd::SimdLevel lv : available_simd_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    Ensemble ref(m, d);
    ref.data() = prior.data();
    {
      cfg.lane_batch = false;
      cfg.n_threads = 1;
      LETKF letkf(cfg);
      letkf.analyze(ref, y, h, r);
      EXPECT_EQ(letkf.timings().batched_columns, 0u);
    }
    for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
      cfg.lane_batch = true;
      cfg.n_threads = nt;
      LETKF letkf(cfg);
      Ensemble work(m, d);
      work.data() = prior.data();
      letkf.analyze(work, y, h, r);
      EXPECT_EQ(0, std::memcmp(ref.data().flat().data(), work.data().flat().data(),
                               m * d * sizeof(double)))
          << simd::simd_level_name(lv) << " threads=" << nt;
      // Occupancy accounting: every column is either batched or sequential,
      // and this network produces work for both paths.
      EXPECT_EQ(letkf.timings().batched_columns + letkf.timings().scalar_columns,
                letkf.timings().columns);
      EXPECT_GT(letkf.timings().batched_columns, 0u);
    }
  }
  simd::force_simd_level(orig);
}

TEST(Letkf, LaneBatchedFallbackMatchesSequentialUnderSweepStarvation) {
  // A sweep budget too small for some local problems makes convergence vary
  // per column, so lane batches mix converged and exhausted lanes. With
  // fallback enabled both paths must keep the forecast for exactly the same
  // columns (bitwise) and report identical failure stats; with fallback
  // disabled both must fail without touching the ensemble.
  Rng rng(23);
  const std::size_t nx = 10, ny = 10, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;

  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 1.0);
  Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d);
  Rng yrng(24);
  yrng.fill_gaussian(y, 0.0, 1.0);

  for (const int sweeps : {1, 4}) {
    cfg.eigh_max_sweeps = sweeps;
    cfg.eigh_fallback = true;
    AnalysisStats stats_seq, stats_bat;
    Ensemble a(m, d), b(m, d);
    a.data() = prior.data();
    cfg.lane_batch = false;
    {
      LETKF letkf(cfg);
      ASSERT_TRUE(letkf.try_analyze(a, y, h, r, {}, &stats_seq).ok());
    }
    b.data() = prior.data();
    cfg.lane_batch = true;
    {
      LETKF letkf(cfg);
      ASSERT_TRUE(letkf.try_analyze(b, y, h, r, {}, &stats_bat).ok());
    }
    EXPECT_EQ(0,
              std::memcmp(a.data().flat().data(), b.data().flat().data(), m * d * sizeof(double)))
        << "max_sweeps=" << sweeps;
    EXPECT_EQ(stats_seq.solver_failures, stats_bat.solver_failures);
    EXPECT_EQ(stats_seq.fallback_columns, stats_bat.fallback_columns);
    if (sweeps == 1) {
      EXPECT_GT(stats_bat.solver_failures, 0u);
    }
  }

  // Fallback disabled: both paths fail whole-analysis, ensemble untouched.
  cfg.eigh_max_sweeps = 1;
  cfg.eigh_fallback = false;
  for (const bool batched : {false, true}) {
    cfg.lane_batch = batched;
    LETKF letkf(cfg);
    Ensemble w(m, d);
    w.data() = prior.data();
    const Status s = letkf.try_analyze(w, y, h, r);
    EXPECT_FALSE(s.ok()) << "lane_batch=" << batched;
    EXPECT_EQ(0, std::memcmp(prior.data().flat().data(), w.data().flat().data(),
                             m * d * sizeof(double)));
  }
}

TEST(Ensf, RecoversPosteriorForScalarGaussian) {
  // Prior N(0,1) (large ensemble), obs y = 2 with R = 1: posterior is
  // N(1, 1/2). EnSF is a sampling approximation — verify mean and variance
  // within Monte-Carlo tolerance.
  Rng rng(9);
  const std::size_t m = 300, d = 1;
  Ensemble ens = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y{2.0};
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  EnsfConfig cfg;
  cfg.euler_steps = 200;
  cfg.relax_spread = 0.0;  // raw posterior, no spread regularization
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  const auto mu = ens.mean();
  const auto sd = ens.stddev();
  EXPECT_NEAR(mu[0], 1.0, 0.2);
  EXPECT_NEAR(sd[0] * sd[0], 0.5, 0.25);
}

TEST(Ensf, MovesTowardObservationsInHighDim) {
  Rng rng(10);
  const std::size_t m = 20, d = 200;
  Ensemble ens = make_gaussian_ensemble(m, d, rng, 0.0, 1.0);
  std::vector<double> truth(d, 2.0);
  IdentityObs h(d);
  DiagonalR r(d, 0.25);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnSF filter(EnsfConfig::stabilized());
  std::vector<double> y = truth;  // perfect obs (error folded into R)
  filter.analyze(ens, y, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), 0.5 * rmse0);
}

TEST(Ensf, KernelSmoothingImprovesSmallEnsembleContraction) {
  // The raw Eq.-16 score with 20 isolated members in 200 dimensions barely
  // contracts (particle-degeneracy-like pinning); the kernel-smoothed score
  // restores the pull toward observations. This is the key ablation finding
  // documented in EXPERIMENTS.md.
  Rng rng(20);
  const std::size_t m = 20, d = 200;
  Ensemble raw = make_gaussian_ensemble(m, d, rng, 0.0, 1.0);
  Ensemble smooth(m, d);
  smooth.data() = raw.data();
  std::vector<double> truth(d, 2.0);
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  const double rmse0 = rmse_vs_truth(raw, truth);

  EnsfConfig raw_cfg;  // faithful defaults
  EnSF f_raw(raw_cfg);
  f_raw.analyze(raw, truth, h, r);

  EnSF f_smooth(EnsfConfig::stabilized());
  f_smooth.analyze(smooth, truth, h, r);

  const double e_raw = rmse_vs_truth(raw, truth);
  const double e_smooth = rmse_vs_truth(smooth, truth);
  EXPECT_LT(e_smooth, 0.6 * e_raw);
  EXPECT_LT(e_smooth, 0.5 * rmse0);
}

TEST(Ensf, ReproducibleGivenSeed) {
  Rng rng(11);
  Ensemble e1 = make_gaussian_ensemble(10, 5, rng);
  Ensemble e2(10, 5);
  e2.data() = e1.data();
  std::vector<double> y(5, 1.0);
  IdentityObs h(5);
  DiagonalR r(5, 1.0);
  EnsfConfig cfg;
  cfg.seed = 777;
  EnSF f1(cfg), f2(cfg);
  f1.analyze(e1, y, h, r);
  f2.analyze(e2, y, h, r);
  for (std::size_t k = 0; k < 10; ++k)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(e1.member(k)[i], e2.member(k)[i]);
}

TEST(Ensf, RelaxSpreadMatchesPrior) {
  Rng rng(12);
  Ensemble ens = make_gaussian_ensemble(40, 8, rng);
  const auto prior_sd = ens.stddev();
  std::vector<double> y(8, 0.5);
  IdentityObs h(8);
  DiagonalR r(8, 1.0);
  EnsfConfig cfg;
  cfg.relax_spread = 1.0;  // full relaxation to prior spread
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  const auto post_sd = ens.stddev();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(post_sd[i], prior_sd[i], 1e-9);
}

TEST(Ensf, MinibatchScoreStillAssimilates) {
  Rng rng(13);
  Ensemble ens = make_gaussian_ensemble(40, 50, rng);
  std::vector<double> truth(50, 1.5);
  IdentityObs h(50);
  DiagonalR r(50, 0.25);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnsfConfig cfg = EnsfConfig::stabilized();
  cfg.minibatch = 10;  // J < M (Eq. 15)
  EnSF filter(cfg);
  filter.analyze(ens, truth, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), 0.6 * rmse0);
}

TEST(Ensf, HandlesNonlinearArctanObs) {
  Rng rng(14);
  const std::size_t d = 40;
  Ensemble ens = make_gaussian_ensemble(40, d, rng, 0.0, 1.0);
  std::vector<double> truth(d);
  rng.fill_gaussian(truth, 0.0, 1.0);
  ArctanObs h(d);
  DiagonalR r(d, 0.01);
  std::vector<double> y(d);
  h.apply(truth, y);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnsfConfig cfg;
  cfg.euler_steps = 120;
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), rmse0);
}

// ------------------------------------------------------------------ OSSE ---

TEST(Osse, FreeRunHasEqualPriorAndPost) {
  Lorenz96Config mc;
  mc.dim = 40;
  Lorenz96 truth_model(mc), fcst_model(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);
  OsseConfig cfg;
  cfg.cycles = 5;
  cfg.n_members = 5;
  OsseRunner runner(cfg, truth_model, fcst_model, h, r, /*filter=*/nullptr);
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.1;
  const auto metrics = runner.run(truth0);
  ASSERT_EQ(metrics.size(), 5u);
  for (const auto& m : metrics) {
    EXPECT_DOUBLE_EQ(m.rmse_prior, m.rmse_post);
    EXPECT_DOUBLE_EQ(m.spread_prior, m.spread_post);
  }
}

TEST(Osse, FreeRunIsPureEnsembleForecast) {
  // The paper's "SQG only" configuration: filter == nullptr must reduce the
  // runner to independent member integrations — no observation influence, no
  // hidden perturbations — while still driving hooks and retaining truth.
  Lorenz96Config mc;
  mc.dim = 20;
  mc.steps_per_window = 5;
  Lorenz96 truth_model(mc), fcst_model(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);

  OsseConfig cfg;
  cfg.cycles = 4;
  cfg.n_members = 4;
  cfg.seed = 17;

  std::vector<double> truth0(mc.dim, 8.0);
  truth0[3] += 0.05;
  Ensemble init(cfg.n_members, mc.dim);
  Rng rng(3);
  for (std::size_t m = 0; m < cfg.n_members; ++m) {
    auto row = init.member(m);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = truth0[i] + rng.gaussian(0.0, 0.5);
  }

  OsseRunner runner(cfg, truth_model, fcst_model, h, r, /*filter=*/nullptr);
  int hook_calls = 0;
  runner.set_post_analysis_hook([&](int cycle, std::span<const double> mean) {
    EXPECT_EQ(cycle, hook_calls);
    EXPECT_EQ(mean.size(), static_cast<std::size_t>(mc.dim));
    ++hook_calls;
  });
  const auto metrics = runner.run(truth0, &init);

  ASSERT_EQ(metrics.size(), static_cast<std::size_t>(cfg.cycles));
  EXPECT_EQ(hook_calls, cfg.cycles);

  // Each member must equal its own direct model integration, bitwise.
  Lorenz96 direct(mc);
  for (std::size_t m = 0; m < cfg.n_members; ++m) {
    std::vector<double> state(init.member(m).begin(), init.member(m).end());
    for (int k = 0; k < cfg.cycles; ++k) direct.forecast(state);
    const auto got = runner.ensemble().member(m);
    EXPECT_EQ(0, std::memcmp(got.data(), state.data(), state.size() * sizeof(double)))
        << "member " << m;
  }

  // And the retained truth is the direct truth integration, bitwise.
  std::vector<double> truth = truth0;
  for (int k = 0; k < cfg.cycles; ++k) direct.forecast(truth);
  ASSERT_EQ(runner.final_truth().size(), truth.size());
  EXPECT_EQ(0, std::memcmp(runner.final_truth().data(), truth.data(),
                           truth.size() * sizeof(double)));
}

TEST(Osse, EnsfBeatsFreeRunOnLorenz96) {
  Lorenz96Config mc;
  mc.dim = 40;
  mc.steps_per_window = 10;  // 0.1 time units between obs
  Lorenz96 truth_model(mc), fcst_a(mc), fcst_b(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);

  // Spin the truth onto the attractor.
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  Lorenz96 spin(mc);
  for (int i = 0; i < 500; ++i) spin.step(truth0);

  OsseConfig cfg;
  cfg.cycles = 30;
  cfg.n_members = 20;
  cfg.init_spread = 1.0;
  cfg.seed = 99;

  EnSF filter(EnsfConfig::stabilized());
  OsseRunner da_run(cfg, truth_model, fcst_a, h, r, &filter);
  const auto da_metrics = da_run.run(truth0);

  OsseRunner free_run(cfg, truth_model, fcst_b, h, r, nullptr);
  const auto free_metrics = free_run.run(truth0);

  // Average analysis RMSE over the last 10 cycles.
  double da_err = 0.0, free_err = 0.0;
  for (int k = 20; k < 30; ++k) {
    da_err += da_metrics[static_cast<std::size_t>(k)].rmse_post;
    free_err += free_metrics[static_cast<std::size_t>(k)].rmse_post;
  }
  EXPECT_LT(da_err, 0.4 * free_err);
  // And the filter tracks near the observation-noise floor.
  EXPECT_LT(da_err / 10.0, 1.4);
}

TEST(Osse, ModelErrorInjectionDegradesForecasts) {
  Lorenz96Config mc;
  mc.dim = 40;
  Lorenz96 truth_model(mc), fcst_a(mc), fcst_b(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[5] += 0.02;
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);

  models::ModelErrorConfig mec;
  mec.reference_scale = 3.0;
  models::ModelErrorProcess me(mec);

  OsseConfig cfg;
  cfg.cycles = 10;
  cfg.n_members = 10;
  cfg.seed = 5;

  OsseRunner clean(cfg, truth_model, fcst_a, h, r, nullptr);
  const auto m_clean = clean.run(truth0);

  cfg.inject_model_error = true;
  OsseRunner noisy(cfg, truth_model, fcst_b, h, r, nullptr, &me);
  const auto m_noisy = noisy.run(truth0);

  double e_clean = 0.0, e_noisy = 0.0;
  for (int k = 0; k < 5; ++k) {
    e_clean += m_clean[static_cast<std::size_t>(k)].rmse_prior;
    e_noisy += m_noisy[static_cast<std::size_t>(k)].rmse_prior;
  }
  EXPECT_GT(e_noisy, e_clean);
}

}  // namespace
}  // namespace turbda::da
