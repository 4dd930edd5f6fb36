#include "da/letkf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "da/localization.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dense_kernels.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tensor/linalg.hpp"

namespace turbda::da {

using tensor::Tensor;

LETKF::LETKF(LetkfConfig cfg) : cfg_(cfg) {
  TURBDA_REQUIRE(cfg_.nx >= 2 && cfg_.ny >= 2 && cfg_.n_levels >= 1, "bad LETKF grid");
  TURBDA_REQUIRE(cfg_.cutoff_m > 0.0 && cfg_.domain_m > 0.0, "bad LETKF scales");
  TURBDA_REQUIRE(cfg_.rtps >= 0.0 && cfg_.rtps < 1.0, "RTPS factor must be in [0,1)");
  TURBDA_REQUIRE(cfg_.mult_inflation >= 1.0, "multiplicative inflation must be >= 1");
  TURBDA_REQUIRE(cfg_.eigh_max_sweeps >= 1, "eigh_max_sweeps must be >= 1");
}

LETKF::~LETKF() = default;

namespace {

/// Precomputed horizontal neighborhood: cell offsets within the GC support
/// plus their horizontal distances.
struct Neighborhood {
  std::vector<int> di, dj;
  std::vector<double> dist;
};

Neighborhood build_neighborhood(const LetkfConfig& cfg) {
  Neighborhood nb;
  const double dx = cfg.domain_m / static_cast<double>(cfg.nx);
  const double dy = cfg.domain_m / static_cast<double>(cfg.ny);
  const auto nxi = static_cast<int>(cfg.nx);
  const auto nyi = static_cast<int>(cfg.ny);
  // Offsets cover each periodic cell at most once: [-(n-1)/2, n/2]. The
  // radius comparison happens in double to avoid overflow for huge cutoffs.
  for (int j = -(nyi - 1) / 2; j <= nyi / 2; ++j) {
    for (int i = -(nxi - 1) / 2; i <= nxi / 2; ++i) {
      // Periodic minimum-image distance.
      const double ddx = std::min(std::abs(i) * dx, cfg.domain_m - std::abs(i) * dx);
      const double ddy = std::min(std::abs(j) * dy, cfg.domain_m - std::abs(j) * dy);
      const double d = std::hypot(ddx, ddy);
      if (d <= cfg.cutoff_m) {
        nb.di.push_back(i);
        nb.dj.push_back(j);
        nb.dist.push_back(d);
      }
    }
  }
  return nb;
}

}  // namespace

/// Cached local-observation plan for one observation network on one grid.
///
/// Everything the per-column observation selection used to recompute every
/// cycle is hoisted here and keyed on the network (locations + R variances):
/// the Gaspari–Cohn weights collapse to a translation-invariant template
/// per (analysis level, cell offset, obs level) — all hypot/GC evaluations
/// happen once per network, not once per column per cycle — and columns
/// whose resolved local problem (obs indices + weights) is identical are
/// grouped to share one eigensolve. When the resolved per-column (obs, w)
/// lists fit the configured budget they are materialized outright, removing
/// even the template walk from the analysis hot path.
struct LETKF::Plan {
  /// One non-negligible template entry: cell offset (di, dj), observation
  /// level (as a flat cell-index base), localization weight.
  struct TemplEntry {
    std::int32_t di, dj;
    std::size_t olev_base;
    double rho;
  };

  std::size_t nx = 0, ny = 0, nlev = 0;

  // Network signature for invalidation.
  std::vector<ObsLocation> locs;
  std::vector<double> rvar;

  std::vector<std::vector<TemplEntry>> tmpl;  ///< per analysis level
  std::vector<std::int32_t> wrapx, wrapy;     ///< periodic index wrap, offset by nx/ny
  std::vector<std::int32_t> cell_obs;         ///< cell -> obs index, -1 unobserved
  std::vector<double> inv_rvar;               ///< 1 / R diagonal

  // Column grouping: columns of group gr are group_cols[group_off[gr] ..
  // group_off[gr+1]), first entry is the representative. Groups are ordered
  // by their representative's column index; ungrouped configs get
  // singletons.
  std::vector<std::uint32_t> group_off, group_cols;

  // Materialized per-representative selections (empty ranges otherwise).
  bool materialized = false;
  std::vector<std::uint64_t> col_off;  ///< d + 1 prefix offsets
  std::vector<std::int32_t> sel_idx;
  std::vector<double> sel_w;

  /// Per-column local observation count (valid for every column, cheap to
  /// keep): lets the lane-batch scheduler bucket groups by problem shape
  /// without walking the template.
  std::vector<std::uint32_t> col_pl;

  [[nodiscard]] std::size_t n_groups() const { return group_off.size() - 1; }

  /// Visits this column's local observations in the fixed deterministic
  /// order (neighborhood entry outer, obs level inner): f(obs_index,
  /// localization_weight / r_variance).
  template <class F>
  void for_each(std::size_t g, F&& f) const {
    const std::size_t area = nx * ny;
    const std::size_t lev = g / area;
    const std::size_t rem = g % area;
    const auto gi = static_cast<std::int32_t>(rem % nx);
    const auto gj = static_cast<std::int32_t>(rem / nx);
    const auto nxi = static_cast<std::int32_t>(nx);
    const auto nyi = static_cast<std::int32_t>(ny);
    for (const TemplEntry& e : tmpl[lev]) {
      const std::int32_t oi = wrapx[static_cast<std::size_t>(gi + e.di + nxi)];
      const std::int32_t oj = wrapy[static_cast<std::size_t>(gj + e.dj + nyi)];
      const std::size_t cell =
          e.olev_base + static_cast<std::size_t>(oj) * nx + static_cast<std::size_t>(oi);
      const std::int32_t oidx = cell_obs[cell];
      if (oidx < 0) continue;
      f(oidx, e.rho * inv_rvar[static_cast<std::size_t>(oidx)]);
    }
  }

  [[nodiscard]] bool matches(const std::vector<ObsLocation>& l,
                             const std::vector<double>& rv) const {
    if (l.size() != locs.size() || rv.size() != rvar.size()) return false;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (l[i].ix != locs[i].ix || l[i].iy != locs[i].iy || l[i].level != locs[i].level)
        return false;
    }
    return rv == rvar;
  }

  static std::unique_ptr<Plan> build(const LetkfConfig& cfg, std::vector<ObsLocation> locs_in,
                                     std::vector<double> rvar_in);
};

std::unique_ptr<LETKF::Plan> LETKF::Plan::build(const LetkfConfig& cfg,
                                                std::vector<ObsLocation> locs_in,
                                                std::vector<double> rvar_in) {
  auto plan = std::make_unique<Plan>();
  Plan& pl = *plan;
  pl.nx = cfg.nx;
  pl.ny = cfg.ny;
  pl.nlev = cfg.n_levels;
  pl.locs = std::move(locs_in);
  pl.rvar = std::move(rvar_in);
  const std::size_t area = cfg.nx * cfg.ny;
  const std::size_t d = area * cfg.n_levels;
  const std::size_t p = pl.locs.size();

  // Cell -> observation map (validates locations against the grid).
  pl.cell_obs.assign(d, -1);
  for (std::size_t o = 0; o < p; ++o) {
    const auto& L = pl.locs[o];
    TURBDA_REQUIRE(L.ix >= 0 && L.ix < static_cast<int>(cfg.nx) && L.iy >= 0 &&
                       L.iy < static_cast<int>(cfg.ny) && L.level >= 0 &&
                       L.level < static_cast<int>(cfg.n_levels),
                   "LETKF: observation location outside grid");
    const std::size_t cell =
        (static_cast<std::size_t>(L.level) * cfg.ny + static_cast<std::size_t>(L.iy)) * cfg.nx +
        static_cast<std::size_t>(L.ix);
    pl.cell_obs[cell] = static_cast<std::int32_t>(o);
  }
  pl.inv_rvar.resize(p);
  for (std::size_t o = 0; o < p; ++o) pl.inv_rvar[o] = 1.0 / pl.rvar[o];

  // Periodic wrap lookup tables: index (g + off + n) for off in the
  // neighborhood range always lands in [1, 3n).
  pl.wrapx.resize(3 * cfg.nx);
  for (std::size_t i = 0; i < pl.wrapx.size(); ++i)
    pl.wrapx[i] = static_cast<std::int32_t>(i % cfg.nx);
  pl.wrapy.resize(3 * cfg.ny);
  for (std::size_t i = 0; i < pl.wrapy.size(); ++i)
    pl.wrapy[i] = static_cast<std::int32_t>(i % cfg.ny);

  // Translation-invariant weight template: every hypot/Gaspari–Cohn
  // evaluation the per-column walk used to perform happens exactly once
  // here; entries below min_weight are dropped at the source.
  const Neighborhood nb = build_neighborhood(cfg);
  const double gc_halfwidth = 0.5 * cfg.cutoff_m;
  pl.tmpl.resize(cfg.n_levels);
  for (std::size_t lev = 0; lev < cfg.n_levels; ++lev) {
    auto& entries = pl.tmpl[lev];
    for (std::size_t t = 0; t < nb.di.size(); ++t) {
      for (std::size_t olev = 0; olev < cfg.n_levels; ++olev) {
        // Rossby-coupled 3-D distance: vertical separation enters as an
        // equivalent horizontal distance of (levels apart) * L_R.
        const double dlev = static_cast<double>(olev) - static_cast<double>(lev);
        const double deff = std::hypot(nb.dist[t], dlev * cfg.rossby_radius_m);
        const double rho = gaspari_cohn(deff, gc_halfwidth);
        if (rho < cfg.min_weight) continue;
        entries.push_back(TemplEntry{static_cast<std::int32_t>(nb.di[t]),
                                     static_cast<std::int32_t>(nb.dj[t]), olev * area, rho});
      }
    }
  }

  // Resolve every column's local problem to a (count, hash) pair; the hash
  // feeds grouping, the counts feed the materialization budget.
  std::vector<std::uint64_t> hashes(d);
  std::vector<std::uint32_t> pls(d);
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t g = b; g < e; ++g) {
          std::uint64_t hh = 14695981039346656037ull;  // FNV-1a offset basis
          std::uint32_t cnt = 0;
          pl.for_each(g, [&](std::int32_t o, double wv) {
            hh ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(o));
            hh *= 1099511628211ull;
            hh ^= std::bit_cast<std::uint64_t>(wv);
            hh *= 1099511628211ull;
            ++cnt;
          });
          hashes[g] = hh;
          pls[g] = cnt;
        }
      },
      cfg.nx, cfg.n_threads);

  // Group columns with identical resolved local problems. Hash buckets are
  // verified by exact (obs, weight) comparison, so collisions can only cost
  // time, never correctness. Serial over columns -> group order and
  // membership are independent of thread count.
  std::vector<std::vector<std::uint32_t>> groups;
  if (cfg.group_columns) {
    std::vector<std::uint32_t> rep_of;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;
    std::vector<std::int32_t> ia, ib;
    std::vector<double> wa, wb;
    const auto collect = [&](std::size_t g, std::vector<std::int32_t>& vi,
                             std::vector<double>& vw) {
      vi.clear();
      vw.clear();
      pl.for_each(g, [&](std::int32_t o, double wv) {
        vi.push_back(o);
        vw.push_back(wv);
      });
    };
    for (std::size_t g = 0; g < d; ++g) {
      bool joined = false;
      auto& bucket = by_hash[hashes[g]];
      for (const std::uint32_t gid : bucket) {
        const std::uint32_t rep = rep_of[gid];
        if (pls[rep] != pls[g]) continue;
        collect(rep, ia, wa);
        collect(g, ib, wb);
        // An empty weight list has a null data(), which memcmp must not see.
        if (ia == ib && (wa.empty() ||
                         std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)) == 0)) {
          groups[gid].push_back(static_cast<std::uint32_t>(g));
          joined = true;
          break;
        }
      }
      if (!joined) {
        bucket.push_back(static_cast<std::uint32_t>(groups.size()));
        rep_of.push_back(static_cast<std::uint32_t>(g));
        groups.push_back({static_cast<std::uint32_t>(g)});
      }
    }
  } else {
    groups.resize(d);
    for (std::size_t g = 0; g < d; ++g) groups[g] = {static_cast<std::uint32_t>(g)};
  }
  pl.group_off.reserve(groups.size() + 1);
  pl.group_off.push_back(0);
  pl.group_cols.reserve(d);
  for (const auto& grp : groups) {
    pl.group_cols.insert(pl.group_cols.end(), grp.begin(), grp.end());
    pl.group_off.push_back(static_cast<std::uint32_t>(pl.group_cols.size()));
  }

  // Materialize representatives' (obs, weight) lists when they fit the
  // budget; otherwise analyses walk the template per group.
  pl.col_off.assign(d + 1, 0);
  for (const auto& grp : groups) pl.col_off[grp.front() + 1] = pls[grp.front()];
  for (std::size_t g = 0; g < d; ++g) pl.col_off[g + 1] += pl.col_off[g];
  const std::uint64_t total = pl.col_off[d];
  const std::uint64_t bytes = total * (sizeof(std::int32_t) + sizeof(double));
  if (bytes <= static_cast<std::uint64_t>(cfg.plan_budget_mb) * (1u << 20)) {
    pl.materialized = true;
    pl.sel_idx.resize(total);
    pl.sel_w.resize(total);
    parallel::parallel_for(
        d,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t g = b; g < e; ++g) {
            std::uint64_t at = pl.col_off[g];
            if (pl.col_off[g + 1] == at) continue;
            pl.for_each(g, [&](std::int32_t o, double wv) {
              pl.sel_idx[at] = o;
              pl.sel_w[at] = wv;
              ++at;
            });
          }
        },
        cfg.nx, cfg.n_threads);
  }
  pl.col_pl = std::move(pls);
  return plan;
}

const LETKF::Plan& LETKF::plan_for(const ObservationOperator& h, const DiagonalR& r) {
  auto locs_opt = h.locations();
  TURBDA_REQUIRE(locs_opt.has_value(), "LETKF requires gridded observation locations");
  const std::size_t p = h.obs_dim();
  TURBDA_REQUIRE(locs_opt->size() == p && r.dim() == p, "LETKF: obs metadata size mismatch");
  std::vector<double> rvar(p);
  for (std::size_t o = 0; o < p; ++o) rvar[o] = r.variance(o);
  if (plan_ != nullptr && plan_->matches(*locs_opt, rvar)) return *plan_;
  TURBDA_SPAN("letkf.plan_build");
  WallTimer t;
  plan_ = Plan::build(cfg_, std::move(*locs_opt), std::move(rvar));
  if (cfg_.collect_timings) timings_.plan_ms += t.milliseconds();
  return *plan_;
}

void LETKF::prepare(const ObservationOperator& h, const DiagonalR& r) { (void)plan_for(h, r); }

void LETKF::analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                    const DiagonalR& r) {
  const Status s = analyze_impl(ens, y, h, r, AnalysisOptions{}, nullptr);
  TURBDA_REQUIRE(s.ok(), "LETKF analysis failed — " << s.to_string());
}

Status LETKF::try_analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                          const DiagonalR& r, const AnalysisOptions& opts, AnalysisStats* stats) {
  try {
    return analyze_impl(ens, y, h, r, opts, stats);
  } catch (const Error& e) {
    return Status(StatusCode::kFailed, e.what());
  }
}

Status LETKF::analyze_impl(Ensemble& ens, std::span<const double> y,
                           const ObservationOperator& h, const DiagonalR& r,
                           const AnalysisOptions& opts, AnalysisStats* stats) {
  const std::size_t m = ens.size();
  const std::size_t d = ens.dim();
  const std::size_t p = h.obs_dim();
  TURBDA_REQUIRE(d == cfg_.nx * cfg_.ny * cfg_.n_levels,
                 "LETKF: state dim inconsistent with configured grid");
  TURBDA_REQUIRE(y.size() == p && r.dim() == p, "LETKF: obs dim mismatch");
  TURBDA_REQUIRE(opts.r_scale >= 1.0, "LETKF: r_scale must be >= 1");
  TURBDA_REQUIRE(opts.obs_mask.empty() || opts.obs_mask.size() == p,
                 "LETKF: obs_mask size mismatch");
  const std::uint8_t* mask = opts.obs_mask.empty() ? nullptr : opts.obs_mask.data();
  const double inv_r_scale = 1.0 / opts.r_scale;
  if (stats != nullptr) {
    *stats = AnalysisStats{.obs_total = p};
    if (mask != nullptr)
      for (std::size_t o = 0; o < p; ++o) stats->obs_masked += mask[o] ? 0 : 1;
  }

  TURBDA_SPAN("letkf.analyze");
  // Phase clocks run when either consumer is live: the cumulative timings_
  // report (collect_timings) or the trace. Merging into timings_ stays gated
  // on collect_timings alone so tracing never changes the bench numbers.
  const bool tm_cfg = cfg_.collect_timings;
  const bool tr = telemetry::tracing_enabled();
  const bool tm = tm_cfg || tr;
  WallTimer t_total;
  const Plan& plan = plan_for(h, r);
  const double infl = cfg_.mult_inflation;

  // Prior statistics.
  const auto xbar = ens.mean();
  const std::vector<double> prior_sd = ens.stddev();

  // Column-major (d x m) prior perturbations: every per-column kernel below
  // then reads/writes contiguous m-vectors. Transposes are elementwise, so
  // they are bitwise independent of the chunking.
  Tensor xbT({d, m});
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < m; ++k) {
          const auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) xbT(g, k) = (row[g] - xbar[g]) * infl;
        }
      },
      4096, cfg_.n_threads);

  // Obs-space ensemble: mean, innovations, and column-major (p x m)
  // perturbations Yb^T.
  Tensor yensT({p, m});
  std::vector<double> ybar(p, 0.0), innov(p);
  {
    Tensor yens({m, p});
    std::vector<double> buf(p);
    for (std::size_t k = 0; k < m; ++k) {
      h.apply(ens.member(k), buf);
      std::copy(buf.begin(), buf.end(), yens.row(k).begin());
    }
    for (std::size_t k = 0; k < m; ++k) {
      const auto row = yens.row(k);
      for (std::size_t o = 0; o < p; ++o) ybar[o] += row[o];
    }
    for (double& v : ybar) v /= static_cast<double>(m);
    // Masked innovations are pinned to 0, never computed: a QC-excised raw
    // value may be non-finite and 0 * NaN would poison the weighted sums.
    for (std::size_t o = 0; o < p; ++o)
      innov[o] = (mask != nullptr && mask[o] == 0) ? 0.0 : y[o] - ybar[o];
    parallel::parallel_for(
        p,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t o = b; o < e; ++o) {
            double* dst = &yensT(o, 0);
            for (std::size_t k = 0; k < m; ++k) dst[k] = (yens(k, o) - ybar[o]) * infl;
          }
        },
        4096, cfg_.n_threads);
  }

  // Output analysis, column-major like xbT.
  Tensor xaT({d, m});
  const double sqm1 = std::sqrt(static_cast<double>(m - 1));
  const std::size_t n_groups = plan.n_groups();
  std::mutex tm_mu;
  std::mutex stats_mu;
  std::size_t solver_failures = 0, fallback_columns = 0;

  // One chunk = one worker's contiguous range of groups, with chunk-local
  // scratch. Each group solves its local problem once on the
  // representative's observation selection and applies the resulting weight
  // matrix to every member column; groups touch disjoint xaT rows, so the
  // result is bitwise identical for any thread count. With lane_batch the
  // chunk packs same-size groups into SIMD lane batches (solve_batch below);
  // every lane reproduces the sequential arithmetic exactly, so the packing
  // is bitwise invisible.
  const auto solve_groups = [&](std::size_t gr_begin, std::size_t gr_end) {
    const auto& dk = simd::active_dense_kernels();
    std::vector<std::int32_t> sel_idx_l;
    std::vector<double> sel_w_l;
    std::vector<double> yT, yTw, wi;
    Tensor amat({m, m}), vmat;
    std::vector<double> evals;
    std::vector<double> cd(m), vtcd(m), wbar(m), wb(m), isq(m), acc(m);
    std::vector<double> vT(m * m), usT(m * m), wmat(m * m);
    // Lane-batched scratch: lane-interleaved SoA, one problem per Vec lane.
    constexpr std::size_t W = simd::kLaneBatch;
    std::array<std::vector<std::int32_t>, W> sel_idx_b;
    std::array<std::vector<double>, W> sel_w_b;
    std::vector<double> yTb, yTwb, weffb, wib;
    std::vector<double> amatb(m * m * W), vb(m * m * W), wlb(m * W);
    std::vector<double> cdb(m * W), vtcdb(m * W), wbarb(m * W), wbb(m * W), isqb(m * W),
        accb(m * W), xbTb(m * W), xaTb(m * W);
    std::vector<double> vTb(m * m * W), usTb(m * m * W), wmatb(m * m * W);
    tensor::EighInfo einfos[W];
    tensor::EighBatchScratch eigh_scratch;
    std::vector<std::uint32_t> batch_order, rest;
    std::size_t loc_batched_cols = 0, loc_scalar_cols = 0;
    LetkfTimings pt;
    WallTimer ph;
    std::size_t loc_failures = 0, loc_fallback_cols = 0;
    auto& tc = telemetry::TraceCollector::instance();
    const std::uint64_t chunk_t0 = tr ? tc.now_ns() : 0;

    const auto solve_one = [&](std::size_t gr) {
      const std::uint32_t* cols = plan.group_cols.data() + plan.group_off[gr];
      const std::size_t ncols = plan.group_off[gr + 1] - plan.group_off[gr];
      const std::size_t rep = cols[0];

      // Local observation selection: materialized list or template walk.
      if (tm) ph.reset();
      const std::int32_t* sidx;
      const double* sw;
      std::size_t pl;
      if (plan.materialized) {
        sidx = plan.sel_idx.data() + plan.col_off[rep];
        sw = plan.sel_w.data() + plan.col_off[rep];
        pl = static_cast<std::size_t>(plan.col_off[rep + 1] - plan.col_off[rep]);
      } else {
        sel_idx_l.clear();
        sel_w_l.clear();
        plan.for_each(rep, [&](std::int32_t o, double wv) {
          sel_idx_l.push_back(o);
          sel_w_l.push_back(wv);
        });
        sidx = sel_idx_l.data();
        sw = sel_w_l.data();
        pl = sel_idx_l.size();
      }
      if (tm) pt.select_ms += ph.milliseconds();

      if (pl == 0) {  // no usable obs: analysis = forecast
        if (tm) ph.reset();
        for (std::size_t ci = 0; ci < ncols; ++ci) {
          const std::size_t g = cols[ci];
          dk.scale_shift(&xaT(g, 0), &xbT(g, 0), m, 1.0, xbar[g]);
        }
        if (tm) pt.combine_ms += ph.milliseconds();
        return;
      }

      // Gather local Yb^T rows (contiguous m-vectors), the R-localized
      // copies, and the weighted innovations.
      if (tm) ph.reset();
      yT.resize(pl * m);
      yTw.resize(pl * m);
      wi.resize(pl);
      for (std::size_t o = 0; o < pl; ++o) {
        const auto oidx = static_cast<std::size_t>(sidx[o]);
        std::memcpy(&yT[o * m], &yensT(oidx, 0), m * sizeof(double));
        // QC enters here rather than in the plan: the effective weight of a
        // masked observation is 0 (exact excision) and r_scale uniformly
        // deflates R^{-1}, so the cached network plan stays valid. With
        // default options w_eff == sw[o] bitwise (inv_r_scale is exactly 1).
        const double w_eff =
            (mask != nullptr && mask[oidx] == 0) ? 0.0 : sw[o] * inv_r_scale;
        dk.scale(&yTw[o * m], &yT[o * m], m, w_eff);
        wi[o] = w_eff * innov[oidx];
      }
      if (tm) pt.gather_ms += ph.milliseconds();

      // A = (m-1) I + Yb^T Rloc^{-1} Yb, upper triangle row by row.
      if (tm) ph.reset();
      for (std::size_t a = 0; a < m; ++a) {
        std::fill_n(&amat(a, a), m - a, 0.0);
        dk.accum_rows(&amat(a, a), yTw.data() + a, m, yT.data() + a, m, pl, m - a);
      }
      for (std::size_t a = 0; a < m; ++a) {
        amat(a, a) += static_cast<double>(m - 1);
        for (std::size_t b = a + 1; b < m; ++b) amat(b, a) = amat(a, b);
      }
      if (tm) pt.gram_ms += ph.milliseconds();

      // A non-convergent local solve never crosses a thread boundary as an
      // exception: with fallback enabled the group keeps its forecast and
      // cycling continues; otherwise the rethrow is marshalled by
      // parallel_for to the calling thread, and xaT is simply discarded.
      if (tm) ph.reset();
      bool solved = true;
      try {
        tensor::jacobi_eigh(amat, vmat, evals, cfg_.eigh_max_sweeps);
      } catch (const Error&) {
        if (!cfg_.eigh_fallback) throw;
        solved = false;
      }
      if (tm) pt.eigh_ms += ph.milliseconds();
      if (!solved) {
        ++loc_failures;
        loc_fallback_cols += ncols;
        for (std::size_t ci = 0; ci < ncols; ++ci) {
          const std::size_t g = cols[ci];
          dk.scale_shift(&xaT(g, 0), &xbT(g, 0), m, 1.0, xbar[g]);
        }
        return;
      }

      // Ensemble-space weights: wbar = V diag(1/l) V^T C innov and
      // wmat(k, i) = (V wbar)_k + sqrt(m-1) sum_a V(k,a) V(i,a) / sqrt(l_a).
      if (tm) ph.reset();
      std::fill(cd.begin(), cd.end(), 0.0);
      dk.accum_rows(cd.data(), wi.data(), 1, yT.data(), m, pl, m);
      std::fill(vtcd.begin(), vtcd.end(), 0.0);
      dk.accum_rows(vtcd.data(), cd.data(), 1, vmat.data(), m, m, m);
      for (std::size_t a = 0; a < m; ++a) {
        wbar[a] = vtcd[a] / evals[a];
        isq[a] = 1.0 / std::sqrt(evals[a]);
      }
      for (std::size_t a = 0; a < m; ++a) {
        double* dst = &vT[a * m];
        for (std::size_t i = 0; i < m; ++i) dst[i] = vmat(i, a);
      }
      std::fill(wb.begin(), wb.end(), 0.0);
      dk.accum_rows(wb.data(), wbar.data(), 1, vT.data(), m, m, m);
      for (std::size_t a = 0; a < m; ++a) dk.scale(&usT[a * m], &vT[a * m], m, isq[a]);
      for (std::size_t k = 0; k < m; ++k) {
        std::fill(acc.begin(), acc.end(), 0.0);
        dk.accum_rows(acc.data(), &vmat(k, 0), 1, usT.data(), m, m, m);
        dk.scale_shift(&wmat[k * m], acc.data(), m, sqm1, wb[k]);
      }
      if (tm) pt.weights_ms += ph.milliseconds();

      // Posterior combine for every member column of the group:
      // xa(:, g) = xbar[g] + wmat^T Xb(:, g).
      if (tm) ph.reset();
      for (std::size_t ci = 0; ci < ncols; ++ci) {
        const std::size_t g = cols[ci];
        std::fill(acc.begin(), acc.end(), 0.0);
        dk.accum_rows(acc.data(), &xbT(g, 0), 1, wmat.data(), m, m, m);
        dk.scale_shift(&xaT(g, 0), acc.data(), m, 1.0, xbar[g]);
      }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    // Lane-batched solve of kLaneBatch groups with identical local problem
    // size pl: the solve_one phase sequence with every per-problem kernel
    // replaced by its lane-batched counterpart. Each lane executes the exact
    // sequential IEEE operation sequence, so routing a group through here
    // never changes its bits.
    const auto solve_batch = [&](const std::uint32_t* grs, std::size_t pl) {
      if (tm) ph.reset();
      const std::int32_t* sidx[W];
      const double* sw[W];
      const std::uint32_t* colsl[W];
      std::size_t ncolsl[W];
      for (std::size_t l = 0; l < W; ++l) {
        const std::uint32_t gr = grs[l];
        colsl[l] = plan.group_cols.data() + plan.group_off[gr];
        ncolsl[l] = plan.group_off[gr + 1] - plan.group_off[gr];
        const std::uint32_t rep = colsl[l][0];
        if (plan.materialized) {
          sidx[l] = plan.sel_idx.data() + plan.col_off[rep];
          sw[l] = plan.sel_w.data() + plan.col_off[rep];
        } else {
          sel_idx_b[l].clear();
          sel_w_b[l].clear();
          plan.for_each(rep, [&](std::int32_t o, double wv) {
            sel_idx_b[l].push_back(o);
            sel_w_b[l].push_back(wv);
          });
          sidx[l] = sel_idx_b[l].data();
          sw[l] = sel_w_b[l].data();
        }
      }
      if (tm) pt.select_ms += ph.milliseconds();

      // Gather the four columns' local rows lane-interleaved.
      if (tm) ph.reset();
      yTb.resize(pl * m * W);
      yTwb.resize(pl * m * W);
      weffb.resize(pl * W);
      wib.resize(pl * W);
      for (std::size_t o = 0; o < pl; ++o) {
        for (std::size_t l = 0; l < W; ++l) {
          const auto oidx = static_cast<std::size_t>(sidx[l][o]);
          const double* src = &yensT(oidx, 0);
          double* dst = &yTb[o * m * W + l];
          for (std::size_t k = 0; k < m; ++k) dst[k * W] = src[k];
          const double w_eff =
              (mask != nullptr && mask[oidx] == 0) ? 0.0 : sw[l][o] * inv_r_scale;
          weffb[o * W + l] = w_eff;
          wib[o * W + l] = w_eff * innov[oidx];
        }
        dk.bscale(&yTwb[o * m * W], &yTb[o * m * W], m, &weffb[o * W]);
      }
      if (tm) pt.gather_ms += ph.milliseconds();

      // Gram, upper triangle row by row — one Vec op per element keeps all
      // lanes busy even on the short row tails.
      if (tm) ph.reset();
      for (std::size_t a = 0; a < m; ++a) {
        std::fill_n(&amatb[(a * m + a) * W], (m - a) * W, 0.0);
        dk.baccum_rows(&amatb[(a * m + a) * W], &yTwb[a * W], m, &yTb[a * W], m, pl, m - a);
      }
      for (std::size_t a = 0; a < m; ++a) {
        for (std::size_t l = 0; l < W; ++l)
          amatb[(a * m + a) * W + l] += static_cast<double>(m - 1);
        for (std::size_t b = a + 1; b < m; ++b)
          for (std::size_t l = 0; l < W; ++l)
            amatb[(b * m + a) * W + l] = amatb[(a * m + b) * W + l];
      }
      if (tm) pt.gram_ms += ph.milliseconds();

      // Masked lane-batched eigensolve; per-lane non-convergence follows the
      // sequential fallback policy.
      if (tm) ph.reset();
      tensor::jacobi_eigh_batch(amatb.data(), m, W, vb.data(), wlb.data(), cfg_.eigh_max_sweeps,
                                einfos, &eigh_scratch);
      if (tm) pt.eigh_ms += ph.milliseconds();
      bool fell[W];
      for (std::size_t l = 0; l < W; ++l) {
        fell[l] = !einfos[l].converged;
        if (fell[l])
          TURBDA_REQUIRE(cfg_.eigh_fallback,
                         "jacobi_eigh: not converged after "
                             << einfos[l].sweeps << " sweeps (off-diagonal Frobenius "
                             << einfos[l].off_fro << ")");
      }

      // Weights for all lanes (non-converged lanes hold the benign identity
      // eigensystem; their results are discarded below).
      if (tm) ph.reset();
      std::fill(cdb.begin(), cdb.end(), 0.0);
      dk.baccum_rows(cdb.data(), wib.data(), 1, yTb.data(), m, pl, m);
      std::fill(vtcdb.begin(), vtcdb.end(), 0.0);
      dk.baccum_rows(vtcdb.data(), cdb.data(), 1, vb.data(), m, m, m);
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t l = 0; l < W; ++l) {
          wbarb[a * W + l] = vtcdb[a * W + l] / wlb[a * W + l];
          isqb[a * W + l] = 1.0 / std::sqrt(wlb[a * W + l]);
        }
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t l = 0; l < W; ++l) vTb[(a * m + i) * W + l] = vb[(i * m + a) * W + l];
      std::fill(wbb.begin(), wbb.end(), 0.0);
      dk.baccum_rows(wbb.data(), wbarb.data(), 1, vTb.data(), m, m, m);
      for (std::size_t a = 0; a < m; ++a)
        dk.bscale(&usTb[a * m * W], &vTb[a * m * W], m, &isqb[a * W]);
      for (std::size_t k = 0; k < m; ++k) {
        std::fill(accb.begin(), accb.end(), 0.0);
        dk.baccum_rows(accb.data(), &vb[k * m * W], 1, usTb.data(), m, m, m);
        dk.bscale_shift(&wmatb[k * m * W], accb.data(), m, sqm1, &wbb[k * W]);
      }
      if (tm) pt.weights_ms += ph.milliseconds();

      // Posterior combine, lanes advancing through their column lists in
      // lockstep; exhausted lanes recompute their last column into scratch
      // and skip the scatter.
      if (tm) ph.reset();
      double xbarb[W] = {0.0, 0.0, 0.0, 0.0};
      std::size_t max_nc = 0;
      for (std::size_t l = 0; l < W; ++l)
        if (!fell[l]) max_nc = std::max(max_nc, ncolsl[l]);
      for (std::size_t ci = 0; ci < max_nc; ++ci) {
        for (std::size_t l = 0; l < W; ++l) {
          if (fell[l] || ci >= ncolsl[l]) continue;
          const std::size_t g = colsl[l][ci];
          for (std::size_t k = 0; k < m; ++k) xbTb[k * W + l] = xbT(g, k);
          xbarb[l] = xbar[g];
        }
        std::fill(accb.begin(), accb.end(), 0.0);
        dk.baccum_rows(accb.data(), xbTb.data(), 1, wmatb.data(), m, m, m);
        dk.bscale_shift(xaTb.data(), accb.data(), m, 1.0, xbarb);
        for (std::size_t l = 0; l < W; ++l) {
          if (fell[l] || ci >= ncolsl[l]) continue;
          const std::size_t g = colsl[l][ci];
          for (std::size_t k = 0; k < m; ++k) xaT(g, k) = xaTb[k * W + l];
        }
      }
      // Non-converged lanes keep the forecast, exactly like solve_one.
      for (std::size_t l = 0; l < W; ++l) {
        if (!fell[l]) continue;
        ++loc_failures;
        loc_fallback_cols += ncolsl[l];
        for (std::size_t ci = 0; ci < ncolsl[l]; ++ci) {
          const std::size_t g = colsl[l][ci];
          dk.scale_shift(&xaT(g, 0), &xbT(g, 0), m, 1.0, xbar[g]);
        }
      }
      if (tm) pt.combine_ms += ph.milliseconds();
    };

    const auto group_pl = [&](std::uint32_t gr) {
      return plan.col_pl[plan.group_cols[plan.group_off[gr]]];
    };
    if (cfg_.lane_batch) {
      // Pack this chunk's groups into full lane batches of identical local
      // problem size; each size run's tail and empty selections take the
      // sequential path. Lane results never depend on what shares a batch,
      // so any chunking or packing yields identical bits.
      batch_order.clear();
      rest.clear();
      for (std::size_t gr = gr_begin; gr < gr_end; ++gr) {
        if (group_pl(static_cast<std::uint32_t>(gr)) == 0)
          rest.push_back(static_cast<std::uint32_t>(gr));
        else
          batch_order.push_back(static_cast<std::uint32_t>(gr));
      }
      std::sort(batch_order.begin(), batch_order.end(), [&](std::uint32_t a, std::uint32_t b) {
        const std::uint32_t pa = group_pl(a), pb = group_pl(b);
        return pa != pb ? pa < pb : a < b;
      });
      std::size_t i = 0;
      while (i < batch_order.size()) {
        const std::uint32_t pl_run = group_pl(batch_order[i]);
        std::size_t run_end = i + 1;
        while (run_end < batch_order.size() && group_pl(batch_order[run_end]) == pl_run)
          ++run_end;
        std::size_t b = i;
        for (; b + W <= run_end; b += W) {
          solve_batch(&batch_order[b], pl_run);
          for (std::size_t l = 0; l < W; ++l) {
            const std::uint32_t gr = batch_order[b + l];
            loc_batched_cols += plan.group_off[gr + 1] - plan.group_off[gr];
          }
        }
        for (; b < run_end; ++b) rest.push_back(batch_order[b]);
        i = run_end;
      }
      for (const std::uint32_t gr : rest) {
        loc_scalar_cols += plan.group_off[gr + 1] - plan.group_off[gr];
        solve_one(gr);
      }
    } else {
      for (std::size_t gr = gr_begin; gr < gr_end; ++gr) {
        loc_scalar_cols += plan.group_off[gr + 1] - plan.group_off[gr];
        solve_one(gr);
      }
    }

    if (loc_failures != 0) {
      const std::lock_guard<std::mutex> lock(stats_mu);
      solver_failures += loc_failures;
      fallback_columns += loc_fallback_cols;
    }
    if (tm_cfg) {
      const std::lock_guard<std::mutex> lock(tm_mu);
      timings_.select_ms += pt.select_ms;
      timings_.gather_ms += pt.gather_ms;
      timings_.gram_ms += pt.gram_ms;
      timings_.eigh_ms += pt.eigh_ms;
      timings_.weights_ms += pt.weights_ms;
      timings_.combine_ms += pt.combine_ms;
      timings_.batched_columns += loc_batched_cols;
      timings_.scalar_columns += loc_scalar_cols;
    }
    if (tr) {
      // Per-group-per-phase spans would be far too hot (thousands of groups
      // x 6 phases per chunk); instead emit one chunk span plus synthetic
      // children holding the chunk's aggregated per-phase totals, laid out
      // sequentially from the chunk start (their sum is bounded by the chunk
      // duration, so the trace viewer nests them inside it).
      const std::uint64_t chunk_t1 = tc.now_ns();
      tc.complete("letkf.solve_groups", chunk_t0, chunk_t1 - chunk_t0);
      std::uint64_t at = chunk_t0;
      const auto emit = [&](const char* phase_name, double phase_ms) {
        if (phase_ms <= 0.0) return;
        const auto ns = static_cast<std::uint64_t>(phase_ms * 1e6);
        tc.complete(phase_name, at, ns);
        at += ns;
      };
      emit("letkf.select", pt.select_ms);
      emit("letkf.gather", pt.gather_ms);
      emit("letkf.gram", pt.gram_ms);
      emit("letkf.eigh", pt.eigh_ms);
      emit("letkf.weights", pt.weights_ms);
      emit("letkf.combine", pt.combine_ms);
    }
  };

  try {
    parallel::parallel_for(n_groups, solve_groups, std::max<std::size_t>(1, cfg_.nx / 2),
                           cfg_.n_threads);
  } catch (const Error& e) {
    // eigh_fallback == false: the whole analysis fails, ensemble untouched.
    return Status(StatusCode::kNonConvergent, e.what());
  }
  if (stats != nullptr) {
    stats->solver_failures = solver_failures;
    stats->fallback_columns = fallback_columns;
  }

  // Write the analysis back member-major.
  parallel::parallel_for(
      d,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = 0; k < m; ++k) {
          auto row = ens.member(k);
          for (std::size_t g = b; g < e; ++g) row[g] = xaT(g, k);
        }
      },
      4096, cfg_.n_threads);

  // RTPS inflation: relax analysis spread toward the prior spread.
  if (cfg_.rtps > 0.0) {
    const auto post_sd = ens.stddev();
    const auto mu = ens.mean();
    for (std::size_t i = 0; i < d; ++i) {
      if (post_sd[i] <= 1e-12) continue;
      const double scale = 1.0 + cfg_.rtps * (prior_sd[i] - post_sd[i]) / post_sd[i];
      for (std::size_t k = 0; k < m; ++k) {
        auto row = ens.member(k);
        row[i] = mu[i] + (row[i] - mu[i]) * scale;
      }
    }
  }

  if (tm_cfg) {
    timings_.total_ms += t_total.milliseconds();
    timings_.analyses += 1;
    timings_.columns += d;
    timings_.groups += n_groups;
  }
  {
    static telemetry::Histogram& h_letkf =
        telemetry::MetricsRegistry::global().histogram("turbda_letkf_analyze_ms");
    h_letkf.observe(t_total.milliseconds());
  }
  return Status::Ok();
}

}  // namespace turbda::da
