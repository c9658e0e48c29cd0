#include "impeccable/chem/layout.hpp"

#include <algorithm>
#include <cmath>

#include "impeccable/chem/molecule.hpp"
#include "impeccable/common/rng.hpp"

namespace impeccable::chem {

double ideal_bond_length(const Molecule& mol, int bond_index) {
  const Bond& b = mol.bond(bond_index);
  // Covalent-ish radii derived by scaling vdW radii; shortened for multiple
  // and aromatic bonds.
  const double ra = info(mol.atom(b.a).element).vdw_radius * 0.45;
  const double rb = info(mol.atom(b.b).element).vdw_radius * 0.45;
  double len = ra + rb;
  if (b.aromatic) len *= 0.92;
  else if (b.order == 2) len *= 0.88;
  else if (b.order == 3) len *= 0.80;
  return len;
}

std::vector<Point2> layout_2d(const Molecule& mol, std::uint64_t seed,
                              int iterations) {
  const int n = mol.atom_count();
  const std::size_t atoms = static_cast<std::size_t>(n);
  // Positions and forces live in SoA arrays so the all-pairs repulsion
  // vectorizes; `tx`/`ty` hold one row's pair terms.
  std::vector<double> px(atoms), py(atoms);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < atoms; ++i) {
    px[i] = rng.uniform(-1.0, 1.0);
    py[i] = rng.uniform(-1.0, 1.0);
  }
  if (n == 1) return {{0.0, 0.0}};

  struct Spring {
    std::size_t a, b;
  };
  std::vector<Spring> springs;
  springs.reserve(static_cast<std::size_t>(mol.bond_count()));
  for (int bi = 0; bi < mol.bond_count(); ++bi)
    springs.push_back({static_cast<std::size_t>(mol.bond(bi).a),
                       static_cast<std::size_t>(mol.bond(bi).b)});

  // Fruchterman–Reingold-style iterations with unit ideal bond length.
  const int iters = std::max(1, iterations);
  std::vector<double> fx(atoms), fy(atoms), tx(atoms), ty(atoms);
  for (int it = 0; it < iters; ++it) {
    const double step = 0.12 * (1.0 - static_cast<double>(it) / iters) + 0.01;
    std::fill(fx.begin(), fx.end(), 0.0);
    std::fill(fy.begin(), fy.end(), 0.0);
    // Repulsion between all pairs. Row i's terms are computed in one vector
    // loop that also subtracts them from force[j]; adding them to force[i]
    // afterwards in ascending j keeps every force's order of summation, so
    // the result is bitwise that of the scalar pair loop.
    for (std::size_t i = 0; i < atoms; ++i) {
      const double xi = px[i], yi = py[i];
#pragma omp simd
      for (std::size_t j = i + 1; j < atoms; ++j) {
        const double dx = xi - px[j];
        const double dy = yi - py[j];
        const double d2 = dx * dx + dy * dy + 1e-6;
        const double f = 0.35 / d2;
        const double d = std::sqrt(d2);
        const double ux = f * (dx / d);
        const double uy = f * (dy / d);
        tx[j] = ux;
        ty[j] = uy;
        fx[j] -= ux;
        fy[j] -= uy;
      }
      double sx = fx[i], sy = fy[i];
      for (std::size_t j = i + 1; j < atoms; ++j) {
        sx += tx[j];
        sy += ty[j];
      }
      fx[i] = sx;
      fy[i] = sy;
    }
    // Springs along bonds (ideal length 1).
    for (const Spring& b : springs) {
      double dx = px[b.b] - px[b.a];
      double dy = py[b.b] - py[b.a];
      const double d = std::sqrt(dx * dx + dy * dy) + 1e-9;
      const double f = 1.2 * (d - 1.0);
      dx /= d; dy /= d;
      fx[b.a] += f * dx;
      fy[b.a] += f * dy;
      fx[b.b] -= f * dx;
      fy[b.b] -= f * dy;
    }
    for (std::size_t i = 0; i < atoms; ++i) {
      // Clamp displacement to keep the embedding stable.
      double dx = fx[i], dy = fy[i];
      const double fn = std::sqrt(dx * dx + dy * dy);
      if (fn > 1.0) { dx /= fn; dy /= fn; }
      px[i] += step * dx;
      py[i] += step * dy;
    }
  }

  // Center and scale to unit RMS radius.
  double cx = 0, cy = 0;
  for (std::size_t i = 0; i < atoms; ++i) { cx += px[i]; cy += py[i]; }
  cx /= n; cy /= n;
  double rms = 0;
  std::vector<Point2> pos(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    pos[i] = {px[i] - cx, py[i] - cy};
    rms += pos[i].x * pos[i].x + pos[i].y * pos[i].y;
  }
  rms = std::sqrt(rms / n);
  if (rms > 1e-9)
    for (auto& p : pos) { p.x /= rms; p.y /= rms; }
  return pos;
}

std::vector<common::Vec3> embed_3d(const Molecule& mol, std::uint64_t seed) {
  using common::Vec3;
  const int n = mol.atom_count();
  std::vector<Vec3> pos(static_cast<std::size_t>(n));
  common::Rng rng(seed);

  // Start from the 2D layout scaled to bond-length units, plus z noise to
  // break planarity.
  const auto flat = layout_2d(mol, seed ^ 0xabcdef);
  double mean_bond = 1.5;
  if (mol.bond_count() > 0) {
    mean_bond = 0.0;
    for (int bi = 0; bi < mol.bond_count(); ++bi) mean_bond += ideal_bond_length(mol, bi);
    mean_bond /= mol.bond_count();
  }
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = {flat[static_cast<std::size_t>(i)].x * 2.0 * mean_bond,
                                        flat[static_cast<std::size_t>(i)].y * 2.0 * mean_bond,
                                        rng.uniform(-0.3, 0.3)};
  }
  if (n == 1) return {Vec3{}};

  // 1-3 distance targets from ideal angles (~111 deg for sp3-ish chains).
  struct Pair13 { int a, b; double target; };
  std::vector<Pair13> angles;
  for (int j = 0; j < n; ++j) {
    const auto nbrs = mol.neighbors(j);
    for (std::size_t x = 0; x < nbrs.size(); ++x) {
      for (std::size_t y = x + 1; y < nbrs.size(); ++y) {
        const int a = nbrs[x], c = nbrs[y];
        const double la = ideal_bond_length(mol, mol.bond_between(a, j));
        const double lc = ideal_bond_length(mol, mol.bond_between(c, j));
        const double theta = mol.atom(j).aromatic ? 2.0944 /*120 deg*/ : 1.9373 /*111 deg*/;
        const double target = std::sqrt(la * la + lc * lc - 2 * la * lc * std::cos(theta));
        angles.push_back({a, c, target});
      }
    }
  }

  // Gradient descent on the restraint energy.
  const int iters = 400;
  for (int it = 0; it < iters; ++it) {
    const double step = 0.05 * (1.0 - 0.8 * it / iters);
    std::vector<Vec3> grad(static_cast<std::size_t>(n));

    auto spring = [&](int a, int b, double target, double k) {
      Vec3 d = pos[static_cast<std::size_t>(b)] - pos[static_cast<std::size_t>(a)];
      const double dist = d.norm() + 1e-9;
      const Vec3 u = d / dist;
      const Vec3 g = u * (k * (dist - target));
      grad[static_cast<std::size_t>(a)] -= g;
      grad[static_cast<std::size_t>(b)] += g;
    };

    for (int bi = 0; bi < mol.bond_count(); ++bi)
      spring(mol.bond(bi).a, mol.bond(bi).b, ideal_bond_length(mol, bi), 4.0);
    for (const auto& a13 : angles) spring(a13.a, a13.b, a13.target, 1.5);

    // Soft repulsion between topologically distant pairs.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (mol.bond_between(i, j) >= 0) continue;
        const Vec3 d = pos[static_cast<std::size_t>(j)] - pos[static_cast<std::size_t>(i)];
        const double dist = d.norm() + 1e-9;
        const double rmin = 2.4;
        if (dist < rmin) {
          // Harmonic wall: same convention as spring() with target rmin.
          const Vec3 g = d / dist * (0.8 * (dist - rmin));
          grad[static_cast<std::size_t>(i)] -= g;
          grad[static_cast<std::size_t>(j)] += g;
        }
      }
    }

    for (int i = 0; i < n; ++i)
      pos[static_cast<std::size_t>(i)] -= grad[static_cast<std::size_t>(i)] * step;
  }

  // Center at the origin.
  Vec3 c;
  for (const auto& p : pos) c += p;
  c /= static_cast<double>(n);
  for (auto& p : pos) p -= c;
  return pos;
}

}  // namespace impeccable::chem
