// google-benchmark microbenchmarks of the hot kernels behind every stage:
// docking pose evaluation (with and without gradients), MD steps, conv2d
// forward, fingerprints, SMILES parsing, cell-list construction, Chamfer
// loss and LOF. These are the per-work-unit costs that the Table 2/3
// cost models scale up.

#include <benchmark/benchmark.h>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/dock/score.hpp"
#include "impeccable/md/integrator.hpp"
#include "impeccable/md/system.hpp"
#include "impeccable/chem/scaffold.hpp"
#include "impeccable/chem/substructure.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/ml/lof.hpp"
#include "impeccable/ml/loss.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/ml/tensor.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace md = impeccable::md;
namespace ml = impeccable::ml;
using impeccable::common::Rng;

namespace {

const dock::AffinityGrid& shared_grid() {
  static const auto grid = [] {
    return dock::compute_grid(dock::Receptor::synthesize("bench", 1));
  }();
  return *grid;
}

}  // namespace

static void BM_DockEvaluate(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(shared_grid(), lig);
  Rng rng(1);
  const auto pose = lig.random_pose(shared_grid().pocket_center, 3.0, rng);
  for (auto _ : state) benchmark::DoNotOptimize(score.evaluate(pose));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DockEvaluate);

static void BM_DockEvaluateWithGradient(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  const dock::Ligand lig(mol);
  const dock::ScoringFunction score(shared_grid(), lig);
  Rng rng(1);
  const auto pose = lig.random_pose(shared_grid().pocket_center, 3.0, rng);
  dock::PoseGradient grad;
  for (auto _ : state)
    benchmark::DoNotOptimize(score.evaluate_with_gradient(pose, grad));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DockEvaluateWithGradient);

static void BM_MdStep(benchmark::State& state) {
  md::ProteinOptions popts;
  popts.residues = static_cast<int>(state.range(0));
  const auto protein = md::build_protein(3, popts);
  const auto mol = chem::parse_smiles("CCOc1ccc(N)cc1");
  const dock::Ligand lig(mol);
  const auto lpc = md::build_lpc(protein, mol, lig.reference_coords());
  const md::ForceField ff(lpc.topology);
  md::LangevinIntegrator integ(ff, {}, 1);
  auto pos = lpc.positions;
  std::vector<impeccable::common::Vec3> vel;
  integ.thermalize(vel);
  for (auto _ : state) integ.run(pos, vel, 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MdStep)->Arg(60)->Arg(120)->Arg(240);

static void BM_SurrogateInference(benchmark::State& state) {
  ml::SurrogateModel model;
  const auto img = chem::depict(chem::parse_smiles("CC(=O)Oc1ccccc1C(=O)O"));
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(img));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SurrogateInference);

static void BM_SmilesParse(benchmark::State& state) {
  const std::string s = "CC(C)Cc1ccc(cc1)C(C)C(=O)O";
  for (auto _ : state) benchmark::DoNotOptimize(chem::parse_smiles(s));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SmilesParse);

static void BM_MorganFingerprint(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  for (auto _ : state) benchmark::DoNotOptimize(chem::morgan_fingerprint(mol));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MorganFingerprint);

static void BM_Depiction(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  for (auto _ : state) benchmark::DoNotOptimize(chem::depict(mol));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Depiction);

static void BM_CellListBuild(benchmark::State& state) {
  Rng rng(5);
  std::vector<impeccable::common::Vec3> pos;
  for (int i = 0; i < state.range(0); ++i)
    pos.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)});
  md::CellList cl;
  for (auto _ : state) {
    cl.build(pos, 10.0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CellListBuild)->Arg(256)->Arg(1024);

static void BM_ChamferLoss(benchmark::State& state) {
  Rng rng(6);
  ml::Tensor a({4, 60, 3}), b({4, 60, 3});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(-3, 3));
    b[i] = static_cast<float>(rng.uniform(-3, 3));
  }
  for (auto _ : state) benchmark::DoNotOptimize(ml::chamfer_loss(a, b));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChamferLoss);

static void BM_Lof(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < state.range(0); ++i)
    pts.push_back({rng.gauss(), rng.gauss(), rng.gauss(), rng.gauss()});
  for (auto _ : state)
    benchmark::DoNotOptimize(ml::local_outlier_factor(pts, 10));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Lof)->Arg(200);

static void BM_LibraryGenerate(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(chem::generate_compound(99, i++));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LibraryGenerate);

static void BM_MurckoScaffold(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)Oc1ccncc1");
  for (auto _ : state) benchmark::DoNotOptimize(chem::murcko_scaffold(mol));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MurckoScaffold);

static void BM_SubstructureMatch(benchmark::State& state) {
  const auto mol = chem::parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O");
  const auto query = chem::parse_smiles("C(=O)O");
  for (auto _ : state)
    benchmark::DoNotOptimize(chem::has_substructure(mol, query));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SubstructureMatch);

static void BM_BlockAverageError(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> series;
  for (int i = 0; i < 1024; ++i) series.push_back(rng.gauss());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        impeccable::common::block_average_error(series));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockAverageError);
