// Final coverage sweep over small API surfaces not exercised elsewhere.

#include <gtest/gtest.h>

#include "impeccable/chem/diversity.hpp"
#include "impeccable/chem/fingerprint.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace chem = impeccable::chem;
namespace rct = impeccable::rct;
namespace hpc = impeccable::hpc;
namespace stats = impeccable::common;

TEST(MiscDiversity, MaxMinIsDeterministicPerSeed) {
  std::vector<chem::BitSet> fps;
  for (const char* s : {"CCO", "CCCO", "c1ccccc1", "c1ccncc1", "CC(=O)O"})
    fps.push_back(chem::morgan_fingerprint(chem::parse_smiles(s)));
  EXPECT_EQ(chem::maxmin_pick(fps, 3, 7), chem::maxmin_pick(fps, 3, 7));
}

TEST(MiscStats, SpearmanAndPearsonRejectMismatch) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 2};
  EXPECT_THROW((void)stats::pearson(a, b), std::invalid_argument);
  EXPECT_THROW((void)stats::spearman(a, b), std::invalid_argument);
}

TEST(MiscStats, HistogramTextHasOneLinePerBin) {
  stats::Histogram h(0, 10, 4);
  h.add(1);
  h.add(9);
  const auto text = h.to_text();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(MiscMachine, SpecsExposeTotals) {
  const auto s = hpc::summit(10);
  EXPECT_EQ(s.total_gpus(), 60);
  EXPECT_EQ(s.total_cores(), 420);
  const auto f = hpc::frontera(3);
  EXPECT_EQ(f.total_gpus(), 0);
  EXPECT_EQ(f.total_cores(), 168);
}

TEST(MiscEntk, MakespanAndEmptyPipelines) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend);
  // Zero pipelines and an all-empty pipeline both complete trivially.
  EXPECT_TRUE(mgr.run({}).results.empty());
  rct::Pipeline p("empty");
  p.add_stage({"nothing", {}, nullptr});
  const auto report = mgr.run({std::move(p)});
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.failed(), 0u);
}

TEST(MiscEntk, TaskStateNames) {
  EXPECT_STREQ(rct::to_string(rct::TaskState::New), "NEW");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Done), "DONE");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Failed), "FAILED");
}

TEST(MiscSmiles, CanonicalSmilesOfGeneratedLibraryIsStable) {
  // write(parse(write(mol))) == write(mol) — idempotence over a sample.
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto mol = chem::generate_compound(4242, i);
    const auto once = chem::write_smiles(mol);
    EXPECT_EQ(chem::canonical_smiles(once), once);
  }
}
