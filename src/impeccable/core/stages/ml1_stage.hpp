#pragma once
// ML1 — surrogate retrain + library-wide inference, then selection of the
// docking candidates (top slice + exploration sample) in the merge step.

#include <memory>

#include "impeccable/core/stages/stage.hpp"

namespace impeccable::core::stages {

class Ml1Stage : public Stage {
 public:
  Ml1Stage(int iteration, std::shared_ptr<IterationScratch> scratch)
      : iter_(iteration), s_(std::move(scratch)) {}

  const char* name() const override { return "ML1"; }
  std::vector<rct::TaskDescription> build(CampaignState& cs) override;
  void merge(CampaignState& cs) override;

 private:
  int iter_;
  std::shared_ptr<IterationScratch> s_;
};

}  // namespace impeccable::core::stages
