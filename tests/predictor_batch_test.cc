// Batched ranker inference must be a pure throughput optimisation: scoring a
// candidate set with one packed forward pass returns the same numbers as
// scoring plan by plan. Exercised over ragged batch sizes — a single plan,
// a typical top_k set, more-than-top_k, and the empty set — for the adaptive
// predictor, the baseline CostModel default path, and the GBDT project ranker.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/predictor.h"
#include "core/selector.h"

namespace loam::core {
namespace {

nn::Tree make_tree(Rng& rng, int dim) {
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 6));
  nn::Tree t;
  t.features = nn::Mat(n, dim);
  t.left.assign(static_cast<std::size_t>(n), -1);
  t.right.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (2 * i + 1 < n) t.left[static_cast<std::size_t>(i)] = 2 * i + 1;
    if (2 * i + 2 < n) t.right[static_cast<std::size_t>(i)] = 2 * i + 2;
    for (int j = 0; j < dim; ++j) {
      t.features.at(i, j) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
  }
  t.root = 0;
  return t;
}

std::vector<TrainingExample> make_training(Rng& rng, int dim, int count) {
  std::vector<TrainingExample> out;
  for (int i = 0; i < count; ++i) {
    TrainingExample ex;
    ex.tree = make_tree(rng, dim);
    double cost = 60.0;
    for (int j = 0; j < dim; ++j) {
      cost += 30.0 * ex.tree.features.at(0, j) * (j + 1);
    }
    ex.cpu_cost = cost;
    out.push_back(std::move(ex));
  }
  return out;
}

class PredictorBatch : public ::testing::Test {
 protected:
  static constexpr int kDim = 8;

  void SetUp() override {
    Rng rng(915);
    train_ = make_training(rng, kDim, 120);
    for (int i = 0; i < 20; ++i) probes_.push_back(make_tree(rng, kDim));
  }

  // Batch sizes from the ISSUE: single plan, top_k, beyond top_k, empty.
  std::vector<std::size_t> ragged_sizes() const { return {1, 5, 9, 0}; }

  void expect_batch_matches(const CostModel& model) const {
    std::size_t cursor = 0;
    for (std::size_t size : ragged_sizes()) {
      std::vector<nn::Tree> batch;
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back(probes_[(cursor + i) % probes_.size()]);
      }
      cursor += size;
      const std::vector<double> batched = model.predict_batch(batch);
      ASSERT_EQ(batched.size(), batch.size()) << model.name();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double single = model.predict(batch[i]);
        EXPECT_NEAR(batched[i], single, 1e-9)
            << model.name() << " batch size " << size << " item " << i;
        EXPECT_TRUE(std::isfinite(batched[i]));
      }
    }
  }

  std::vector<TrainingExample> train_;
  std::vector<nn::Tree> probes_;
};

TEST_F(PredictorBatch, AdaptivePredictorBatchedEqualsPerPlan) {
  PredictorConfig cfg;
  cfg.epochs = 6;
  cfg.hidden_dim = 16;
  AdaptiveCostPredictor model(kDim, cfg);
  model.fit(train_, {});
  expect_batch_matches(model);
}

TEST_F(PredictorBatch, EmptyBatchReturnsEmpty) {
  PredictorConfig cfg;
  cfg.epochs = 2;
  AdaptiveCostPredictor model(kDim, cfg);
  model.fit(train_, {});
  EXPECT_TRUE(model.predict_batch({}).empty());
}

TEST_F(PredictorBatch, BatchedScoringIsRepeatable) {
  // Two identical batched calls agree bit-for-bit (the packed forward pass
  // must not depend on leftover layer caches).
  PredictorConfig cfg;
  cfg.epochs = 4;
  AdaptiveCostPredictor model(kDim, cfg);
  model.fit(train_, {});
  std::vector<nn::Tree> batch(probes_.begin(), probes_.begin() + 7);
  const std::vector<double> a = model.predict_batch(batch);
  const std::vector<double> b = model.predict_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(PredictorBatch, TrainingBitIdenticalAcrossThreadCounts) {
  // Sharded data-parallel training is a throughput knob only: minibatches
  // decompose over a FIXED shard count and gradients reduce in shard order,
  // so the fitted weights are bit-identical for every num_threads. Candidate
  // plans are passed so the adversarial (GRL + DomClf) path is exercised too.
  std::vector<std::vector<float>> weights_by_run;
  for (int nt : {1, 2, 8}) {
    PredictorConfig cfg;
    cfg.epochs = 4;
    cfg.hidden_dim = 16;
    cfg.num_threads = nt;
    AdaptiveCostPredictor model(kDim, cfg);
    model.fit(train_, probes_);
    std::vector<float> flat;
    for (const nn::Parameter* p : model.parameters()) {
      flat.insert(flat.end(), p->value.data(),
                  p->value.data() + p->value.size());
    }
    weights_by_run.push_back(std::move(flat));
  }
  ASSERT_EQ(weights_by_run.size(), 3u);
  for (std::size_t run = 1; run < weights_by_run.size(); ++run) {
    ASSERT_EQ(weights_by_run[run].size(), weights_by_run[0].size());
    for (std::size_t i = 0; i < weights_by_run[0].size(); ++i) {
      // EXPECT_EQ on floats: exact bitwise agreement, not a tolerance.
      ASSERT_EQ(weights_by_run[run][i], weights_by_run[0][i])
          << "weight " << i << " differs between num_threads=1 and run " << run;
    }
  }
}

TEST_F(PredictorBatch, BaselineDefaultBatchEqualsPerPlan) {
  // Baselines inherit CostModel::predict_batch_ptrs's loop-over-predict
  // default (predict_batch forwards to it);
  // the contract (same values, input order) must hold for them too.
  BaselineConfig cfg;
  cfg.epochs = 6;
  cfg.hidden_dim = 16;
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<CostModel> model;
    switch (kind) {
      case 0: model = make_transformer_cost_model(kDim, cfg); break;
      case 1: model = make_gcn_cost_model(kDim, cfg); break;
      default: model = make_xgboost_cost_model(kDim, cfg); break;
    }
    model->fit(train_, {});
    expect_batch_matches(*model);
  }
}

TEST(RankerBatch, EstimateBatchEqualsPerRow) {
  Rng rng(771);
  ProjectRanker ranker;
  std::vector<RankerExample> examples;
  const int dim = ranker.featurizer().feature_dim();
  for (int i = 0; i < 80; ++i) {
    RankerExample ex;
    ex.features.resize(static_cast<std::size_t>(dim));
    double target = 0.0;
    for (int j = 0; j < dim; ++j) {
      ex.features[static_cast<std::size_t>(j)] =
          static_cast<float>(rng.uniform(0.0, 1.0));
      target += ex.features[static_cast<std::size_t>(j)];
    }
    ex.improvement_space = target / dim;
    examples.push_back(std::move(ex));
  }
  ranker.fit(examples);
  for (std::size_t size : {std::size_t{1}, std::size_t{6}, std::size_t{0}}) {
    gbdt::FeatureMatrix rows;
    for (std::size_t i = 0; i < size; ++i) {
      rows.push_back(std::vector<float>(examples[i].features.begin(),
                                        examples[i].features.end()));
    }
    const std::vector<double> batched = ranker.estimate_batch(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_NEAR(batched[i], ranker.estimate(rows[i]), 1e-9);
    }
  }
}

}  // namespace
}  // namespace loam::core
