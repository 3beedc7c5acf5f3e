#include "warehouse/stages.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace loam::warehouse {

std::vector<int> StageGraph::topological_order() const {
  std::vector<int> indegree(stages.size(), 0);
  for (const Stage& s : stages) {
    (void)s;
  }
  std::vector<std::vector<int>> downstream(stages.size());
  for (const Stage& s : stages) {
    for (int u : s.upstream) {
      downstream[static_cast<std::size_t>(u)].push_back(s.id);
      ++indegree[static_cast<std::size_t>(s.id)];
    }
  }
  std::vector<int> ready;
  for (const Stage& s : stages) {
    if (indegree[static_cast<std::size_t>(s.id)] == 0) ready.push_back(s.id);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    const int s = ready.back();
    ready.pop_back();
    order.push_back(s);
    for (int d : downstream[static_cast<std::size_t>(s)]) {
      if (--indegree[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  return order;
}

StageGraph decompose_into_stages(Plan& plan, const StageDecomposerConfig& config) {
  StageGraph graph;
  if (plan.root() < 0) return graph;

  auto new_stage = [&graph]() {
    Stage s;
    s.id = graph.stage_count();
    graph.stages.push_back(s);
    return s.id;
  };

  // Walk down from the root; an Exchange's child starts a fresh stage that
  // the current (consumer) stage depends on. `n` is held across the
  // recursion: only the first mutable_node() can clone copy-on-write nodes
  // the plan shares, and it runs before any reference is taken, so later
  // calls return references into the same storage.
  std::function<void(int, int)> assign = [&](int node_id, int stage_id) {
    PlanNode& n = plan.mutable_node(node_id);
    n.stage = stage_id;
    graph.stages[static_cast<std::size_t>(stage_id)].node_ids.push_back(node_id);
    if (is_exchange(n.op)) {
      if (n.left >= 0) {
        const int child_stage = new_stage();
        graph.stages[static_cast<std::size_t>(stage_id)].upstream.push_back(child_stage);
        assign(n.left, child_stage);
      }
      return;
    }
    if (n.left >= 0) assign(n.left, stage_id);
    if (n.right >= 0) assign(n.right, stage_id);
  };

  assign(plan.root(), new_stage());

  // Input volume and parallelism per stage: rows entering through scans,
  // spool reads and exchange receivers.
  for (Stage& s : graph.stages) {
    double rows = 0.0;
    for (int id : s.node_ids) {
      const PlanNode& n = plan.node(id);
      if (n.op == OpType::kTableScan || n.op == OpType::kSpoolRead ||
          is_exchange(n.op)) {
        rows += n.true_rows;
      }
    }
    s.input_rows = rows;
    s.parallelism = std::clamp(
        static_cast<int>(std::ceil(rows / config.rows_per_instance)), 1,
        config.max_parallelism);
  }
  return graph;
}

}  // namespace loam::warehouse
