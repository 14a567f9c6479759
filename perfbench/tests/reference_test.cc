// Self-test of the benchmark's reference computations: the subset DP and
// the interval DP against the cost of every bushy tree, listed one by one,
// and the closed-form csg-cmp-pair counts against a brute-force pair count.
// The benchmark trusts these references to judge the optimizer, so they are
// checked here on graphs small enough to enumerate exhaustively.
//
// Run: python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "plan/plan_tree.h"
#include "reference.h"

namespace perfbench {
namespace {

int failures = 0;
int checks = 0;

void Check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

RefSet Set(std::initializer_list<int> nodes) {
  RefSet s;
  for (int v : nodes) s.set(v);
  return s;
}

struct Maker {
  std::mt19937_64 rng;
  explicit Maker(uint64_t seed) : rng(seed) {}

  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  }
  int Below(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); }

  RefGraph Nodes(int n) {
    RefGraph g;
    for (int i = 0; i < n; ++i) g.cardinality.push_back(Uniform(10.0, 10000.0));
    return g;
  }
  void Join(RefGraph& g, RefSet l, RefSet r) {
    g.edges.push_back({l, r, RefSet{}, Uniform(0.001, 0.5), RefOp::kJoin});
  }
  RefGraph Chain(int n) {
    RefGraph g = Nodes(n);
    for (int i = 0; i + 1 < n; ++i) Join(g, Set({i}), Set({i + 1}));
    return g;
  }
  RefGraph Cycle(int n) {
    RefGraph g = Chain(n);
    Join(g, Set({n - 1}), Set({0}));
    return g;
  }
  RefGraph Star(int n) {
    RefGraph g = Nodes(n);
    for (int i = 1; i < n; ++i) Join(g, Set({0}), Set({i}));
    return g;
  }
  RefGraph Clique(int n) {
    RefGraph g = Nodes(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) Join(g, Set({i}), Set({j}));
    }
    return g;
  }
  // A path threaded through the nodes in a shuffled order.
  RefGraph ShuffledPath(int n) {
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    RefGraph g = Nodes(n);
    for (int i = 0; i + 1 < n; ++i) Join(g, Set({order[i]}), Set({order[i + 1]}));
    return g;
  }
  // Random spanning tree, extra edges, and one hyperedge.
  RefGraph RandomHyper(int n) {
    RefGraph g = Nodes(n);
    for (int i = 1; i < n; ++i) Join(g, Set({Below(i)}), Set({i}));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (Uniform(0, 1) < 0.2) Join(g, Set({i}), Set({j}));
      }
    }
    if (n >= 4) Join(g, Set({0, 1}), Set({n - 2, n - 1}));
    return g;
  }
};

void TestOptimaAgainstEveryTree() {
  Maker make(7);
  for (int n = 1; n <= 6; ++n) {
    for (int round = 0; round < 4; ++round) {
      const std::pair<const char*, RefGraph> graphs[] = {
          {"chain", make.Chain(n)},
          {"star", make.Star(n)},
          {"clique", make.Clique(n)},
          {"path", make.ShuffledPath(n)},
          {"hyper", make.RandomHyper(n)},
      };
      for (const auto& [name, g] : graphs) {
        const double every_tree = BruteForceOptimum(g);
        const std::string label = std::string(name) + "-" + std::to_string(n);
        Check(CostsMatch(SubsetDpOptimum(g), every_tree),
              "subset DP on " + label);
        const std::vector<int> path = PathOrder(g);
        const std::string family = name;
        if (family != "hyper") {
          const bool is_path = family == "chain" || family == "path" ||
                               (family == "star" && n <= 3) || n <= 2;
          Check(path.empty() != is_path, "path detection on " + label);
        }
        if (!path.empty()) {
          Check(CostsMatch(IntervalDpOptimum(g, path), every_tree),
                "interval DP on " + label);
        }
      }
      if (n >= 3) {
        const RefGraph cycle = make.Cycle(n);
        Check(CostsMatch(SubsetDpOptimum(cycle), BruteForceOptimum(cycle)),
              "subset DP on cycle-" + std::to_string(n));
        Check(PathOrder(cycle).empty(), "a cycle is not a path");
      }
    }
  }
  // Two components: no cross-product-free tree exists.
  RefGraph split = make.Nodes(4);
  make.Join(split, Set({0}), Set({1}));
  make.Join(split, Set({2}), Set({3}));
  Check(SubsetDpOptimum(split) == BruteForceOptimum(split) &&
            !std::isfinite(SubsetDpOptimum(split)),
        "disconnected graph has no plan");
}

void TestClosedFormPairCounts() {
  Maker make(11);
  for (int n = 1; n <= 10; ++n) {
    const std::string size = std::to_string(n);
    Check(BruteForceCcpCount(make.Chain(n)) == ChainCcpCount(n), "chain-" + size);
    Check(BruteForceCcpCount(make.Star(n)) == StarCcpCount(n), "star-" + size);
    Check(BruteForceCcpCount(make.Clique(n)) == CliqueCcpCount(n), "clique-" + size);
    if (n >= 3) {
      Check(BruteForceCcpCount(make.Cycle(n)) == CycleCcpCount(n), "cycle-" + size);
    }
  }
  // The figures the benchmark checks at full size.
  Check(StarCcpCount(16) == 245760, "star-16 closed form");
  Check(CliqueCcpCount(12) == 261625, "clique-12 closed form");
}

void TestRecost() {
  // ((R0 JOIN R1) JOIN R2) on the chain R0 - R1 - R2.
  RefGraph g;
  g.cardinality = {10.0, 20.0, 30.0};
  g.edges.push_back({Set({0}), Set({1}), RefSet{}, 0.5, RefOp::kJoin});
  g.edges.push_back({Set({1}), Set({2}), RefSet{}, 0.1, RefOp::kJoin});
  dphyp::PlanBuilder builder;
  const auto* r0 = builder.Leaf(0);
  const auto* r1 = builder.Leaf(1);
  const auto* r2 = builder.Leaf(2);
  const auto* j01 = builder.Op(dphyp::OpType::kJoin, r0, r1);
  dphyp::PlanTree plan = builder.Build(builder.Op(dphyp::OpType::kJoin, j01, r2));
  const Recost recost = RecostPlan(g, plan);
  const double expected = 10.0 * 20.0 * 0.5 + 10.0 * 20.0 * 30.0 * 0.5 * 0.1;
  Check(recost.ok && CostsMatch(recost.cost, expected), "recost of a chain plan");

  dphyp::PlanBuilder cross;
  const auto* c0 = cross.Leaf(0);
  const auto* c2 = cross.Leaf(2);
  const auto* c1 = cross.Leaf(1);
  dphyp::PlanTree bad = cross.Build(
      cross.Op(dphyp::OpType::kJoin, cross.Op(dphyp::OpType::kJoin, c0, c2), c1));
  Check(!RecostPlan(g, bad).ok, "recost rejects a cross product");

  // Antijoin factor: max(1 - s * R, 0.05) / R with R the right side's rows.
  RefGraph anti;
  anti.cardinality = {100.0, 50.0};
  anti.edges.push_back({Set({0}), Set({1}), RefSet{}, 0.01, RefOp::kAnti});
  Check(CostsMatch(RefCardinality(anti, Set({0, 1})), 100.0 * 50.0 * 0.5 / 50.0),
        "antijoin cardinality");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOptimaAgainstEveryTree();
  perfbench::TestClosedFormPairCounts();
  perfbench::TestRecost();
  std::printf("%d checks, %d failed\n", perfbench::checks, perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
