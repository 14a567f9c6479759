#include "reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The factor an edge contributes to the class cardinality once all of its
// nodes are inside the class (src/cost/factors.h): L and R are the products
// of the base cardinalities on the edge's two sides, flexible nodes counted
// on the right, each at least 1.
double EdgeFactor(const RefGraph& graph, const RefEdge& e) {
  double l = 1.0;
  double r = 1.0;
  for (int v = 0; v < graph.size(); ++v) {
    if (e.left.test(v)) l *= graph.cardinality[v];
    if (e.right.test(v) || e.flex.test(v)) r *= graph.cardinality[v];
  }
  l = std::max(1.0, l);
  r = std::max(1.0, r);
  const double s = e.selectivity;
  switch (e.op) {
    case RefOp::kJoin:
      return s;
    case RefOp::kSemi:
      return std::min(1.0, s * r) / r;
    case RefOp::kAnti:
      return std::max(1.0 - s * r, 0.05) / r;
    case RefOp::kLeftOuter:
      return std::max(s, 1.0 / r);
    case RefOp::kFullOuter:
      return s + 1.0 / r + 1.0 / l;
    case RefOp::kNest:
      return 1.0 / r;
  }
  return s;
}

RefSet AllOf(const RefEdge& e) { return e.left | e.right | e.flex; }

bool IsSubset(const RefSet& a, const RefSet& b) { return (a & ~b).none(); }

RefSet Single(int v) {
  RefSet s;
  s.set(v);
  return s;
}

uint32_t ToMask(const RefSet& s, int n) {
  uint32_t m = 0;
  for (int v = 0; v < n; ++v) {
    if (s.test(v)) m |= uint32_t{1} << v;
  }
  return m;
}

}  // namespace

bool RefGraph::InnerOnly() const {
  for (const RefEdge& e : edges) {
    if (e.op != RefOp::kJoin) return false;
  }
  return true;
}

bool RefGraph::Connects(const RefSet& a, const RefSet& b) const {
  const RefSet both = a | b;
  for (const RefEdge& e : edges) {
    if (!IsSubset(e.flex, both)) continue;
    if ((IsSubset(e.left, a) && IsSubset(e.right, b)) ||
        (IsSubset(e.left, b) && IsSubset(e.right, a))) {
      return true;
    }
  }
  return false;
}

RefOp ToRefOp(dphyp::OpType op) {
  using dphyp::OpType;
  switch (op) {
    case OpType::kJoin:
    case OpType::kDepJoin:
      return RefOp::kJoin;
    case OpType::kLeftSemijoin:
    case OpType::kDepLeftSemijoin:
      return RefOp::kSemi;
    case OpType::kLeftAntijoin:
    case OpType::kDepLeftAntijoin:
      return RefOp::kAnti;
    case OpType::kLeftOuterjoin:
    case OpType::kDepLeftOuterjoin:
      return RefOp::kLeftOuter;
    case OpType::kFullOuterjoin:
      return RefOp::kFullOuter;
    case OpType::kLeftNestjoin:
    case OpType::kDepLeftNestjoin:
      return RefOp::kNest;
  }
  throw std::invalid_argument("unknown operator type");
}

RefGraph RefGraphFromSpec(const dphyp::QuerySpec& spec) {
  RefGraph ref;
  for (const auto& rel : spec.relations) ref.cardinality.push_back(rel.cardinality);
  for (const auto& p : spec.predicates) {
    ref.edges.push_back({ToRefSet(p.left), ToRefSet(p.right), ToRefSet(p.flex),
                         p.selectivity, ToRefOp(p.op)});
  }
  return ref;
}

double RefCardinality(const RefGraph& graph, const RefSet& set) {
  double card = 1.0;
  for (int v = 0; v < graph.size(); ++v) {
    if (set.test(v)) card *= graph.cardinality[v];
  }
  for (const RefEdge& e : graph.edges) {
    if (IsSubset(AllOf(e), set)) card *= EdgeFactor(graph, e);
  }
  return card;
}

double SubsetDpOptimum(const RefGraph& graph) {
  const int n = graph.size();
  if (n < 1 || n > 20) throw std::invalid_argument("subset DP needs 1..20 relations");
  if (!graph.InnerOnly()) throw std::invalid_argument("subset DP is inner-join only");
  struct MaskEdge {
    uint32_t left, right, flex, all;
    double selectivity;
  };
  std::vector<MaskEdge> edges;
  for (const RefEdge& e : graph.edges) {
    const uint32_t l = ToMask(e.left, n), r = ToMask(e.right, n),
                   f = ToMask(e.flex, n);
    edges.push_back({l, r, f, l | r | f, e.selectivity});
  }
  auto connects = [&](uint32_t a, uint32_t b) {
    for (const MaskEdge& e : edges) {
      if ((e.flex & ~(a | b)) != 0) continue;
      if (((e.left & ~a) == 0 && (e.right & ~b) == 0) ||
          ((e.left & ~b) == 0 && (e.right & ~a) == 0)) {
        return true;
      }
    }
    return false;
  };
  const uint32_t full = (uint32_t{1} << n) - 1;
  // best[S] is +inf exactly when S has no cross-product-free tree, i.e. when
  // S is not connected; subsets are numerically smaller than their supersets,
  // so one ascending sweep sees every part before the whole.
  std::vector<double> best(size_t{full} + 1, kInf);
  for (int v = 0; v < n; ++v) best[uint32_t{1} << v] = 0.0;
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;
    const uint32_t low = s & (~s + 1);
    const uint32_t rest = s ^ low;
    double cheapest = kInf;
    // Every unordered split {S1, S2} once: S1 holds the lowest node.
    for (uint32_t t = (rest - 1) & rest;; t = (t - 1) & rest) {
      const uint32_t s1 = low | t;
      const uint32_t s2 = s ^ s1;
      const double parts = best[s1] + best[s2];
      if (parts < cheapest && connects(s1, s2)) cheapest = parts;
      if (t == 0) break;
    }
    if (cheapest == kInf) continue;
    double card = 1.0;
    for (int v = 0; v < n; ++v) {
      if (s & (uint32_t{1} << v)) card *= graph.cardinality[v];
    }
    for (const MaskEdge& e : edges) {
      if ((e.all & ~s) == 0) card *= e.selectivity;
    }
    best[s] = card + cheapest;
  }
  return best[full];
}

std::vector<int> PathOrder(const RefGraph& graph) {
  const int n = graph.size();
  std::vector<std::vector<int>> adj(n);
  for (const RefEdge& e : graph.edges) {
    if (e.left.count() != 1 || e.right.count() != 1 || e.flex.any()) return {};
    int a = -1, b = -1;
    for (int v = 0; v < n; ++v) {
      if (e.left.test(v)) a = v;
      if (e.right.test(v)) b = v;
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    if (list.size() > 2) return {};
  }
  int start = 0;
  if (n > 1) {
    start = -1;
    for (int v = 0; v < n; ++v) {
      if (adj[v].size() == 1) {
        start = v;
        break;
      }
    }
    if (start < 0) return {};  // a cycle, or isolated nodes
  }
  std::vector<int> path{start};
  std::vector<bool> seen(n, false);
  seen[start] = true;
  for (int cur = start;;) {
    int next = -1;
    for (int w : adj[cur]) {
      if (!seen[w]) next = w;
    }
    if (next < 0) break;
    seen[next] = true;
    path.push_back(next);
    cur = next;
  }
  if (static_cast<int>(path.size()) != n) return {};
  return path;
}

double IntervalDpOptimum(const RefGraph& graph, const std::vector<int>& path) {
  const int n = static_cast<int>(path.size());
  if (n != graph.size() || n == 0) throw std::invalid_argument("path does not cover the graph");
  if (!graph.InnerOnly()) throw std::invalid_argument("interval DP is inner-join only");
  // link[i]: product of the selectivities of the edges between path[i] and
  // path[i + 1]; a path graph has no other edges.
  std::vector<double> link(n, 1.0);
  std::vector<int> pos(n);
  for (int i = 0; i < n; ++i) pos[path[i]] = i;
  for (const RefEdge& e : graph.edges) {
    int a = -1, b = -1;
    for (int v = 0; v < n; ++v) {
      if (e.left.test(v)) a = pos[v];
      if (e.right.test(v)) b = pos[v];
    }
    if (std::abs(a - b) != 1) throw std::invalid_argument("edge is not along the path");
    link[std::min(a, b)] *= e.selectivity;
  }
  std::vector<double> card(size_t(n) * n), best(size_t(n) * n, 0.0);
  auto at = [n](int i, int j) { return size_t(i) * n + j; };
  for (int i = 0; i < n; ++i) {
    card[at(i, i)] = graph.cardinality[path[i]];
    for (int j = i + 1; j < n; ++j) {
      card[at(i, j)] = card[at(i, j - 1)] * graph.cardinality[path[j]] * link[j - 1];
    }
  }
  for (int len = 2; len <= n; ++len) {
    for (int i = 0; i + len - 1 < n; ++i) {
      const int j = i + len - 1;
      double cheapest = kInf;
      for (int k = i; k < j; ++k) {
        cheapest = std::min(cheapest, best[at(i, k)] + best[at(k + 1, j)]);
      }
      best[at(i, j)] = card[at(i, j)] + cheapest;
    }
  }
  return best[at(0, n - 1)];
}

double BruteForceOptimum(const RefGraph& graph) {
  const int n = graph.size();
  if (n < 1 || n > 7) throw std::invalid_argument("brute force needs 1..7 relations");
  // Costs of every cross-product-free tree over `set`, listed one by one.
  std::function<std::vector<double>(const RefSet&)> all_trees =
      [&](const RefSet& set) -> std::vector<double> {
    std::vector<int> members;
    for (int v = 0; v < n; ++v) {
      if (set.test(v)) members.push_back(v);
    }
    if (members.size() == 1) return {0.0};
    const double card = RefCardinality(graph, set);
    std::vector<double> costs;
    const uint32_t combos = uint32_t{1} << members.size();
    // Ordered splits: (left, right) and (right, left) are different trees.
    for (uint32_t pick = 1; pick + 1 < combos; ++pick) {
      RefSet left;
      for (size_t i = 0; i < members.size(); ++i) {
        if (pick & (uint32_t{1} << i)) left.set(members[i]);
      }
      const RefSet right = set & ~left;
      if (!graph.Connects(left, right)) continue;
      for (double a : all_trees(left)) {
        for (double b : all_trees(right)) costs.push_back(card + a + b);
      }
    }
    return costs;
  };
  RefSet everything;
  for (int v = 0; v < n; ++v) everything.set(v);
  double cheapest = kInf;
  for (double c : all_trees(everything)) cheapest = std::min(cheapest, c);
  return cheapest;
}

uint64_t BruteForceCcpCount(const RefGraph& graph) {
  const int n = graph.size();
  if (n < 1 || n > 12) throw std::invalid_argument("pair count needs 1..12 relations");
  auto to_set = [n](uint32_t m) {
    RefSet s;
    for (int v = 0; v < n; ++v) {
      if (m & (uint32_t{1} << v)) s.set(v);
    }
    return s;
  };
  // A set is connected when a walk over edges lying inside it reaches all of
  // its nodes (simple graphs).
  auto connected = [&](uint32_t m) {
    const RefSet s = to_set(m);
    RefSet reached = Single(std::countr_zero(m));
    for (bool grew = true; grew;) {
      grew = false;
      for (const RefEdge& e : graph.edges) {
        const RefSet all = AllOf(e);
        if (!IsSubset(all, s)) continue;
        if ((all & reached).any() && !IsSubset(all, reached)) {
          reached |= all;
          grew = true;
        }
      }
    }
    return reached == s;
  };
  const uint32_t count = uint32_t{1} << n;
  std::vector<bool> csg(count, false);
  for (uint32_t m = 1; m < count; ++m) csg[m] = connected(m);
  uint64_t pairs = 0;
  for (uint32_t a = 1; a < count; ++a) {
    if (!csg[a]) continue;
    const uint32_t rest = (count - 1) & ~a;
    for (uint32_t b = rest; b != 0; b = (b - 1) & rest) {
      if (b < a || !csg[b]) continue;
      if (graph.Connects(to_set(a), to_set(b))) ++pairs;
    }
  }
  return pairs;
}

uint64_t ChainCcpCount(int n) {
  const uint64_t m = n;
  return (m * m * m - m) / 6;
}

uint64_t CycleCcpCount(int n) {
  const uint64_t m = n;
  return (m * m * m - 2 * m * m + m) / 2;
}

uint64_t StarCcpCount(int n) {
  return n < 2 ? 0 : uint64_t(n - 1) << (n - 2);
}

uint64_t CliqueCcpCount(int n) {
  uint64_t pow3 = 1;
  for (int i = 0; i < n; ++i) pow3 *= 3;
  return (pow3 - (uint64_t{1} << (n + 1)) + 1) / 2;
}

template <typename NS>
Recost RecostPlan(const RefGraph& graph, const dphyp::BasicPlanTree<NS>& plan) {
  Recost out;
  if (!plan.Valid()) {
    out.error = "empty plan";
    return out;
  }
  using Node = dphyp::BasicPlanTreeNode<NS>;
  // Returns the node's relation set, adds its C_out share to `cost`.
  std::function<RefSet(const Node*)> walk = [&](const Node* node) -> RefSet {
    if (!out.error.empty()) return {};
    if (node->IsLeaf()) {
      if (node->relation >= graph.size()) out.error = "leaf out of range";
      return out.error.empty() ? Single(node->relation) : RefSet{};
    }
    if (node->left == nullptr || node->right == nullptr) {
      out.error = "join without two inputs";
      return {};
    }
    const RefSet l = walk(node->left);
    const RefSet r = walk(node->right);
    if (!out.error.empty()) return {};
    if ((l & r).any()) {
      out.error = "inputs overlap";
      return {};
    }
    if (!graph.Connects(l, r)) {
      out.error = "cross product";
      return {};
    }
    const RefSet both = l | r;
    out.cost += RefCardinality(graph, both);
    return both;
  };
  const RefSet root = walk(plan.root());
  if (out.error.empty() && root.count() != size_t(graph.size())) {
    out.error = "plan does not cover every relation";
  }
  out.ok = out.error.empty();
  return out;
}

template Recost RecostPlan(const RefGraph&, const dphyp::BasicPlanTree<dphyp::NodeSet>&);
template Recost RecostPlan(const RefGraph&,
                           const dphyp::BasicPlanTree<dphyp::WideNodeSet>&);

bool CostsMatch(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

}  // namespace perfbench
