// Reference computations the benchmark checks the optimizer against.
//
// Nothing here calls into the optimizer. Graphs are copied into plain value
// types (RefGraph), and optima come from textbook algorithms that share no
// code with the library's enumerators:
//   * SubsetDpOptimum: dynamic programming over every subset of relations,
//     the DPsub recurrence written from scratch over 32-bit masks;
//   * IntervalDpOptimum: dynamic programming over the intervals of a path,
//     the only connected subsets a path-shaped graph has;
//   * BruteForceOptimum: explicit enumeration of every bushy tree, used by
//     the self-test to check the two DPs above;
//   * the closed-form csg-cmp-pair counts of chains, cycles, stars and
//     cliques, and a brute-force pair count that checks them.
// The cardinality model is the product form documented in
// src/cost/factors.h, re-derived here from its formulas.
#ifndef DPHYP_PERFBENCH_REFERENCE_H_
#define DPHYP_PERFBENCH_REFERENCE_H_

#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "hypergraph/hypergraph.h"
#include "plan/plan_tree.h"

namespace perfbench {

inline constexpr int kMaxRefNodes = 256;
using RefSet = std::bitset<kMaxRefNodes>;

/// Operator families that estimate differently; dependent variants estimate
/// like their regular forms.
enum class RefOp { kJoin, kSemi, kAnti, kLeftOuter, kFullOuter, kNest };

struct RefEdge {
  RefSet left;
  RefSet right;
  RefSet flex;
  double selectivity = 1.0;
  RefOp op = RefOp::kJoin;
};

struct RefGraph {
  std::vector<double> cardinality;
  std::vector<RefEdge> edges;

  int size() const { return static_cast<int>(cardinality.size()); }
  bool InnerOnly() const;
  /// True when some edge joins `a` and `b` per Def. 7 (one side inside each
  /// set, the flexible nodes inside their union).
  bool Connects(const RefSet& a, const RefSet& b) const;
};

RefOp ToRefOp(dphyp::OpType op);

/// From a QuerySpec's relations and predicates (no hypergraph builder).
RefGraph RefGraphFromSpec(const dphyp::QuerySpec& spec);

template <typename NS>
RefSet ToRefSet(const NS& set) {
  RefSet out;
  for (int v : set) out.set(v);
  return out;
}

template <typename NS>
RefGraph RefGraphFromHypergraph(const dphyp::BasicHypergraph<NS>& graph) {
  RefGraph ref;
  for (int i = 0; i < graph.NumNodes(); ++i) {
    ref.cardinality.push_back(graph.node(i).cardinality);
  }
  for (const auto& e : graph.edges()) {
    ref.edges.push_back({ToRefSet(e.left), ToRefSet(e.right), ToRefSet(e.flex),
                         e.selectivity, ToRefOp(e.op)});
  }
  return ref;
}

/// Product-form cardinality of the class `set`: the base cardinalities times
/// the factor of every edge whose nodes all lie in `set`.
double RefCardinality(const RefGraph& graph, const RefSet& set);

/// Cheapest C_out over all cross-product-free bushy trees (inner joins,
/// at most 20 relations). +inf when the graph is not connected.
double SubsetDpOptimum(const RefGraph& graph);

/// Node order along the path, when the graph's edges are all simple and
/// join neighbours of one simple path through every node; empty otherwise.
std::vector<int> PathOrder(const RefGraph& graph);

/// Cheapest C_out over the bushy trees of a path graph (inner joins).
double IntervalDpOptimum(const RefGraph& graph, const std::vector<int>& path);

/// Cheapest C_out found by listing every cross-product-free bushy tree, both
/// orientations of every join included (at most 7 relations).
double BruteForceOptimum(const RefGraph& graph);

/// Unordered csg-cmp pairs of a simple graph, counted by testing every pair
/// of disjoint subsets (at most 12 relations).
uint64_t BruteForceCcpCount(const RefGraph& graph);

/// Closed-form csg-cmp-pair counts for n relations (Moerkotte and Neumann,
/// VLDB 2006).
uint64_t ChainCcpCount(int n);
uint64_t CycleCcpCount(int n);
uint64_t StarCcpCount(int n);
uint64_t CliqueCcpCount(int n);

/// C_out of an extracted plan, recomputed from the reference model.
struct Recost {
  bool ok = false;
  std::string error;
  double cost = 0.0;
};

template <typename NS>
Recost RecostPlan(const RefGraph& graph, const dphyp::BasicPlanTree<NS>& plan);

/// Equal up to the rounding that a different summation or multiplication
/// order introduces.
bool CostsMatch(double a, double b);

}  // namespace perfbench

#endif  // DPHYP_PERFBENCH_REFERENCE_H_
