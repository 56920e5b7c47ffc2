// The similarity relation ~s of Definition 3.1 and the graphs it induces.
//
// x ~s y holds when there is a process j such that (i) x and y agree modulo
// j, and (ii) some process i != j is non-failed in both x and y. Similarity
// connectivity of a set X is connectivity of the graph (X, ~s); its diameter
// is the paper's s-diameter (Section 7).
#pragma once

#include <optional>
#include <vector>

#include "core/model.hpp"
#include "relation/graph.hpp"
#include "runtime/guard.hpp"

namespace lacon {

// True iff x ~s y in the given model.
bool similar(LayeredModel& model, StateId x, StateId y);

// The witness process j for x ~s y, if any (the smallest such j).
std::optional<ProcessId> similarity_witness(LayeredModel& model, StateId x,
                                            StateId y);

// The graph (X, ~s), built through a signature index
// (relation/similarity_index.cc).
//
// The naive sweep evaluates agree_modulo on all |X|(|X|-1)/2 pairs. But
// ~s is an equality-modulo-one-coordinate relation: x ~s y requires a
// process j with agree_modulo(x, y, j), and agree_modulo truth implies
// equality of the erase-j fingerprints (LayeredModel::similarity_fingerprint,
// a 64-bit hash of everything agree_modulo compares). So hashing each state
// once per erased coordinate and bucketing by (j, fingerprint) yields a
// candidate set that provably contains every ~s edge; each candidate is then
// confirmed with the exact relation (hash collisions must not create edges)
// and the confirmed edges, sorted (a, b)-lexicographically and deduplicated,
// rebuild the *byte-identical* graph the naive sweep produces — at
// O(|X| * n) hashing plus bucket-local verification instead of O(|X|^2).
Graph similarity_graph(LayeredModel& model, const std::vector<StateId>& X);

// The quadratic reference sweep (Graph::from_relation over similar()): the
// oracle the tests and ablation benches compare similarity_graph against.
Graph similarity_graph_naive(LayeredModel& model,
                             const std::vector<StateId>& X);

bool similarity_connected(LayeredModel& model, const std::vector<StateId>& X);

// s-diameter of X; nullopt when (X, ~s) is disconnected.
std::optional<std::size_t> s_diameter(LayeredModel& model,
                                      const std::vector<StateId>& X);

// Guarded graph build. Counters:
//   relation.index_buckets     (j, fingerprint) groups holding >= 2 states
//   relation.index_candidates  unique candidate pairs from shared buckets
//   relation.index_confirmed   candidates that are real ~s edges
//   relation.index_rejected    candidates discarded by the exact check
// Candidate confirmation also feeds relation.pairs_evaluated, making the
// naive-vs-indexed pair-count ablation directly comparable.
// `completed` counts confirmed candidate pairs: a truncated value is the
// graph of the confirmed prefix of the (sorted, deduplicated) candidate
// sequence — a subgraph of the full (X, ~s) whose edge list is a prefix of
// the canonical edge sequence. A trip during the fingerprint or bucketing
// phase yields an empty graph with completed == 0.
guard::Partial<Graph> similarity_graph(LayeredModel& model,
                                       const std::vector<StateId>& X,
                                       const guard::Guard& g);

// Guarded s-diameter: graph build then diameter under the same guard. If
// the build itself was truncated, the value is disengaged (a diameter of a
// partial graph would bound nothing) and `completed` is 0; otherwise the
// semantics are Graph::diameter(g)'s.
guard::Partial<std::optional<std::size_t>> s_diameter(
    LayeredModel& model, const std::vector<StateId>& X,
    const guard::Guard& g);

}  // namespace lacon
