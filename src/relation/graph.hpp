// Small undirected-graph utilities used for the paper's connectivity notions:
// given a finite set X of states and a binary relation (~s or ~v), we form
// the graph (X, ~) and ask about connectedness and diameter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "runtime/guard.hpp"

namespace lacon {

// An undirected graph on vertices 0..size-1. Edges accumulate in an
// insertion-ordered edge list; queries read a CSR layout (an offsets array
// into one flat neighbor array) materialized lazily from that list. The CSR
// neighbor order reproduces the classic push-back adjacency-list order
// exactly — edge (a, b) appends b to a's row and a to b's row, in edge-list
// order — so graphs built from the same edge sequence are byte-identical
// regardless of layout history.
//
// Thread-safety: building (add_edge) and the *first* query finalize shared
// state and must not race with other accesses; afterwards all queries are
// const reads and safe to run concurrently.
class Graph {
 public:
  using Vertex = std::uint32_t;
  using Edge = std::pair<Vertex, Vertex>;

  explicit Graph(std::size_t size);

  // Builds the graph of a symmetric relation by evaluating `related` on all
  // unordered pairs. The sweep runs on the parallel runtime: the flattened
  // pair-index space is split into ordered chunks whose edge lists merge in
  // chunk order, so the resulting graph — adjacency order included — is
  // identical for every worker count. `related` must be safe to invoke
  // concurrently (all in-tree relations are read-only over the model); it is
  // taken by value so the sweep holds its own copy for the tasks' lifetime.
  static Graph from_relation(std::size_t size,
                             std::function<bool(std::size_t, std::size_t)>
                                 related);

  // Builds the graph from an explicit list of unordered edges (a < b),
  // already sorted (a, b)-lexicographically and deduplicated — the order
  // from_relation's full sweep produces. The similarity index and the
  // valence clique builder use this to bypass the pair sweep entirely while
  // producing byte-identical graphs.
  static Graph from_sorted_edges(std::size_t size, std::vector<Edge> edges);

  void add_edge(std::size_t a, std::size_t b);

  std::size_t size() const noexcept { return size_; }
  std::span<const Vertex> neighbors(std::size_t v) const;
  std::size_t edge_count() const noexcept { return edge_list_.size(); }

  bool connected() const;

  // Connected-component label per vertex, labels are 0..k-1 in first-seen
  // order.
  std::vector<std::size_t> components() const;

  // Diameter of the graph: the largest BFS eccentricity, computed exactly
  // in two phases (graph.cc): peel the pendant trees off in one linear
  // pass, then bound eccentricities over the remaining 2-core with a few
  // BFS runs. Serial, so the BFS sequence and the result are the same for
  // every worker count. nullopt when the graph is disconnected (infinite
  // diameter) or empty. Applies the process-wide guard spec, if one is set.
  std::optional<std::size_t> diameter() const;

  // Guarded diameter; the guard is probed before the peel and before each
  // core BFS. `completed` counts settled vertices — settled core vertices
  // (BFS sources plus vertices pruned by their bounds) together with the
  // pendant trees hanging on them, not a prefix of the vertex space — and
  // equals size() on a complete run. A truncated result's engaged value is
  // the largest path length found so far, a lower bound on the true
  // diameter; no value when no BFS finished. Disconnection is conclusive
  // and reported complete even if the guard also tripped: a forest with
  // more than one tree is known after the peel, any other disconnected
  // graph after the first core BFS, which reaches fewer than size()
  // vertices counting the pendant trees of the core vertices it reached.
  guard::Partial<std::optional<std::size_t>> diameter(
      const guard::Guard& g) const;

  // Length of a shortest path between a and b; nullopt if not connected.
  std::optional<std::size_t> distance(std::size_t a, std::size_t b) const;

  // A shortest path from a to b (inclusive); empty if not connected.
  std::vector<std::size_t> shortest_path(std::size_t a, std::size_t b) const;

 private:
  // Rebuilds offsets_/csr_ from edge_list_ if edges were added since the
  // last build. Counting pass over degrees, prefix-sum, cursor fill.
  void ensure_csr() const;

  std::size_t size_ = 0;
  std::vector<Edge> edge_list_;
  mutable bool csr_stale_ = true;
  mutable std::vector<std::size_t> offsets_;  // size_ + 1 row boundaries
  mutable std::vector<Vertex> csr_;           // 2 * edge_count() entries
};

}  // namespace lacon
