#include "relation/graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

#include "runtime/parallel.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace lacon {

namespace {

constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
// No vertex and no distance: BfsScratch::dist of a vertex the BFS did not
// reach, the core index of a peeled vertex, an unbounded hi.
constexpr Graph::Vertex kFar = std::numeric_limits<Graph::Vertex>::max();

// Unordered pairs (a, b), a < b, of {0..size-1} are flattened
// lexicographically; row a starts at pair index a*(2*size - a - 1)/2.
std::size_t pair_row_start(std::size_t size, std::size_t a) {
  return a * (2 * size - a - 1) / 2;
}

// The row containing flattened pair index k: the largest a with
// row_start(a) <= k.
std::size_t pair_row_of(std::size_t size, std::size_t k) {
  std::size_t lo = 0, hi = size - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (pair_row_start(size, mid) <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// Buffers of bfs(), reused across sources so the allocations persist.
struct BfsScratch {
  std::vector<Graph::Vertex> dist;   // kFar for unreached vertices
  std::vector<Graph::Vertex> order;  // vertices in visiting order
};

// Level-synchronous BFS from `source` over a CSR (row offsets into one flat
// neighbor array): each level is a contiguous run of `order`, and the next
// level is appended behind it. Fills s.dist and s.order and returns the
// number of vertices reached, so order[0, reached) holds them by
// nondecreasing distance.
std::size_t bfs(const std::vector<std::size_t>& offsets,
                const std::vector<Graph::Vertex>& adj, std::size_t source,
                BfsScratch& s) {
  const std::size_t n = offsets.size() - 1;
  s.dist.assign(n, kFar);
  s.order.resize(n);
  s.dist[source] = 0;
  s.order[0] = static_cast<Graph::Vertex>(source);
  std::size_t head = 0;
  std::size_t tail = 1;
  for (Graph::Vertex level = 1; head < tail; ++level) {
    // order[head, level_end) is the current level; its fresh neighbors are
    // appended behind it as the next one.
    const std::size_t level_end = tail;
    for (; head < level_end; ++head) {
      const Graph::Vertex v = s.order[head];
      for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const Graph::Vertex w = adj[e];
        if (s.dist[w] == kFar) {
          s.dist[w] = level;
          s.order[tail++] = w;
        }
      }
    }
  }
  return tail;
}

}  // namespace

Graph::Graph(std::size_t size) : size_(size) {
  assert(size < std::numeric_limits<Vertex>::max());
}

Graph Graph::from_relation(std::size_t size,
                           std::function<bool(std::size_t, std::size_t)>
                               related) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("relation.pair_sweep_time"));
  const std::size_t pairs = size < 2 ? 0 : size * (size - 1) / 2;
  stats.counter("relation.pairs_evaluated").add(pairs);
  LACON_TRACE_PHASE("relation", "pair_sweep", pairs);

  // Each ordered chunk of the flattened pair-index space yields its edges in
  // lexicographic (a, b) order; concatenating the chunks in order therefore
  // reproduces exactly the serial sweep's edge sequence.
  const std::vector<std::vector<Edge>> chunks =
      runtime::parallel_map_chunks<std::vector<Edge>>(
          pairs, [&](std::size_t begin, std::size_t end) {
            std::vector<Edge> out;
            std::size_t a = pair_row_of(size, begin);
            std::size_t b = a + 1 + (begin - pair_row_start(size, a));
            for (std::size_t k = begin; k < end; ++k) {
              if (related(a, b)) {
                out.emplace_back(static_cast<Vertex>(a),
                                 static_cast<Vertex>(b));
              }
              if (++b == size) {
                ++a;
                b = a + 1;
              }
            }
            return out;
          });

  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::vector<Edge> edges;
  edges.reserve(total);
  for (const auto& chunk : chunks) {
    edges.insert(edges.end(), chunk.begin(), chunk.end());
  }
  return from_sorted_edges(size, std::move(edges));
}

Graph Graph::from_sorted_edges(std::size_t size, std::vector<Edge> edges) {
  assert(std::is_sorted(edges.begin(), edges.end()));
  Graph g(size);
  g.edge_list_ = std::move(edges);
  g.ensure_csr();
  return g;
}

void Graph::add_edge(std::size_t a, std::size_t b) {
  assert(a < size() && b < size() && a != b);
  edge_list_.emplace_back(static_cast<Vertex>(a), static_cast<Vertex>(b));
  csr_stale_ = true;
}

void Graph::ensure_csr() const {
  if (!csr_stale_) return;
  offsets_.assign(size_ + 1, 0);
  for (const Edge& e : edge_list_) {
    ++offsets_[e.first + 1];
    ++offsets_[e.second + 1];
  }
  for (std::size_t v = 0; v < size_; ++v) offsets_[v + 1] += offsets_[v];
  csr_.resize(2 * edge_list_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edge_list_) {
    csr_[cursor[e.first]++] = e.second;
    csr_[cursor[e.second]++] = e.first;
  }
  csr_stale_ = false;
}

std::span<const Graph::Vertex> Graph::neighbors(std::size_t v) const {
  ensure_csr();
  return std::span<const Vertex>(csr_.data() + offsets_[v],
                                 offsets_[v + 1] - offsets_[v]);
}

bool Graph::connected() const {
  if (size() <= 1) return true;
  ensure_csr();
  BfsScratch scratch;
  return bfs(offsets_, csr_, 0, scratch) == size();
}

std::vector<std::size_t> Graph::components() const {
  ensure_csr();
  std::vector<std::size_t> label(size(), kUnreached);
  std::size_t next = 0;
  for (std::size_t v = 0; v < size(); ++v) {
    if (label[v] != kUnreached) continue;
    const std::size_t mine = next++;
    std::queue<std::size_t> queue;
    label[v] = mine;
    queue.push(v);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (std::size_t w : neighbors(u)) {
        if (label[w] == kUnreached) {
          label[w] = mine;
          queue.push(w);
        }
      }
    }
  }
  return label;
}

guard::Partial<std::optional<std::size_t>> Graph::diameter(
    const guard::Guard& g) const {
  guard::Partial<std::optional<std::size_t>> out;
  const std::size_t n = size();
  if (n == 0) return out;
  ensure_csr();
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("relation.diameter_time"));
  LACON_TRACE_PHASE("relation", "diameter", n);
  if (g.tripped()) {
    out.truncation = g.reason();
    return out;
  }

  // Phase 1, the peel: repeatedly remove vertices of degree 1. Each removed
  // vertex hangs on the neighbor left when it goes, so the removed vertices
  // form a pendant forest whose roots are either 2-core vertices or, for a
  // component that is a pure tree, its last vertex (left with degree 0).
  // height[v] is the depth of the deepest pendant vertex below v, and
  // weight[v] counts v plus its pendant vertices. Each branch hung on a
  // vertex closes a path with the deepest branch hung there before it, so
  // `best` sees the longest path inside every pendant tree.
  std::vector<Vertex> degree(n);
  std::vector<Vertex> height(n, 0);
  std::vector<Vertex> weight(n, 1);
  std::vector<Vertex> peeled;  // removal order
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
    if (degree[v] <= 1) peeled.push_back(static_cast<Vertex>(v));
  }
  std::size_t best = 0;  // the longest path found so far
  Vertex tree_root = 0;
  for (std::size_t i = 0; i < peeled.size(); ++i) {
    const Vertex v = peeled[i];
    if (degree[v] == 0) {  // the last vertex of a tree component
      tree_root = v;
      continue;
    }
    degree[v] = 0;  // removed; its one remaining neighbor has degree > 0
    Vertex parent = 0;
    for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      if (degree[csr_[e]] > 0) parent = csr_[e];
    }
    weight[parent] += weight[v];
    const Vertex branch = height[v] + 1;
    best = std::max<std::size_t>(best, height[parent] + branch);
    height[parent] = std::max(height[parent], branch);
    if (--degree[parent] == 1) peeled.push_back(parent);
  }
  if (peeled.size() == n) {
    // A forest: connected exactly when one tree holds every vertex.
    out.completed = n;
    if (weight[tree_root] == n) out.value = best;
    return out;
  }

  // Phase 2, the core: relabel the 2-core densely, in ascending vertex
  // order, and build its CSR.
  std::vector<Vertex> core_index(n, kFar);
  std::vector<Vertex> core;
  for (std::size_t v = 0; v < n; ++v) {
    if (degree[v] >= 2) {
      core_index[v] = static_cast<Vertex>(core.size());
      core.push_back(static_cast<Vertex>(v));
    }
  }
  const std::size_t c = core.size();
  std::vector<std::size_t> core_offsets(c + 1, 0);
  std::vector<Vertex> core_adj;
  std::vector<Vertex> h(c);  // height and weight, by core index
  std::vector<Vertex> w(c);
  for (std::size_t i = 0; i < c; ++i) {
    const Vertex v = core[i];
    for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      if (core_index[csr_[e]] != kFar) core_adj.push_back(core_index[csr_[e]]);
    }
    core_offsets[i + 1] = core_adj.size();
    h[i] = height[v];
    w[i] = weight[v];
  }

  // Any longest shortest path either stays inside one pendant tree (the
  // peel measured those) or joins the pendant trees of two core vertices
  // s != u, with length g(s) = h(s) + f(s), f(s) = max over u != s of
  // d(s, u) + h(u). Eccentricity bounding (Takes & Kosters 2011) finds the
  // largest g: every core vertex keeps lo[v] <= g(v) <= hi[v]. A BFS from s
  // gives g(s) and, with d = d(s, v), tightens them to lo[v] >= h(v) + d +
  // h(s) and hi[v] <= h(v) + max(f(s), h(s)) + d (f is 1-Lipschitz). The
  // source is settled outright; any other vertex once hi[v] <= best, as it
  // cannot raise the maximum. When none is left active, best is exactly the
  // diameter. The sources alternate between the active vertex of largest
  // hi (a likely periphery vertex, raising best) and of smallest lo (a
  // likely centre, lowering every hi); ties go to the lowest index, so the
  // sequence — and hence any truncation point — depends on the graph alone.
  std::vector<Vertex> lo(c, 0);
  std::vector<Vertex> hi(c, kFar);
  std::vector<Vertex> active(c);  // ascending core order, kept stable
  for (std::size_t i = 0; i < c; ++i) active[i] = static_cast<Vertex>(i);
  BfsScratch scratch;
  std::size_t runs = 0;
  std::size_t settled = 0;  // vertices settled, pendant trees included
  while (!active.empty() && !g.tripped()) {
    Vertex source = active.front();
    for (const Vertex v : active) {
      if (runs % 2 == 0 ? hi[v] > hi[source] : lo[v] < lo[source]) {
        source = v;
      }
    }
    const std::size_t reached = bfs(core_offsets, core_adj, source, scratch);
    ++runs;
    std::size_t f = 0;
    std::size_t covered = w[source];
    for (std::size_t k = 1; k < reached; ++k) {
      const Vertex u = scratch.order[k];
      f = std::max<std::size_t>(f, scratch.dist[u] + h[u]);
      covered += w[u];
    }
    if (covered < n) {
      // The BFS and the pendant trees it reached miss a vertex: the graph
      // is disconnected, and the answer cannot change, so report it
      // complete.
      stats.counter("relation.diameter_sources").add(runs);
      out.completed = n;
      return out;
    }
    best = std::max(best, h[source] + f);
    const std::size_t reach = std::max<std::size_t>(f, h[source]);
    std::size_t kept = 0;
    for (const Vertex v : active) {
      const Vertex d = scratch.dist[v];
      lo[v] = std::max(lo[v], h[v] + d + h[source]);
      hi[v] = static_cast<Vertex>(
          std::min<std::size_t>(hi[v], h[v] + reach + d));
      if (v != source && hi[v] > best) {
        active[kept++] = v;
      } else {
        settled += w[v];
      }
    }
    active.resize(kept);
  }
  stats.counter("relation.diameter_sources").add(runs);
  out.completed = settled;
  out.truncation = g.reason();
  if (runs > 0) out.value = best;  // no BFS finished -> no bound at all
  return out;
}

std::optional<std::size_t> Graph::diameter() const {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return diameter(scoped.get()).value;
}

std::optional<std::size_t> Graph::distance(std::size_t a, std::size_t b) const {
  ensure_csr();
  BfsScratch scratch;
  bfs(offsets_, csr_, a, scratch);
  if (scratch.dist[b] == kFar) return std::nullopt;
  return scratch.dist[b];
}

std::vector<std::size_t> Graph::shortest_path(std::size_t a,
                                              std::size_t b) const {
  // BFS from b so we can walk a -> b by strictly decreasing distance.
  ensure_csr();
  BfsScratch scratch;
  bfs(offsets_, csr_, b, scratch);
  const std::vector<Vertex>& dist = scratch.dist;
  if (dist[a] == kFar) return {};
  std::vector<std::size_t> path = {a};
  std::size_t cur = a;
  while (cur != b) {
    for (std::size_t w : neighbors(cur)) {
      if (std::size_t{dist[w]} + 1 == dist[cur]) {
        cur = w;
        path.push_back(w);
        break;
      }
    }
  }
  return path;
}

}  // namespace lacon
