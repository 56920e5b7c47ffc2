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
// BfsScratch::dist entry of a vertex the BFS did not reach.
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

std::size_t Graph::bfs(std::size_t source, BfsScratch& s) const {
  const std::size_t n = size();
  s.dist.assign(n, kFar);
  s.order.resize(n);
  s.dist[source] = 0;
  s.order[0] = static_cast<Vertex>(source);
  std::size_t head = 0;
  std::size_t tail = 1;
  Vertex level = 0;
  while (true) {
    // order[head, level_end) is the current level; its fresh neighbors are
    // appended behind it as the next one.
    const std::size_t level_end = tail;
    for (; head < level_end; ++head) {
      const Vertex v = s.order[head];
      for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const Vertex w = csr_[e];
        if (s.dist[w] == kFar) {
          s.dist[w] = level + 1;
          s.order[tail++] = w;
        }
      }
    }
    if (tail == level_end) break;
    ++level;
  }
  return tail == n ? level : kUnreached;
}

bool Graph::connected() const {
  if (size() <= 1) return true;
  ensure_csr();
  BfsScratch scratch;
  return bfs(0, scratch) != kUnreached;
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
  // Eccentricity bounding (Takes & Kosters 2011): every vertex keeps
  // lo[v] <= ecc(v) <= hi[v]. A BFS from s with eccentricity e tightens them
  // to max(d, e - d) and e + d, d = dist(s, v). A vertex is settled once
  // hi[v] <= best, the largest eccentricity seen: it cannot raise the
  // maximum. When none is left active, best is exactly the diameter. The
  // sources alternate between the active vertex of largest hi (a likely
  // periphery vertex, raising best) and of smallest lo (a likely centre,
  // lowering every hi); ties go to the lowest index, so the sequence — and
  // hence any truncation point — depends on the graph alone.
  std::vector<Vertex> lo(n, 0);
  std::vector<Vertex> hi(n, kFar);
  std::vector<Vertex> active(n);  // ascending vertex order, kept stable
  for (std::size_t v = 0; v < n; ++v) active[v] = static_cast<Vertex>(v);
  BfsScratch scratch;
  std::size_t best = 0;
  std::size_t runs = 0;
  while (!active.empty() && !g.tripped()) {
    Vertex source = active.front();
    for (const Vertex v : active) {
      if (runs % 2 == 0 ? hi[v] > hi[source] : lo[v] < lo[source]) {
        source = v;
      }
    }
    const std::size_t e = bfs(source, scratch);
    ++runs;
    if (e == kUnreached) {
      // One BFS that misses a vertex proves disconnection; the answer
      // cannot change, so report it complete.
      stats.counter("relation.diameter_sources").add(runs);
      out.completed = n;
      return out;
    }
    best = std::max(best, e);
    std::size_t kept = 0;
    for (const Vertex v : active) {
      const Vertex d = scratch.dist[v];
      lo[v] = std::max({lo[v], d, static_cast<Vertex>(e - d)});
      hi[v] = static_cast<Vertex>(std::min<std::size_t>(hi[v], e + d));
      if (hi[v] > best) active[kept++] = v;
    }
    active.resize(kept);
  }
  stats.counter("relation.diameter_sources").add(runs);
  out.completed = n - active.size();
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
  bfs(a, scratch);
  if (scratch.dist[b] == kFar) return std::nullopt;
  return scratch.dist[b];
}

std::vector<std::size_t> Graph::shortest_path(std::size_t a,
                                              std::size_t b) const {
  // BFS from b so we can walk a -> b by strictly decreasing distance.
  ensure_csr();
  BfsScratch scratch;
  bfs(b, scratch);
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
