// The differential oracle for Graph::diameter, shared by the relation, fuzz
// and guard suites: the diameter by its definition — the largest
// eccentricity over a plain queue BFS from every vertex — with none of the
// library's eccentricity bounding.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "relation/graph.hpp"
#include "runtime/guard.hpp"
#include "runtime/stats.hpp"

namespace lacon {

// nullopt when the graph is empty or some BFS misses a vertex.
inline std::optional<std::size_t> all_sources_diameter(const Graph& g) {
  if (g.size() == 0) return std::nullopt;
  constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.size());
  std::size_t best = 0;
  for (std::size_t source = 0; source < g.size(); ++source) {
    dist.assign(g.size(), kFar);
    std::queue<std::size_t> queue;
    dist[source] = 0;
    queue.push(source);
    while (!queue.empty()) {
      const std::size_t v = queue.front();
      queue.pop();
      for (const std::size_t w : g.neighbors(v)) {
        if (dist[w] == kFar) {
          dist[w] = dist[v] + 1;
          queue.push(w);
        }
      }
    }
    for (const std::size_t d : dist) {
      if (d == kFar) return std::nullopt;
      best = std::max(best, d);
    }
  }
  return best;
}

// One unguarded Graph::diameter run and the BFS runs it performed (its
// relation.diameter_sources counter delta).
struct CountedDiameter {
  guard::Partial<std::optional<std::size_t>> result;
  std::uint64_t bfs_runs = 0;
};

inline CountedDiameter counted_diameter(const Graph& g) {
  auto& sources = runtime::Stats::global().counter("relation.diameter_sources");
  const std::uint64_t before = sources.value();
  CountedDiameter out;
  out.result = g.diameter(guard::Guard::none());
  out.bfs_runs = sources.value() - before;
  return out;
}

// The bounded diameter equals the oracle, settles every vertex, and runs at
// most one BFS per vertex.
inline void expect_diameter_matches_oracle(const Graph& g,
                                           const std::string& what) {
  const CountedDiameter d = counted_diameter(g);
  EXPECT_EQ(all_sources_diameter(g), d.result.value) << what;
  EXPECT_TRUE(d.result.complete()) << what;
  EXPECT_EQ(g.size(), d.result.completed) << what;
  EXPECT_LE(d.bfs_runs, g.size()) << what;
  EXPECT_EQ(d.result.value, g.diameter()) << what;
}

}  // namespace lacon
