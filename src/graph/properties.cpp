#include "graph/properties.h"

#include <algorithm>
#include <vector>

namespace churnstore {

namespace {

/// BFS filling dist with levels; returns the number of reached vertices.
/// The FIFO is a plain vector with a read cursor: every vertex enters the
/// queue at most once, so the backing store never exceeds n entries and a
/// pop never needs to reclaim space. Unlike std::deque (which allocates its
/// map + first chunk on every construction), both scratch buffers reach a
/// steady capacity and make repeated calls allocation-free.
std::size_t bfs(const RegularGraph& g, Vertex from,
                std::vector<std::int32_t>& dist, std::vector<Vertex>& queue) {
  dist.assign(g.n(), -1);
  queue.clear();
  dist[from] = 0;
  queue.push_back(from);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (std::uint32_t i = 0; i < g.degree(); ++i) {
      const Vertex u = g.neighbor(v, i);
      if (dist[u] >= 0) continue;
      dist[u] = dist[v] + 1;
      queue.push_back(u);
    }
  }
  return queue.size();
}

}  // namespace

bool is_connected(const RegularGraph& g) {
  std::vector<std::int32_t> dist;
  std::vector<Vertex> queue;
  return is_connected(g, dist, queue);
}

bool is_connected(const RegularGraph& g, std::vector<std::int32_t>& dist_scratch,
                  std::vector<Vertex>& queue_scratch) {
  if (g.n() == 0) return true;
  return bfs(g, 0, dist_scratch, queue_scratch) == g.n();
}

bool is_bipartite(const RegularGraph& g) {
  std::vector<std::int8_t> color(g.n(), -1);
  std::vector<Vertex> queue;
  queue.reserve(g.n());
  for (Vertex start = 0; start < g.n(); ++start) {
    if (color[start] >= 0) continue;
    color[start] = 0;
    queue.clear();
    queue.push_back(start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex v = queue[head];
      for (std::uint32_t i = 0; i < g.degree(); ++i) {
        const Vertex u = g.neighbor(v, i);
        if (color[u] < 0) {
          color[u] = static_cast<std::int8_t>(1 - color[v]);
          queue.push_back(u);
        } else if (color[u] == color[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace churnstore
