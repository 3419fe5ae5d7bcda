// Applications throughput: every graph algorithm built on the library's
// primitives (the workloads the paper's introduction motivates — BFS,
// betweenness centrality, RCM — plus the semiring extensions), timed on
// representative matrices of their natural class. Not a paper artifact;
// a completeness table showing the substrate carrying real algorithms.
#include <iostream>
#include <numeric>

#include "apps/algebraic_bfs.hpp"
#include "apps/betweenness.hpp"
#include "apps/connected_components.hpp"
#include "apps/ms_bfs.hpp"
#include "apps/ppr.hpp"
#include "apps/rcm.hpp"
#include "apps/sssp.hpp"
#include "apps/triangles.hpp"
#include "bench_common.hpp"
#include "gen/vector_gen.hpp"
#include "util/prng.hpp"

using namespace tilespmspv;
using namespace tilespmspv::bench;

int main() {
  ThreadPool pool(4);
  std::cout << "Application layer on the tiled substrate\n\n";
  Table table({"application", "workload", "result", "time ms"});

  {  // Algebraic BFS (paper Alg. 3)
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("cant"));
    Timer t;
    const auto levels = algebraic_bfs(a, 0, {}, &pool);
    index_t reached = 0;
    for (index_t l : levels) reached += l >= 0;
    table.add_row({"algebraic BFS (Alg. 3)", "cant",
                   fmt_count(reached) + " vertices", fmt(t.elapsed_ms(), 2)});
  }
  {  // Connected components
    const Csr<value_t> a =
        Csr<value_t>::from_coo(suite_matrix("roadNet-TX"));
    Timer t;
    const ComponentsResult r = connected_components(a, {}, &pool);
    table.add_row({"connected components", "roadNet-TX",
                   std::to_string(r.count) + " components",
                   fmt(t.elapsed_ms(), 2)});
  }
  {  // SSSP (min-plus semiring)
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("cavity23"));
    Timer t;
    const SsspResult r = sssp(a, 0, 16, &pool);
    table.add_row({"SSSP (min-plus)", "cavity23",
                   std::to_string(r.rounds) + " rounds",
                   fmt(t.elapsed_ms(), 2)});
  }
  {  // Betweenness centrality (sampled)
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));
    std::vector<index_t> sources;
    for (index_t s = 0; s < 16; ++s) sources.push_back(s * 300);
    Timer t;
    const auto bc = betweenness_centrality(a, sources, true, {}, &pool);
    const double top = max_of(bc);
    table.add_row({"betweenness (16 sources)", "er-small",
                   "max score " + fmt(top, 1), fmt(t.elapsed_ms(), 2)});
  }
  {  // RCM ordering: recover a band destroyed by a random relabeling.
    Csr<value_t> band = Csr<value_t>::from_coo(suite_matrix("msdoor"));
    Prng rng(77);
    std::vector<index_t> shuffle(band.rows);
    std::iota(shuffle.begin(), shuffle.end(), index_t{0});
    for (index_t i = band.rows - 1; i > 0; --i) {
      std::swap(shuffle[i], shuffle[rng.next_below(i + 1)]);
    }
    const Csr<value_t> scrambled = permute_symmetric(band, shuffle);
    Timer t;
    const auto perm = rcm_ordering(scrambled);
    const Csr<value_t> reordered = permute_symmetric(scrambled, perm);
    table.add_row({"RCM ordering", "msdoor (relabeled)",
                   "bandwidth " + fmt_count(bandwidth(scrambled)) + " -> " +
                       fmt_count(bandwidth(reordered)),
                   fmt(t.elapsed_ms(), 2)});
  }
  {  // Personalized PageRank
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("in-2004"));
    SparseVec<value_t> seeds(a.cols);
    seeds.push(1234, 1.0);
    Timer t;
    const PprResult r = personalized_pagerank(a, seeds, {}, &pool);
    table.add_row({"personalized PageRank", "in-2004",
                   std::to_string(r.iterations) + " iterations",
                   fmt(t.elapsed_ms(), 2)});
  }
  {  // Multi-source BFS, plain and tiled
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("FB"));
    std::vector<index_t> sources;
    for (index_t s = 0; s < 64; ++s) sources.push_back(s * 512);
    Timer t1;
    (void)ms_bfs(a, sources, &pool);
    const double t_plain = t1.elapsed_ms();
    Timer t2;
    (void)ms_bfs_tiled(a, sources, SpmspvConfig{}, &pool);
    const double t_tiled = t2.elapsed_ms();
    table.add_row({"MS-BFS 64 sources (plain)", "FB", "64 level arrays",
                   fmt(t_plain, 2)});
    table.add_row({"MS-BFS 64 sources (tiled)", "FB", "64 level arrays",
                   fmt(t_tiled, 2)});
  }
  {  // Triangle counting (bounded-degree graph: A² stays sparse; social
     // graphs' hub rows square into near-dense A² and belong to dedicated
     // triangle algorithms, not this demonstration).
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("cant"));
    Timer t;
    const auto tri = count_triangles(a, 16, &pool);
    table.add_row({"triangle count", "cant",
                   fmt_count(static_cast<long long>(tri)) + " triangles",
                   fmt(t.elapsed_ms(), 2)});
  }

  table.print(std::cout);
  return 0;
}
