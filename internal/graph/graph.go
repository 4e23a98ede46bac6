// Package graph provides the undirected-graph machinery behind IS-GC's
// conflict model: adjacency-bitset graphs, induced subgraphs, circulant
// graphs (Theorem 1 of the paper states the CR conflict graph is the
// circulant graph C_n^{1..c-1}), independence checks, and an exact
// maximum-independent-set solver used as the optimality oracle for the
// paper's linear-time decoders.
package graph

import (
	"fmt"

	"isgc/internal/bitset"
)

// Graph is an undirected graph on vertices 0..n-1 with adjacency stored as
// one bitset per vertex. The zero value is an empty graph with no vertices;
// use New to create a graph with a fixed vertex count.
type Graph struct {
	n   int
	adj []*bitset.Set
}

// New returns an edgeless graph on n vertices. n must be non-negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{n: n, adj: make([]*bitset.Set, n)}
	for i := range g.adj {
		g.adj[i] = bitset.New(n)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v). Self-loops are ignored, since
// a worker never conflicts with itself in the IS-GC model.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.adj[u].Contains(v)
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return g.adj[v].Len()
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += a.Len()
	}
	return total / 2
}

// Edges returns all undirected edges as ordered pairs (u < v).
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		g.adj[u].Range(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
	}
	return out
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([]*bitset.Set, g.n)}
	for i, a := range g.adj {
		c.adj[i] = a.Clone()
	}
	return c
}

// Equal reports whether g and o have the same vertex count and edge set.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.adj {
		if !g.adj[i].Equal(o.adj[i]) {
			return false
		}
	}
	return true
}

// SubgraphOf reports whether every edge of g is also an edge of o
// (both graphs must have the same vertex count).
func (g *Graph) SubgraphOf(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.adj {
		if !g.adj[i].SubsetOf(o.adj[i]) {
			return false
		}
	}
	return true
}

// Induced returns the subgraph induced by the vertex set keep, preserving
// original vertex numbering: vertices outside keep become isolated and are
// excluded from independence computations via the availability mask.
//
// IS-GC decoders operate on G[W'] where W' is the set of non-straggling
// workers; representing the induced subgraph as (G, mask) keeps worker
// indices stable, which mirrors how the paper's algorithms address workers.
func (g *Graph) Induced(keep *bitset.Set) *Graph {
	c := New(g.n)
	keep.Range(func(u int) bool {
		a := g.adj[u].Clone()
		a.IntersectWith(keep)
		a.Range(func(v int) bool {
			c.AddEdge(u, v)
			return true
		})
		return true
	})
	return c
}

// IsIndependent reports whether set is an independent set of g: no two
// members are adjacent.
func (g *Graph) IsIndependent(set *bitset.Set) bool {
	ok := true
	set.Range(func(u int) bool {
		if u >= g.n {
			ok = false
			return false
		}
		if g.adj[u].Intersects(set) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsMaximalIndependent reports whether set is independent and no vertex of
// candidates\set can be added while preserving independence.
func (g *Graph) IsMaximalIndependent(set, candidates *bitset.Set) bool {
	if !g.IsIndependent(set) {
		return false
	}
	maximal := true
	candidates.Range(func(v int) bool {
		if set.Contains(v) {
			return true
		}
		if v < g.n && !g.adj[v].Intersects(set) {
			maximal = false
			return false
		}
		return true
	})
	return maximal
}

// Complement returns the complement graph on the same vertices.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.adj[u].Contains(v) {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Circulant returns the circulant graph C_n^S: vertices 0..n-1 with u~v iff
// the circular distance min(|u-v|, n-|u-v|) is in S. Theorem 1 of the paper:
// the conflict graph of CR(n, c) is C_n^{1..c-1}.
func Circulant(n int, offsets []int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for _, d := range offsets {
			if d <= 0 || d >= n {
				continue
			}
			g.AddEdge(u, (u+d)%n)
		}
	}
	return g
}

// CirculantRange returns C_n^{1..k}: u~v iff circular distance ≤ k.
func CirculantRange(n, k int) *Graph {
	offsets := make([]int, 0, k)
	for d := 1; d <= k; d++ {
		offsets = append(offsets, d)
	}
	return Circulant(n, offsets)
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// IsClawFree reports whether g contains no induced K_{1,3} (claw): a
// vertex adjacent to three pairwise non-adjacent vertices. The paper's
// Sec. V-A cites the polynomial-time MIS algorithms for claw-free graphs
// [29-32] precisely because conflict graphs of cyclic placements are
// claw-free — a fact the placement tests verify through this predicate.
// O(n·d³) where d is the maximum degree.
func (g *Graph) IsClawFree() bool {
	for u := 0; u < g.n; u++ {
		nbrs := g.adj[u].Slice()
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if g.adj[nbrs[i]].Contains(nbrs[j]) {
					continue
				}
				for k := j + 1; k < len(nbrs); k++ {
					if !g.adj[nbrs[i]].Contains(nbrs[k]) && !g.adj[nbrs[j]].Contains(nbrs[k]) {
						return false // u;{i,j,k} is an induced claw
					}
				}
			}
		}
	}
	return true
}

// Components returns the connected components of g as sorted vertex
// slices, ordered by their smallest vertex. The FR conflict graph has
// exactly n/c components (its groups); CR with c ≥ 2 is connected — both
// facts are exercised in the placement tests.
func (g *Graph) Components() [][]int {
	seen := bitset.New(g.n)
	var out [][]int
	for v := 0; v < g.n; v++ {
		if seen.Contains(v) {
			continue
		}
		// Breadth-first flood from v.
		comp := []int{}
		frontier := []int{v}
		seen.Add(v)
		for len(frontier) > 0 {
			u := frontier[0]
			frontier = frontier[1:]
			comp = append(comp, u)
			g.adj[u].Range(func(w int) bool {
				if !seen.Contains(w) {
					seen.Add(w)
					frontier = append(frontier, w)
				}
				return true
			})
		}
		sortInts(comp)
		out = append(out, comp)
	}
	return out
}

func sortInts(xs []int) {
	// Insertion sort: component sizes here are small and this avoids an
	// extra import in a hot-path-free helper.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// CircDist returns the circular distance min(|x-y|, n-|x-y|) between
// positions x and y on a cycle of n vertices. This is the d(x, y) used
// throughout Sec. V of the paper.
func CircDist(x, y, n int) int {
	d := x - y
	if d < 0 {
		d = -d
	}
	if n-d < d {
		return n - d
	}
	return d
}
