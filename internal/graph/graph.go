// Package graph provides small undirected-graph utilities used by the
// architecture model, the community-detection partitioner, and the
// routers: adjacency storage, BFS/Dijkstra shortest paths, connectivity
// checks, and subgraph extraction.
//
// Vertices are dense integers in [0, N). Edges are undirected and
// optionally weighted; parallel edges are collapsed.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Edge is an undirected edge between two vertices. The constructor
// normalizes it so that U <= V, which makes Edge usable as a map key.
type Edge struct {
	U, V int
}

// NewEdge returns the normalized edge {min(u,v), max(u,v)}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not x. It panics if x is not
// an endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of %v", x, e))
}

// Graph is an undirected graph with optional per-edge weights.
// The zero value is not usable; create instances with New.
type Graph struct {
	n   int
	adj [][]int
	// up[u] holds u's neighbors greater than u in ascending order, so
	// walking it in vertex order visits edges in the (U, V) order of
	// Edges().
	up     [][]int
	weight map[Edge]float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:      n,
		adj:    make([][]int, n),
		up:     make([][]int, n),
		weight: make(map[Edge]float64),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (collapsed, undirected) edges.
func (g *Graph) M() int { return len(g.weight) }

// AddEdge inserts the undirected edge {u, v} with weight 1. Adding an
// existing edge is a no-op (the original weight is kept). Self-loops are
// rejected.
func (g *Graph) AddEdge(u, v int) {
	g.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge inserts the undirected edge {u, v} with the given
// weight, overwriting the weight if the edge already exists.
func (g *Graph) AddWeightedEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	e := NewEdge(u, v)
	if _, ok := g.weight[e]; !ok {
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
		up := g.up[e.U]
		i := sort.SearchInts(up, e.V)
		up = append(up, 0)
		copy(up[i+1:], up[i:])
		up[i] = e.V
		g.up[e.U] = up
	}
	g.weight[e] = w
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, ok := g.weight[NewEdge(u, v)]
	return ok
}

// Weight returns the weight of edge {u, v}, or 0 if the edge is absent.
func (g *Graph) Weight(u, v int) float64 {
	return g.weight[NewEdge(u, v)]
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.checkVertex(u)
	return g.adj[u]
}

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return len(g.adj[u])
}

// Edges returns all edges sorted by (U, V); the slice is freshly
// allocated on each call.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.weight))
	for e := range g.weight {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for e, w := range g.weight {
		c.AddWeightedEdge(e.U, e.V, w)
	}
	return c
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// BFSDistances returns the unweighted hop distance from src to every
// vertex; unreachable vertices get -1.
func (g *Graph) BFSDistances(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// AllPairsHops returns the unweighted all-pairs hop-distance matrix
// (BFS from every vertex). Unreachable pairs get -1.
func (g *Graph) AllPairsHops() [][]int {
	d := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		d[i] = g.BFSDistances(i)
	}
	return d
}

// RestrictedHops returns the all-pairs hop-distance matrix on the vertex-
// induced subgraph containing only vertices with allowed[v] == true.
// Pairs that are not connected inside the subgraph (or involve a
// disallowed vertex) get -1.
func (g *Graph) RestrictedHops(allowed []bool) [][]int {
	if len(allowed) != g.n {
		panic("graph: allowed mask has wrong length")
	}
	d := make([][]int, g.n)
	for i := range d {
		d[i] = make([]int, g.n)
		for j := range d[i] {
			d[i][j] = -1
		}
	}
	for src := 0; src < g.n; src++ {
		if !allowed[src] {
			continue
		}
		d[src][src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if allowed[v] && d[src][v] < 0 {
					d[src][v] = d[src][u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return d
}

// Dijkstra returns weighted shortest-path distances from src using the
// stored edge weights (which must be non-negative). Unreachable vertices
// get +Inf.
func (g *Graph) Dijkstra(src int) []float64 {
	g.checkVertex(src)
	dist := make([]float64, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < g.n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, v := range g.adj[u] {
			w := g.weight[NewEdge(u, v)]
			if w < 0 {
				panic("graph: negative edge weight in Dijkstra")
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
			}
		}
	}
}

// ShortestPath returns one unweighted shortest path from src to dst as a
// vertex sequence (inclusive of both endpoints), or nil if dst is
// unreachable. Ties are broken toward lower-numbered vertices so the
// result is deterministic.
func (g *Graph) ShortestPath(src, dst int) []int {
	g.checkVertex(src)
	g.checkVertex(dst)
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	dist := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs := append([]int(nil), g.adj[u]...)
		sort.Ints(nbrs)
		for _, v := range nbrs {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	path := []int{dst}
	for at := dst; at != src; at = prev[at] {
		path = append(path, prev[at])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the whole graph is a single connected
// component. The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	d := g.BFSDistances(0)
	for _, v := range d {
		if v < 0 {
			return false
		}
	}
	return true
}

// SubsetConnected reports whether the vertex set `verts` induces a
// connected subgraph. Empty and single-vertex sets are connected.
func (g *Graph) SubsetConnected(verts []int) bool {
	if len(verts) <= 1 {
		return true
	}
	in := make(map[int]bool, len(verts))
	for _, v := range verts {
		g.checkVertex(v)
		in[v] = true
	}
	seen := map[int]bool{verts[0]: true}
	queue := []int{verts[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(in)
}

// Components returns the connected components as sorted vertex slices,
// ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedEdges returns the edges of the subgraph induced by verts, in
// the (U, V) order of Edges(). Duplicate vertices count once; a vertex
// out of range panics.
func (g *Graph) InducedEdges(verts []int) []Edge {
	var out []Edge
	g.EachInducedEdge(verts, func(e Edge) { out = append(out, e) })
	return out
}

// EachInducedEdge calls fn for every edge of the subgraph induced by
// verts, in the order InducedEdges returns them. It walks the sorted
// adjacency lists over a vertex bitmask instead of filtering Edges(),
// and allocates nothing on graphs of up to 256 vertices, so per-region
// estimates (EPST) stay cheap.
func (g *Graph) EachInducedEdge(verts []int, fn func(Edge)) {
	var small [4]uint64
	mask := small[:]
	if words := (g.n + 63) / 64; words > len(small) {
		mask = make([]uint64, words)
	}
	for _, v := range verts {
		g.checkVertex(v)
		mask[v>>6] |= 1 << (v & 63)
	}
	for w, word := range mask {
		for word != 0 {
			u := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			for _, v := range g.up[u] {
				if mask[v>>6]&(1<<(v&63)) != 0 {
					fn(Edge{U: u, V: v})
				}
			}
		}
	}
}
