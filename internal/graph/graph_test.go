package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func ladder(n int) *Graph {
	// Path graph 0-1-2-...-n-1.
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestNewEdgeNormalization(t *testing.T) {
	if NewEdge(3, 1) != (Edge{1, 3}) {
		t.Fatalf("NewEdge(3,1) = %v, want {1 3}", NewEdge(3, 1))
	}
	if NewEdge(1, 3) != NewEdge(3, 1) {
		t.Fatal("edge normalization must make order irrelevant")
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(2, 7)
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Fatalf("Other: got %d/%d", e.Other(2), e.Other(7))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint must panic")
		}
	}()
	e.Other(5)
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after duplicate add", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d; want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestAddWeightedEdgeOverwrites(t *testing.T) {
	g := New(3)
	g.AddWeightedEdge(0, 1, 2.0)
	g.AddWeightedEdge(1, 0, 5.0)
	if w := g.Weight(0, 1); w != 5.0 {
		t.Fatalf("weight = %v, want 5.0", w)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := ladder(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) || g.HasEdge(1, 1) {
		t.Fatal("out-of-range / self edges must report false")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge must be order-insensitive")
	}
}

func TestBFSDistances(t *testing.T) {
	g := ladder(5)
	got := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS = %v, want %v", got, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	d := g.BFSDistances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable distances = %v, want -1", d[2:])
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	g := New(6)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	d := g.AllPairsHops()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetric distance d[%d][%d]=%d d[%d][%d]=%d", i, j, d[i][j], j, i, d[j][i])
			}
		}
	}
	if d[0][5] != 3 {
		t.Fatalf("d[0][5] = %d, want 3", d[0][5])
	}
}

func TestRestrictedHops(t *testing.T) {
	// Square 0-1-2-3-0; disallow vertex 1 so 0..2 must go via 3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	allowed := []bool{true, false, true, true}
	d := g.RestrictedHops(allowed)
	if d[0][2] != 2 {
		t.Fatalf("restricted d[0][2] = %d, want 2 (via 3)", d[0][2])
	}
	if d[0][1] != -1 || d[1][0] != -1 {
		t.Fatal("distances to disallowed vertices must be -1")
	}
}

func TestRestrictedHopsWrongMaskLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong mask length must panic")
		}
	}()
	ladder(3).RestrictedHops([]bool{true})
}

func TestDijkstra(t *testing.T) {
	g := New(4)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(1, 2, 1)
	g.AddWeightedEdge(0, 2, 5)
	d := g.Dijkstra(0)
	if d[2] != 2 {
		t.Fatalf("dijkstra d[2] = %v, want 2", d[2])
	}
	if !math.IsInf(d[3], 1) {
		t.Fatalf("unreachable must be +Inf, got %v", d[3])
	}
}

func TestShortestPath(t *testing.T) {
	g := ladder(5)
	p := g.ShortestPath(0, 4)
	if !reflect.DeepEqual(p, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("path = %v", p)
	}
	if p := g.ShortestPath(2, 2); !reflect.DeepEqual(p, []int{2}) {
		t.Fatalf("trivial path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Fatalf("path to unreachable = %v, want nil", p)
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3; lower-numbered neighbor wins.
	g := New(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	p := g.ShortestPath(0, 3)
	if !reflect.DeepEqual(p, []int{0, 1, 3}) {
		t.Fatalf("path = %v, want [0 1 3]", p)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() {
		t.Fatal("empty graph is connected")
	}
	if !ladder(4).Connected() {
		t.Fatal("ladder must be connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Fatal("graph with isolated vertex is not connected")
	}
}

func TestSubsetConnected(t *testing.T) {
	g := ladder(6)
	if !g.SubsetConnected([]int{1, 2, 3}) {
		t.Fatal("contiguous subset must be connected")
	}
	if g.SubsetConnected([]int{0, 2}) {
		t.Fatal("gap subset must be disconnected")
	}
	if !g.SubsetConnected(nil) || !g.SubsetConnected([]int{4}) {
		t.Fatal("empty and singleton subsets are connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.Components()
	want := [][]int{{0, 1}, {2}, {3, 4}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestInducedEdges(t *testing.T) {
	g := ladder(5)
	got := g.InducedEdges([]int{1, 2, 4})
	want := []Edge{{1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("induced = %v, want %v", got, want)
	}
}

// filterInduced is the reference InducedEdges: every edge of Edges()
// whose endpoints both lie in verts, in Edges() order.
func filterInduced(g *Graph, verts []int) []Edge {
	in := map[int]bool{}
	for _, v := range verts {
		in[v] = true
	}
	var out []Edge
	for _, e := range g.Edges() {
		if in[e.U] && in[e.V] {
			out = append(out, e)
		}
	}
	return out
}

// TestInducedEdgesMatchesEdgesFilter: the adjacency walk must return
// exactly the filtered Edges() list, content and order, on random
// graphs (including ones past the 256-vertex stack mask, with edges
// inserted in random order and re-added with new weights) for unsorted
// vertex lists with duplicates.
func TestInducedEdgesMatchesEdgesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial%25 == 0 {
			n = 257 + rng.Intn(100)
		}
		g := New(n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddWeightedEdge(u, v, rng.Float64())
			}
		}
		for q := 0; q < 5; q++ {
			verts := make([]int, rng.Intn(n+3))
			for i := range verts {
				verts[i] = rng.Intn(n)
			}
			got, want := g.InducedEdges(verts), filterInduced(g, verts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d verts=%v: InducedEdges = %v, want %v", n, verts, got, want)
			}
		}
		if all, es := g.InducedEdges(rng.Perm(n)), g.Edges(); len(es) > 0 && !reflect.DeepEqual(all, es) {
			t.Fatalf("n=%d: induced on every vertex = %v, want Edges() %v", n, all, es)
		}
	}
}

// TestInducedEdgesOutOfRangePanics: like SubsetConnected, an
// out-of-range vertex panics through checkVertex.
func TestInducedEdgesOutOfRangePanics(t *testing.T) {
	for _, v := range []int{-1, 5, 300} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "out of range [0,5)") {
					t.Fatalf("InducedEdges with vertex %d: panic %v, want checkVertex's", v, r)
				}
			}()
			ladder(5).InducedEdges([]int{0, v})
		}()
	}
}

func TestClone(t *testing.T) {
	g := ladder(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("clone must not alias the original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M = %d", c.M())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	es := g.Edges()
	want := []Edge{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(es, want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
}

// Property: in any connected random graph, BFS distances satisfy the
// triangle inequality along edges: |d(u) - d(v)| <= 1 for every edge.
func TestBFSEdgeLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 8)
		if n < 0 {
			n = -n
		}
		n += 3
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		// Add some chords deterministically from the seed.
		s := seed
		for k := 0; k < n; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			u := int((s >> 33) % int64(n))
			v := int((s >> 13) % int64(n))
			if u < 0 {
				u = -u
			}
			if v < 0 {
				v = -v
			}
			if u != v {
				g.AddEdge(u%n, v%n)
			}
		}
		d := g.BFSDistances(0)
		for _, e := range g.Edges() {
			diff := d[e.U] - d[e.V]
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestPath length equals BFS distance + 1 vertices.
func TestShortestPathLengthMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 10)
		if n < 0 {
			n = -n
		}
		n += 4
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		g.AddEdge(0, n-1) // ring
		d := g.BFSDistances(0)
		for v := 0; v < n; v++ {
			p := g.ShortestPath(0, v)
			if len(p) != d[v]+1 {
				return false
			}
			// Path must be a walk along edges.
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
