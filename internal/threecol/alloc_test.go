//go:build !race

// The race detector makes sync.Pool drop a random share of the items put
// back, so the allocation bound below only holds without it.

package threecol

import (
	"testing"

	"repro/internal/core"
)

// TestExactPairReusesProgram bounds the allocations of the E4 instance
// (the triangle, whose adversary search evaluates the query once per value
// specialization of the universal solution). Each specialization is a
// SetValue burst followed by a value-only refreeze; the query's lowered
// program and its scratch pool are keyed on the graph's topology, so they
// must survive every refreeze. Lowering the query afresh per
// specialization roughly triples the allocations and trips the bound.
func TestExactPairReusesProgram(t *testing.T) {
	g := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	allocs := testing.AllocsPerRun(20, func() {
		certain, err := CertainNon3Colorable(g, core.ExactOptions{MaxNulls: 4})
		if err != nil {
			t.Fatal(err)
		}
		if certain {
			t.Fatal("triangle is 3-colourable")
		}
	})
	t.Logf("%.0f allocs per run", allocs)
	if allocs > 4000 {
		t.Fatalf("%.0f allocs per run; want ≤ 4000 (is the lowered program rebuilt per specialization?)", allocs)
	}
}
