package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/rpq"
	"repro/internal/workload"
)

// evalGraphBytes returns the mean bytes allocated by one EvalGraph of q
// over g, with the graph frozen beforehand so only evaluation is counted.
func evalGraphBytes(t *testing.T, g *datagraph.Graph, q core.Query) float64 {
	t.Helper()
	g.Freeze()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := EvalGraph(context.Background(), g, q, datagraph.SQLNulls, Options{ChunkSize: 32}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestEvalGraphAllocatesLinearly pins that kernel scratch is reused across
// a worker's chunks. Scratch sized by V allocated once per 32-node chunk
// costs O(V²/32) bytes per query, so quadrupling V multiplies the bytes by
// ~16; reused scratch keeps the growth near 4. Both sizes are above the
// dense pair-set budget, so the answer set itself is linear too.
func TestEvalGraphAllocatesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	q := core.NavQuery{Q: rpq.MustParse("a b")}
	bytesAt := func(v int) float64 {
		g := workload.RandomGraph(workload.GraphSpec{
			Nodes: v, Edges: 3 * v, Labels: []string{"a", "b", "c", "d"}, Seed: 3,
		})
		return evalGraphBytes(t, g, q)
	}
	const v = 12000
	small, large := bytesAt(v), bytesAt(4*v)
	ratio := large / small
	t.Logf("V=%d: %.1f MB, V=%d: %.1f MB, ratio %.2f", v, small/(1<<20), 4*v, large/(1<<20), ratio)
	if ratio >= 6 {
		t.Fatalf("bytes per EvalGraph grew %.2fx from V=%d to V=%d; want < 6 (linear in V)", ratio, v, 4*v)
	}
}

// TestSelectiveCertainNullAllocatesLinearly pins the bytes of one selective
// certain-answer query, evaluated the way Session.CertainNull does it
// (EvalRuns, then core.NullAnswers), to O(V + answers). A per-query result
// set sized V×V — a dense bitmap below the pair-set budget — costs megabytes
// on a solution of a few thousand nodes even when nothing matches.
func TestSelectiveCertainNullAllocatesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	ctx := context.Background()
	sc := workload.Serving(workload.ServingSpec{Nodes: 2000})
	cm, err := core.Compile(sc.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.NewMaterialization(cm, sc.Graph).Universal()
	if err != nil {
		t.Fatal(err)
	}
	n := u.NumNodes()
	for i, q := range sc.Queries {
		certainNull := func() *core.Answers {
			runs, err := EvalRuns(ctx, u, q, datagraph.SQLNulls, Options{ChunkSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			return core.NullAnswers(u, runs)
		}
		ans := certainNull() // lowers the query and fills the scratch pool
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			certainNull()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		limit := float64(64*n + 512*ans.Len() + 64<<10)
		if i == 0 {
			t.Logf("solution of %d nodes: query %q, %d answers, %.0f bytes (limit %.0f)", n, sc.QueryTexts[i], ans.Len(), bytes, limit)
		}
		if bytes > limit {
			t.Fatalf("query %q (%d answers) allocated %.0f bytes on a %d-node solution; want at most %.0f (O(V + answers))",
				sc.QueryTexts[i], ans.Len(), bytes, n, limit)
		}
	}
}
