package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/datagraph"
)

// TestSharedSnapshotAcrossWorkers exercises the one-snapshot-many-readers
// contract under the race detector: the graph is frozen once, then many
// concurrent EvalGraph calls (each fanning out to its own worker pool)
// evaluate against the same shared snapshot, including the per-query
// snapshot-program caches. Every result must equal the single-threaded
// reference.
func TestSharedSnapshotAcrossWorkers(t *testing.T) {
	g := testGraph(23)
	queries := testQueries(t)
	snap := g.Freeze()
	if snap == nil || g.Freeze() != snap {
		t.Fatal("freeze did not cache the snapshot")
	}

	ctx := context.Background()
	want := make([]*datagraph.PairSet, len(queries))
	for i, q := range queries {
		want[i] = q.Eval(g, datagraph.SQLNulls)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for round := 0; round < 8; round++ {
		for qi := range queries {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				got, err := EvalGraph(ctx, g, queries[qi], datagraph.SQLNulls, Options{Workers: 4, ChunkSize: 8})
				if err != nil {
					errs <- err.Error()
					return
				}
				if !got.Equal(want[qi]) {
					errs <- "concurrent result diverged from reference"
				}
			}(qi)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if g.Freeze() != snap {
		t.Fatal("evaluation must not invalidate or replace the shared snapshot")
	}
}
