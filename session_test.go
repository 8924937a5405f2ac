package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/workload"
)

// sessionTestWorkload builds a mid-size random exchange scenario plus a
// mixed query set.
func sessionTestWorkload(t testing.TB) (*Graph, *Mapping, []Query) {
	t.Helper()
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 120, Edges: 360, Labels: []string{"a", "b"}, Values: 30, Seed: 52,
	})
	m := NewMapping(R("a", "p q"), R("b", "r"))
	queries := []Query{
		MustREE("(p q)="),
		MustREE("(p q)!= | r"),
		MustREE("p (q r?)="),
		MustREM("!x.(p (q[x=])?) q*"),
	}
	rpq, err := ParseRPQ("p q | r")
	if err != nil {
		t.Fatal(err)
	}
	return gs, m, append(queries, rpq)
}

func newTestSession(t testing.TB, gs *Graph, m *Mapping, opts ...Option) *Session {
	t.Helper()
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cm, gs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionMatchesSequentialCore pins every session algorithm to the
// sequential core implementation over workload generators: memoization and
// engine sharding must not change a single answer.
func TestSessionMatchesSequentialCore(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	for i, q := range queries {
		want, err := core.CertainNull(m, gs, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: session CertainNull %v != sequential %v", i, got, want)
		}
		wantLI, err := core.CertainLeastInformative(m, gs, q)
		if err != nil {
			t.Fatal(err)
		}
		gotLI, err := s.CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !gotLI.Equal(wantLI) {
			t.Fatalf("query %d: session CertainLeastInformative %v != sequential %v", i, gotLI, wantLI)
		}
	}
	// Batch evaluation agrees with per-query calls.
	batch, err := s.Eval(ctx, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].Equal(want) {
			t.Fatalf("query %d: batch answers differ from single-query answers", i)
		}
	}
}

// TestSessionMatchesLegacyOverQueryStream cross-validates a whole
// workload-generated query stream: the session must return exactly what the
// legacy free functions return, query by query, across stream shapes.
func TestSessionMatchesLegacyOverQueryStream(t *testing.T) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 80, Edges: 240, Labels: []string{"a", "b", "c"},
		LabelWeights: []int{10, 10, 1}, Values: 20, Seed: 53,
	})
	m := NewMapping(R("a", "p q"), R("b", "r q"), R("c", "s t"))
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	for _, shape := range []workload.StreamShape{workload.ShapeMixed, workload.ShapePaths} {
		queries := workload.QueryStream(workload.QueryStreamSpec{
			Labels: []string{"p", "q", "r", "s", "t"}, N: 6, Shape: shape,
			Depth: 2, AllowNeq: true, Seed: 53,
		})
		for i, q := range queries {
			want, err := CertainNull(m, gs, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("shape %v query %d: session %v != legacy %v", shape, i, got, want)
			}
		}
	}
}

// TestSessionExactMatchesLegacy pins the memoized exact search to the
// legacy free function on a small instance.
func TestSessionExactMatchesLegacy(t *testing.T) {
	gs := workload.Chain(3, "e", 2)
	m := NewMapping(R("e", "p q"))
	q := MustREE("(p q)!=")
	want, err := core.CertainExact(m, gs, q, ExactOptions{MaxNulls: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, gs, m, WithMaxNulls(5))
	got, err := s.CertainExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("session exact %v != legacy %v", got, want)
	}
	// Pairwise decisions agree too.
	for _, a := range want.Sorted() {
		ok, err := s.CertainExactPair(context.Background(), q, a.From.ID, a.To.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("pair (%s, %s) in exact answers but CertainExactPair says no", a.From.ID, a.To.ID)
		}
	}
}

// TestSessionSharedRace hammers one shared session from GOMAXPROCS
// goroutines mixing prepared and ad-hoc queries across every algorithm —
// the -race acceptance test for the memoization gates.
func TestSessionSharedRace(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m, WithMaxNulls(12))
	ctx := context.Background()

	// Expected results, computed single-threaded.
	want := make([]*Answers, len(queries))
	for i, q := range queries {
		ans, err := core.CertainNull(m, gs, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans
	}
	prepared := make([]*PreparedQuery, len(queries))
	for i, q := range queries {
		prepared[i] = PrepareQuery(q)
	}

	workers := runtime.GOMAXPROCS(0) * 2
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				var q Query = queries[qi]
				if (w+r)%2 == 0 {
					q = prepared[qi] // prepared and ad-hoc interleave
				}
				switch (w + r) % 4 {
				case 0:
					got, err := s.CertainNull(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					if !got.Equal(want[qi]) {
						t.Errorf("worker %d: CertainNull diverged on query %d", w, qi)
						return
					}
				case 1:
					if _, err := s.CertainLeastInformative(ctx, q); err != nil {
						errs <- err
						return
					}
				case 2:
					got := NewAnswers()
					for a, err := range s.CertainNullSeq(ctx, q) {
						if err != nil {
							errs <- err
							return
						}
						got.Add(a)
					}
					if !got.Equal(want[qi]) {
						t.Errorf("worker %d: CertainNullSeq diverged on query %d", w, qi)
						return
					}
				default:
					if _, err := s.Eval(ctx, q); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionSeqStreaming checks the iterator paths: full drains equal the
// materialized answers, and breaking early stops cleanly.
func TestSessionSeqStreaming(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	for i, q := range queries {
		want, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got := NewAnswers()
		for a, err := range s.CertainNullSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			got.Add(a)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: streamed answers %v != materialized %v", i, got, want)
		}
		wantLI, err := s.CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gotLI := NewAnswers()
		for a, err := range s.CertainLeastInformativeSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			gotLI.Add(a)
		}
		if !gotLI.Equal(wantLI) {
			t.Fatalf("query %d: streamed LI answers diverged", i)
		}
		// Early break after the first answer must not panic or leak.
		n := 0
		for _, err := range s.CertainNullSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			break
		}
		if want.Len() > 0 && n != 1 {
			t.Fatalf("query %d: early break yielded %d answers", i, n)
		}
	}
}

// TestSessionOptionValidation checks every option's ErrBadOptions path at
// construction.
func TestSessionOptionValidation(t *testing.T) {
	gs, m, _ := sessionTestWorkload(t)
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Option{
		WithWorkers(-1),
		WithChunkSize(0),
		WithChunkSize(-3),
		WithMaxNulls(0),
		WithMaxNulls(-1),
		WithMaxExpansions(0),
		WithMaxChoices(-2),
		WithCompareMode(CompareMode(99)),
		WithTimeout(0),
		WithTimeout(-1),
	}
	for i, opt := range bad {
		if _, err := NewSession(cm, gs, opt); !errors.Is(err, ErrBadOptions) {
			t.Errorf("bad option %d: got %v, want ErrBadOptions", i, err)
		}
	}
	if _, err := NewSession(nil, gs); !errors.Is(err, ErrBadOptions) {
		t.Errorf("nil mapping: got %v", err)
	}
	if _, err := NewSession(cm, nil); !errors.Is(err, ErrBadOptions) {
		t.Errorf("nil graph: got %v", err)
	}
	// The legacy free function validates too, without silent clamping.
	if _, err := CertainExact(m, gs, MustREE("(p q)="), ExactOptions{MaxNulls: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("legacy CertainExact with negative MaxNulls: got %v, want ErrBadOptions", err)
	}
}

// TestSessionTypedErrors checks the sentinel taxonomy end to end.
func TestSessionTypedErrors(t *testing.T) {
	ctx := context.Background()

	// ErrInfinite: non-relational mapping has no finite universal solution.
	gs := workload.Chain(3, "e", 0)
	nonRel := NewMapping(R("e", "p*"))
	s := newTestSession(t, gs, nonRel)
	if _, err := s.CertainNull(ctx, MustREE("p")); !errors.Is(err, ErrInfinite) {
		t.Errorf("non-relational: got %v, want ErrInfinite", err)
	}

	// ErrNoSolution: an ε rule demanding two distinct nodes coincide.
	eps := NewMapping(R("e", "()"))
	s2 := newTestSession(t, gs, eps)
	if _, err := s2.UniversalSolution(ctx); !errors.Is(err, ErrNoSolution) {
		t.Errorf("ε-conflict: got %v, want ErrNoSolution", err)
	}

	// ErrBudgetExceeded: exact search over too many nulls.
	big := workload.Chain(30, "e", 0)
	m := NewMapping(R("e", "p q"))
	s3 := newTestSession(t, big, m, WithMaxNulls(2))
	if _, err := s3.CertainExact(ctx, MustREE("(p q)=")); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget: got %v, want ErrBudgetExceeded", err)
	}

	// ErrCanceled wraps the context error on a pre-canceled context.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	s4 := newTestSession(t, big, m)
	if _, err := s4.CertainNull(cctx, MustREE("(p q)=")); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled: got %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: %v should also wrap context.Canceled", err)
	}
	s4small := newTestSession(t, gs, m)
	if _, err := s4small.CertainExact(cctx, MustREE("(p q)=")); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled exact: got %v, want ErrCanceled", err)
	}
	if _, err := s4small.CertainOneInequality(cctx, MustREE("(p q)!="), "n0", "n1"); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled oneneq: got %v, want ErrCanceled", err)
	}

	// ErrSourceMutated: the graph changed under the session.
	mut := workload.Chain(3, "e", 0)
	s5 := newTestSession(t, mut, m)
	if _, err := s5.CertainNull(ctx, MustREE("(p q)=")); err != nil {
		t.Fatal(err)
	}
	mut.MustAddNode("late", V("9"))
	if _, err := s5.CertainNull(ctx, MustREE("(p q)=")); !errors.Is(err, ErrSourceMutated) {
		t.Errorf("mutated: got %v, want ErrSourceMutated", err)
	}
}

// TestPreparedQueryAcrossSessions checks that one prepared query gives
// identical answers on two different sessions and via Bind.
func TestPreparedQueryAcrossSessions(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	gs2 := workload.RandomGraph(workload.GraphSpec{
		Nodes: 60, Edges: 150, Labels: []string{"a", "b"}, Values: 12, Seed: 99,
	})
	ctx := context.Background()
	s1 := newTestSession(t, gs, m)
	s2 := newTestSession(t, gs2, m)
	for i, q := range queries {
		p := PrepareQuery(q)
		if err := p.Bind(ctx, s1); err != nil {
			t.Fatal(err)
		}
		for si, s := range []*Session{s1, s2} {
			want, err := s.CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.CertainNull(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("query %d session %d: prepared answers diverged", i, si)
			}
		}
	}
	if queries[0] != PrepareQuery(queries[0]).Unwrap() {
		t.Fatal("Unwrap should return the original query")
	}
}

// TestSessionEvalSource checks direct source-graph evaluation under the
// configured compare mode.
func TestSessionEvalSource(t *testing.T) {
	gs, m, _ := sessionTestWorkload(t)
	q := MustREE("(a b)=")
	for _, mode := range []CompareMode{MarkedNulls, SQLNulls} {
		s := newTestSession(t, gs, m, WithCompareMode(mode))
		got, err := s.EvalSource(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval(gs, mode)
		if got.Len() != want.Len() {
			t.Fatalf("mode %v: engine source eval %d pairs, sequential %d", mode, got.Len(), want.Len())
		}
	}
}

// enumerateREE is the path-enumeration oracle: every pair of g joined by a
// path of at most maxLen edges (taken from g.Edges()) whose data path the
// direct REE matcher accepts under mode.
func enumerateREE(g *Graph, q *REEQuery, mode CompareMode, maxLen int) *PairSet {
	type step struct {
		label string
		to    int
	}
	adj := make([][]step, g.NumNodes())
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		adj[from] = append(adj[from], step{e.Label, to})
	}
	out := datagraph.NewPairSet()
	var walk func(start int, nodes []int, labels []string)
	walk = func(start int, nodes []int, labels []string) {
		vals := make([]datagraph.Value, len(nodes))
		for i, n := range nodes {
			vals[i] = g.Value(n)
		}
		if ree.MatchDirect(q.Expr(), datagraph.NewDataPath(vals, labels), mode) {
			out.Add(start, nodes[len(nodes)-1])
		}
		if len(labels) == maxLen {
			return
		}
		for _, st := range adj[nodes[len(nodes)-1]] {
			walk(start, append(nodes, st.to), append(labels, st.label))
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk(u, []int{u}, nil)
	}
	return out
}

// TestSessionGenericREEMatchesOracle sends REEs nested nine = deep — more
// registers than the interned kernel packs, so evaluation takes the
// generic register-automaton path — through a session: directly over a
// source graph with nulls under both compare modes, and as certain answers
// over the universal solution, whose nulls come from the chase. Both must
// equal the path-enumeration oracle exactly (the queries are star-free, so
// paths of their fixed length suffice).
func TestSessionGenericREEMatchesOracle(t *testing.T) {
	queries := map[string]int{ // query text → match length
		"(((((((((p)=)=)=)=)=)=)=)=)=":      1,
		"(p ((((((((q p)=)=)=)=)=)=)=)=)!=": 3,
	}
	rng := rand.New(rand.NewSource(13))
	gs := datagraph.New()
	const n = 10
	for i := 0; i < n; i++ {
		val := datagraph.V(fmt.Sprintf("d%d", rng.Intn(2)))
		if rng.Intn(4) == 0 {
			val = datagraph.Null()
		}
		gs.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), val)
	}
	for k := 0; k < 4*n; k++ {
		gs.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))), []string{"a", "p", "q"}[rng.Intn(3)],
			datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))))
	}
	m := NewMapping(R("a", "p q"), R("p", "p"), R("q", "q"))
	ctx := context.Background()
	for text, length := range queries {
		q := MustREE(text)
		if regs := q.Automaton().NumRegs; regs != 9 {
			t.Fatalf("%s: %d registers, want 9", text, regs)
		}
		for _, mode := range []CompareMode{MarkedNulls, SQLNulls} {
			s := newTestSession(t, gs, m, WithCompareMode(mode))
			got, err := s.EvalSource(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := enumerateREE(gs, q, mode, length); !got.Equal(want) {
				t.Fatalf("%s mode %v: source eval %v, oracle %v", text, mode, got.Sorted(), want.Sorted())
			}
		}
		s := newTestSession(t, gs, m)
		got, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		u, err := s.UniversalSolution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := core.FilterNullAnswers(u, enumerateREE(u, q, SQLNulls, length))
		if !got.Equal(want) {
			t.Fatalf("%s: certain answers %v, oracle %v", text, got, want)
		}
	}
}
