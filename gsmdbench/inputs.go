package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// spec is one workload's generator parameters. A serve workload sets
// nodes; ingest-exchange sets rel.
type spec struct {
	name string
	// nodes sizes workload.Serving's source graph (E = 3V).
	nodes int
	// selective is the length of workload.Serving's own query stream of
	// selective paths-with-tests over the hot labels s/t.
	selective int
	// wide, when > 0, replaces that stream with this many star-free
	// navigational and equality queries over the bulk labels p/q/r.
	wide int
	// rel sizes the relational dataset of ingest-exchange.
	rel workload.RelationalSpec
	// reps is how many times set-up runs; setup_s is their median.
	reps int
}

func (s spec) String() string {
	if s.rel.Orders > 0 {
		return fmt.Sprintf("%s: closed loop, 1 client; workload.Relational customers=%d products=%d orders=%d, batch %q, %d set-ups",
			s.name, s.rel.Customers, s.rel.Products, s.rel.Orders, ingestQueries, s.reps)
	}
	if s.wide > 0 {
		return fmt.Sprintf("%s: closed loop, %d clients; workload.Serving V=%d E=%d, %d wide queries over p/q/r, %d set-ups",
			s.name, clients(), s.nodes, 3*s.nodes, s.wide, s.reps)
	}
	return fmt.Sprintf("%s: closed loop, %d clients; workload.Serving V=%d E=%d, %d selective queries, %d set-ups",
		s.name, clients(), s.nodes, 3*s.nodes, s.selective, s.reps)
}

// specs are the benchmark's workloads; BENCHMARK.json gives the reason
// each was chosen. ingest-exchange is left out of BENCHMARK.json: gsmd
// answers its queries with a 500, because the relational mapping's dom
// holds NULL city cells and core.Materialization.SizeBytes calls
// Value.Raw on them.
var specs = map[string]spec{
	"serve-selective": {name: "serve-selective", nodes: 3000, selective: 50, reps: 21},
	"serve-wide":      {name: "serve-wide", nodes: 10000, wide: 16, reps: 15},
	"ingest-exchange": {name: "ingest-exchange", rel: workload.RelationalSpec{Customers: 2500, Products: 500, Orders: 9500}, reps: 5},
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ingestMappingText is E18's relational mapping over the direct-mapped
// labels: order placements become placed-by edges, customer cities
// located-in.
const ingestMappingText = "rule orders#customer -> placed-by\nrule customer#city -> located-in\n"

// ingestQueries is the batch each ingest-exchange iteration asks; the
// first one is the time-to-first-certain-answer probe.
var ingestQueries = []string{"placed-by located-in", "placed-by", "(placed-by located-in)=", "located-in"}

// wideUnits are the two-hop images of the bulk source labels a and b
// under the serving mapping (a -> p q, b -> r q). They carry equal weight
// in the source, so swapping one for the other keeps a query's cost.
var wideUnits = []string{"p q", "r q"}

// wideTemplates are the shapes of the serve-wide stream. Each returns
// 10³–10⁵ answers, and its cost does not depend on which unit fills a
// slot. Stars over bulk labels are left out: their answer sets grow
// quadratically and test work bounds, not throughput.
var wideTemplates = []string{
	"%s",
	"(%s)!=",
	"%s %s",
	"(%s %s)!=",
	"(%s)!= %s",
}

// wideStream draws n queries: templates in turn, each slot filled with a
// seed-chosen unit, then shuffled by the seed.
func wideStream(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		tmpl := wideTemplates[i%len(wideTemplates)]
		args := make([]any, strings.Count(tmpl, "%s"))
		for j := range args {
			args[j] = wideUnits[rng.Intn(len(wideUnits))]
		}
		out[i] = fmt.Sprintf(tmpl, args...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// servingInputs is a serve workload's generated input: the wire texts
// gsmd receives, the objects the embedded path evaluates, and each
// client's replay order.
type servingInputs struct {
	sc      workload.ServingScenario
	queries []string
	order   [][]int
}

// newServingInputs builds the scenario at workload.Serving's default seed,
// so the graph and the selective stream are the measured defaults. The
// run's seed draws the serve-wide stream and every client's replay order;
// each client replays its own permutation of the stream, cyclically.
func newServingInputs(sp spec, seed int64, clients int) servingInputs {
	sc := workload.Serving(workload.ServingSpec{Nodes: sp.nodes, Queries: sp.selective})
	in := servingInputs{sc: sc, queries: sc.QueryTexts}
	if sp.wide > 0 {
		in.queries = wideStream(sp.wide, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < clients; c++ {
		in.order = append(in.order, rng.Perm(len(in.queries)))
	}
	return in
}

// expectedAnswers computes each query's answers through the embedded
// repro.Session path, in the server's canonical wire encoding (what
// gsmload -verify compares against).
func expectedAnswers(sess *repro.Session, queries []string) ([][]byte, []int, error) {
	want := make([][]byte, len(queries))
	counts := make([]int, len(queries))
	for i, text := range queries {
		q, err := repro.ParseREE(text)
		if err != nil {
			return nil, nil, fmt.Errorf("query %q: %w", text, err)
		}
		ans, err := sess.CertainNull(context.Background(), q)
		if err != nil {
			return nil, nil, fmt.Errorf("query %q: %w", text, err)
		}
		if want[i], err = json.Marshal(server.AnswersWire(ans)); err != nil {
			return nil, nil, err
		}
		counts[i] = ans.Len()
	}
	return want, counts, nil
}
