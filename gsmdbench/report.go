package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// statsDelta is the part of GET /v1/stats the traced run compares before
// and after its window.
type statsDelta struct {
	admitted, shed uint64
	queued         int
	resident       int64
}

func readStats(a *api) (statsDelta, error) {
	st, err := a.stats()
	if err != nil {
		return statsDelta{}, err
	}
	d := statsDelta{queued: st.Queued, resident: st.ResidentBytes}
	for _, t := range st.Tenants {
		d.admitted += t.Admitted
		d.shed += t.Shed + t.RateLimited
	}
	return d, nil
}

// printUngated prints the end-to-end figures the result line leaves out.
// The p99 latency, the time from landing a graph to its first certain
// answers and the landing rate swing with the host's load by more than the
// largest bound a gated metric may have; on the serve workloads the latter
// two are parts of setup_s, which is gated. The error rate is zero
// whenever the run is valid; attempted and failed carry it.
func printUngated(res *result, lat []time.Duration, t2fca, landRate []float64) {
	fmt.Printf("# latency_p99_ms %.4f ms over %d requests\n", percentile(lat, 99), len(lat))
	fmt.Printf("# error_rate %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("# t2fca_p50_ms %.4f ms over %d landings\n", median(t2fca), len(t2fca))
	fmt.Printf("# ingest_rows_per_s %.1f 1/s over %d landings\n", median(landRate), len(landRate))
}

// setServerMetrics sets the server-layer metrics of a traced window.
func setServerMetrics(res *result, timed, untraced *tally, st0, st1 statsDelta) {
	var backend, overhead []float64
	var lat []time.Duration
	size := 0
	for _, s := range timed.samples {
		backend = append(backend, s.backend)
		overhead = append(overhead, msOf(s.lat)-s.backend)
		lat = append(lat, s.lat)
		size += s.size
	}
	res.set("server.backend_ms_p50", "ms", median(backend))
	res.set("server.overhead_ms_p50", "ms", median(overhead))
	res.set("server.response_kb", "KiB", float64(size)/float64(len(timed.samples))/1024)
	res.set("server.admitted", "count", float64(st1.admitted-st0.admitted))
	res.set("server.queued", "count", float64(st1.queued-st0.queued))
	res.set("server.shed", "count", float64(st1.shed-st0.shed))
	res.set("server.resident_mb", "MB", float64(st1.resident)/(1<<20))
	var plain []time.Duration
	for _, s := range untraced.samples {
		plain = append(plain, s.lat)
	}
	res.set("trace.overhead_share", "ratio", percentile(lat, 50)/percentile(plain, 50)-1)
}

// setDecomposition sets the residuals between the client's latency and
// the spans that explain it, as means per query so that they add up:
// client latency against the server's elapsed_ms plus the marshalling
// that follows it, elapsed_ms against the in-process facade call plus the
// wire conversion inside it, and that call against the engine plus null
// filtering.
func setDecomposition(res *result, timed *tally, lt layerTimes) {
	var lat, backend float64
	for _, s := range timed.samples {
		lat += msOf(s.lat)
		backend += s.backend
	}
	n := float64(len(timed.samples))
	lat, backend = lat/n, backend/n
	res.set("decomp.client_residual_ms", "ms", lat-backend-lt.marshal)
	res.set("decomp.server_residual_ms", "ms", backend-lt.certainNull-lt.wire)
	res.set("decomp.backend_residual_ms", "ms", lt.certainNull-lt.eval-lt.filter)
}

// replayFailed reports whether the layer replay ended the run: a mismatch
// marks the result incorrect, any other error fails the run.
func replayFailed(res *result, err error) (bool, error) {
	var mm errMismatch
	if errors.As(err, &mm) {
		res.Correct = false
		fmt.Printf("# %v\n", err)
		return true, nil
	}
	return err != nil, err
}

// finishTrace writes the spans out and counts them.
func finishTrace(cfg config, tr *tracer, res *result) error {
	res.set("trace.spans", "count", float64(len(tr.spans)))
	return tr.write(filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.json", cfg.spec.name, cfg.seed)))
}
