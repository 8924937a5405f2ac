package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// api is a minimal gsmd client. Unlike internal/server/client it never
// retries: a refused or failed request counts as failed. Its transport
// holds at most conns connections.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(addr string, conns int) *api {
	return &api{base: "http://" + addr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// call sends one request and reads the whole response body. The duration
// runs from send until the body is read.
func (a *api) call(method, path string, body []byte) ([]byte, time.Duration, error) {
	return a.callInto(new(bytes.Buffer), method, path, body)
}

// callInto is call reading the body into buf, whose bytes the result
// aliases until buf is reused. A client that reuses one buffer spares the
// shared CPUs the garbage of a multi-megabyte body per request.
func (a *api) callInto(buf *bytes.Buffer, method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	out := buf.Bytes()
	if err != nil {
		return nil, d, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, d, nil
}

// do marshals in (when non-nil), sends it and decodes the reply into out
// (when non-nil).
func (a *api) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, _, err := a.call(method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

func (a *api) registerMapping(name, text string) error {
	return a.do("POST", "/v1/mappings", server.RegisterMappingRequest{Name: name, Text: text}, nil)
}

func (a *api) registerGraph(name, text string) error {
	return a.do("POST", "/v1/graphs", server.RegisterGraphRequest{Name: name, Text: text}, nil)
}

func (a *api) openSession(mapping, graph string) (string, error) {
	var si server.SessionInfo
	err := a.do("POST", "/v1/sessions", server.CreateSessionRequest{Mapping: mapping, Graph: graph}, &si)
	return si.ID, err
}

func (a *api) closeSession(id string) error { return a.do("DELETE", "/v1/sessions/"+id, nil, nil) }

func (a *api) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	err := a.do("GET", "/v1/stats", nil, &st)
	return st, err
}

// queryMeta is a query response without its answers.
type queryMeta struct {
	Count     int     `json:"count"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

var answersKey = []byte(`"answers":`)

// verifyReply compares the answers of a raw query response byte-for-byte
// with want, the expected canonical encoding, and decodes the other
// fields. It reports false on a mismatch. Comparing the raw bytes, not a
// decoded copy, keeps the client's share of the two CPUs small: the load
// generator runs next to gsmd.
func verifyReply(raw, want []byte) (queryMeta, bool, error) {
	var m queryMeta
	i := bytes.Index(raw, answersKey)
	if i < 0 {
		return m, false, fmt.Errorf("query reply has no answers field")
	}
	i += len(answersKey)
	if !bytes.HasPrefix(raw[i:], want) {
		return m, false, nil
	}
	doc := append(append(append([]byte(nil), raw[:i]...), "null"...), raw[i+len(want):]...)
	if err := json.Unmarshal(doc, &m); err != nil {
		return m, false, fmt.Errorf("decoding query reply: %w", err)
	}
	return m, true, nil
}

// queryBody is the request body for one query text; built once per query
// so the timed loop does no encoding.
func queryBody(text string) []byte {
	b, err := json.Marshal(server.QueryRequest{Query: text})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// query runs one prepared query body on a session, reading the reply
// into buf.
func (a *api) query(buf *bytes.Buffer, session string, body []byte) ([]byte, time.Duration, error) {
	return a.callInto(buf, "POST", "/v1/sessions/"+session+"/query", body)
}

// ingest streams one relational load and returns the terminal chunk.
func (a *api) ingest(name string, body []byte) (server.IngestChunk, time.Duration, error) {
	raw, d, err := a.call("POST", "/v1/graphs/"+name+"/ingest", body)
	if err != nil {
		return server.IngestChunk{}, d, err
	}
	// Progress chunks precede the terminal one; only the last line counts.
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var last server.IngestChunk
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return last, d, fmt.Errorf("decoding ingest chunk: %w", err)
	}
	if last.Error != "" {
		return last, d, fmt.Errorf("ingest %s: %s (%s)", name, last.Error, last.Kind)
	}
	if !last.Done || last.Graph == nil || last.Report == nil {
		return last, d, fmt.Errorf("ingest %s: stream ended without a done chunk", name)
	}
	return last, d, nil
}
