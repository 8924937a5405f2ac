package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
)

// wireAnswer builds the facade answer appendAnswer encodes.
func wireAnswer(fromID, fromVal string, fromNull bool, toID, toVal string, toNull bool) repro.Answer {
	node := func(id, val string, null bool) repro.Node {
		if null {
			return repro.Node{ID: repro.NodeID(id), Value: repro.Null()}
		}
		return repro.Node{ID: repro.NodeID(id), Value: repro.V(val)}
	}
	return repro.Answer{From: node(fromID, fromVal, fromNull), To: node(toID, toVal, toNull)}
}

// FuzzAppendAnswer pins appendAnswer to encoding/json byte for byte: for
// any ids and values, null or not, it writes json.Marshal of the wire
// Answer.
func FuzzAppendAnswer(f *testing.F) {
	for _, s := range []string{
		"", // empty value: omitted (omitempty)
		"plain",
		`quote"backslash\`,
		"<html>&amp;",
		"\b\f\n\r\t",
		"\x00\x01\x1f\x7f",
		"\xff\xfe",               // invalid UTF-8
		"a\xe2\x80",              // truncated rune
		"\u2028\u2029",           // line and paragraph separators
		"\u00e9\u4e2d\U0001F600", // multi-byte runes
		"\xed\xa0\x80",           // an encoded surrogate: invalid UTF-8
		"\ufffd",                 // a literal replacement character
		"x\u2027\u202a\xc0",      // neighbours of the escaped runes
	} {
		f.Add(s, s, false, "to", "", false)
		f.Add("from", "", true, s, s, false)
		f.Add(s, "", true, s, "", true)
	}
	f.Fuzz(func(t *testing.T, fromID, fromVal string, fromNull bool, toID, toVal string, toNull bool) {
		a := wireAnswer(fromID, fromVal, fromNull, toID, toVal, toNull)
		want, err := json.Marshal(Answer{From: nodeWire(a.From), To: nodeWire(a.To)})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAnswer(nil, a); !bytes.Equal(got, want) {
			t.Fatalf("appendAnswer:\n got %s\nwant %s", got, want)
		}
	})
}

// TestAppendFloatMatchesEncodingJSON covers both notations of appendFloat
// and the exponent clean-up at their borders.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.5, 12.345678, 1234567.125, 1e-6, 9.99e-7, 1e-7, 1.5e-9,
		1e20, 1e21, 1.2345e25, math.SmallestNonzeroFloat64, math.MaxFloat64, -2.5e-8,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// escapeMapping and escapeGraph are a small relational pair whose ids and
// values need JSON escaping and whose universal solution has few enough
// nulls for the exact algorithm: each a-edge becomes an f-path of length
// two through one null.
const (
	escapeMapping = "rule a -> f f\n"
	escapeGraph   = "node x<1> v&1\n" +
		"node y\"2 v\\2\n" +
		"node z\xe9 \x01\n" +
		"node w\xc3\xa9 null\n" +
		"edge x<1> a y\"2\n" +
		"edge y\"2 a z\xe9\n" +
		"edge z\xe9 a x<1>\n" +
		"edge x<1> a w\xc3\xa9\n"
)

// rawRequest runs one request and returns its status and body.
func rawRequest(t *testing.T, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(b)))
	return w.Code, w.Body.Bytes()
}

// TestQueryBodiesMatchEncodingJSON compares whole response bodies, byte for
// byte, with what encoding/json writes for the QueryResponse of the
// embedded session's answers: envelope order, elapsed_ms formatting, "[]"
// for an empty set and the trailing newline included. It covers the
// session and one-shot endpoints, the three algorithms, a non-empty and an
// empty answer set, and ids and values that need escaping; the stream's
// answer lines are checked the same way.
func TestQueryBodiesMatchEncodingJSON(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterMappingText("m", escapeMapping); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterGraphText("g", escapeGraph); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var si SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "", CreateSessionRequest{Mapping: "m", Graph: "g"}, &si); code != http.StatusOK {
		t.Fatalf("create session: status %d", code)
	}
	m, err := repro.ParseMapping(escapeMapping)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := repro.ParseGraph(escapeGraph)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := repro.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := repro.NewSession(cm, gs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	algos := map[string]func(repro.Query) (*repro.Answers, error){
		"null":  func(q repro.Query) (*repro.Answers, error) { return embedded.CertainNull(ctx, q) },
		"least": func(q repro.Query) (*repro.Answers, error) { return embedded.CertainLeastInformative(ctx, q) },
		"exact": func(q repro.Query) (*repro.Answers, error) { return embedded.CertainExact(ctx, q) },
	}
	sizes := map[bool]bool{} // empty → seen
	for algo, certain := range algos {
		for _, text := range []string{"f f", "g"} {
			q, err := repro.ParseREE(text)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := certain(q)
			if err != nil {
				t.Fatalf("%s %q: %v", algo, text, err)
			}
			sizes[ans.Len() == 0] = true
			for path, body := range map[string]any{
				"/v1/sessions/" + si.ID + "/query": QueryRequest{Query: text, Algo: algo},
				"/v1/query":                        OneShotRequest{Mapping: "m", Graph: "g", Query: text, Algo: algo},
			} {
				code, got := rawRequest(t, h, path, body)
				if code != http.StatusOK {
					t.Fatalf("%s %s %q: status %d: %s", path, algo, text, code, got)
				}
				var qr QueryResponse
				if err := json.Unmarshal(got, &qr); err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(QueryResponse{
					Algo: algo, Count: ans.Len(), Answers: AnswersWire(ans), ElapsedMS: qr.ElapsedMS,
				})
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s %s %q: body differs from encoding/json\n got %s\nwant %s", path, algo, text, got, want.Bytes())
				}
			}
			if algo == "exact" {
				continue // the stream serves null and least only
			}
			// The stream's lines: the embedded stream's answers in its
			// order, then the done marker.
			seq := embedded.CertainNullSeq(ctx, q)
			if algo == "least" {
				seq = embedded.CertainLeastInformativeSeq(ctx, q)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			count := 0
			for a, err := range seq {
				if err != nil {
					t.Fatal(err)
				}
				enc.Encode(StreamChunk{Answer: &Answer{From: nodeWire(a.From), To: nodeWire(a.To)}})
				count++
			}
			enc.Encode(StreamChunk{Done: true, Count: count})
			code, got := rawRequest(t, h, "/v1/sessions/"+si.ID+"/stream", QueryRequest{Query: text, Algo: algo})
			if code != http.StatusOK {
				t.Fatalf("stream %s %q: status %d", algo, text, code)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("stream %s %q: body differs from encoding/json\n got %s\nwant %s", algo, text, got, want.Bytes())
			}
		}
	}
	if !sizes[true] || !sizes[false] {
		t.Fatalf("want both empty and non-empty answer sets, saw %v", sizes)
	}
}
