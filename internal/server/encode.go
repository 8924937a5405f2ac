package server

import (
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro"
)

// This file writes the answer-carrying bodies by hand: the query
// endpoints' QueryResponse and the stream's answer lines. The bytes are
// exactly what encoding/json writes for the wire types in types.go
// (AnswersWire stays as the reference the tests and the load generators
// compare against), without building the []Answer copy or reflecting over
// it per answer.

// writeAnswers writes a 200 QueryResponse for ans. elapsed_ms runs from
// start until the answers are encoded, before the write.
func writeAnswers(w http.ResponseWriter, algo string, ans *repro.Answers, start time.Time) {
	b := make([]byte, 0, 64+96*ans.Len())
	b = append(b, `{"algo":`...)
	b = appendString(b, algo)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(ans.Len()), 10)
	b = append(b, `,"answers":`...)
	b = appendAnswers(b, ans)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, float64(time.Since(start))/float64(time.Millisecond))
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// appendAnswers appends the JSON array of ans in (from, to) id order:
// json.Marshal(AnswersWire(ans)), "[]" when empty.
func appendAnswers(b []byte, ans *repro.Answers) []byte {
	b = append(b, '[')
	first := true
	for a := range ans.All() {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendAnswer(b, a)
	}
	return append(b, ']')
}

// appendAnswer appends one answer as json.Marshal(Answer{…}) would.
func appendAnswer(b []byte, a repro.Answer) []byte {
	b = append(b, `{"from":`...)
	b = appendNode(b, a.From)
	b = append(b, `,"to":`...)
	b = appendNode(b, a.To)
	return append(b, '}')
}

// appendNode appends the canonical wire Node: the id, then either
// "null":true or a non-empty value (the omitempty fields of Node).
func appendNode(b []byte, n repro.Node) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, string(n.ID))
	switch {
	case n.Value.IsNull():
		b = append(b, `,"null":true`...)
	case n.Value.Raw() != "":
		b = append(b, `,"value":`...)
		b = appendString(b, n.Value.Raw())
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on (its default): <, > and & and control bytes become
// \u00XX (\b, \f, \n, \r and \t keep their short forms), invalid UTF-8
// becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite float64 the way encoding/json does: the
// shortest representation, in exponent form only below 1e-6 or from 1e21
// on, with the exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
