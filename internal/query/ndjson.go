package query

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// flusher lets WriteNDJSON push each row to the client as it is produced
// (http.ResponseWriter implements it via http.NewResponseController in the
// server; files and buffers simply don't).
type flusher interface{ Flush() error }

// WriteNDJSON streams the result as one JSON object per line, keys in
// column order (stable bytes: no map iteration, floats rendered by
// encoding/json's shortest-roundtrip rules). When w implements
// Flush() error, every row is flushed as written so clients see rows as
// they stream. Returns the row count and the first write or query error.
func WriteNDJSON(w io.Writer, rows *Rows) (int, error) {
	f, _ := w.(flusher)
	cols := rows.Columns()
	// Column keys are constant across rows; pre-encode them once.
	keys := make([][]byte, len(cols))
	for i, c := range cols {
		k, err := json.Marshal(c.Name)
		if err != nil {
			return 0, err
		}
		keys[i] = k
	}
	n := 0
	buf := make([]byte, 0, 256)
	for rows.Next() {
		buf = buf[:0]
		buf = append(buf, '{')
		for i, v := range rows.Row() {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, keys[i]...)
			buf = append(buf, ':')
			buf = appendValue(buf, v)
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return n, err
		}
		if f != nil {
			if err := f.Flush(); err != nil {
				return n, err
			}
		}
		n++
	}
	return n, rows.Err()
}

// appendValue renders one cell as JSON, with floats in encoding/json's
// exact bytes (see appendFloat) so golden files never churn on formatting.
func appendValue(buf []byte, v Value) []byte {
	switch v.Type {
	case TypeInt:
		return strconv.AppendInt(buf, v.I, 10)
	case TypeFloat:
		return appendFloat(buf, v.F)
	}
	b, _ := json.Marshal(v.S)
	return append(buf, b...)
}

// appendFloat renders f as encoding/json does (shortest roundtrip; 'e'
// notation below 1e-6 and from 1e21 up, with a two-digit negative exponent
// trimmed to one, e-07 to e-7), without json.Marshal's allocation.
func appendFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// Unreachable: every stored metric is finite (durations, byte
		// counts, ratios of positive quantities); json.Marshal would fail.
		return append(buf, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}
