// Recovery: sequential scan of checkpoint + segments, stopping at the
// first torn or corrupt frame anywhere (the global clean-prefix rule).
// In repair mode the offending file is truncated back to its last whole
// record and every later segment is deleted, so the next writer appends
// after a history that is exactly what a reader would have replayed.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Recovery describes what a scan of a WAL directory could replay.
type Recovery struct {
	// Records is the clean prefix, checkpoint records first, then segment
	// records in segment then file order. TypeCheckpoint records are
	// consumed by the scan and never appear here.
	Records []Record
	// Segments is the number of segment files that contributed records.
	Segments int
	// LoadErrors counts corruption events: each torn/corrupt frame that
	// cut a file short, plus each later segment discarded because an
	// earlier file was cut.
	LoadErrors int
	// Truncated names the first file found torn or corrupt ("" if none).
	Truncated string
}

// layout is what Open needs to position the writer after recovery.
type layout struct {
	through  int   // checkpoint's Through (0 if no checkpoint)
	lastSeg  int   // highest surviving segment number (0 if none)
	lastSize int64 // clean byte size of that segment
}

// scanFile decodes the whole-frame prefix of one file, returning the
// records, the clean byte offset, and whether the file ended mid-frame.
func scanFile(path string) (recs []Record, clean int64, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: read %s: %w", path, err)
	}
	var off int64
	for off < int64(len(buf)) {
		rec, next, ok := decodeFrame(buf, off)
		if !ok {
			return recs, off, true, nil
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, false, nil
}

// recoverDir scans dir and returns the replayable prefix. With repair set
// it also truncates the first bad file at its clean offset and removes
// every segment after it, restoring the invariant that everything on disk
// is a whole-frame clean prefix.
func recoverDir(dir string, repair bool) (Recovery, layout, error) {
	var rec Recovery
	var lay layout

	cut := false // a file was found torn: discard (and maybe delete) the rest
	cp := checkpointPath(dir)
	if _, err := os.Stat(cp); err == nil {
		recs, clean, torn, err := scanFile(cp)
		if err != nil {
			return rec, lay, err
		}
		if len(recs) > 0 && recs[0].Type == TypeCheckpoint {
			var meta checkpointMeta
			if json.Unmarshal(recs[0].Payload, &meta) == nil {
				lay.through = meta.Through
			}
			rec.Records = append(rec.Records, recs[1:]...)
		} else {
			// A checkpoint whose meta record is itself torn subsumes
			// nothing; replay whatever decoded.
			rec.Records = append(rec.Records, recs...)
			torn = true
		}
		if torn {
			cut = true
			rec.LoadErrors++
			rec.Truncated = cp
			if repair {
				if err := os.Truncate(cp, clean); err != nil {
					return rec, lay, fmt.Errorf("wal: truncate %s: %w", cp, err)
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return rec, lay, fmt.Errorf("wal: stat checkpoint: %w", err)
	}

	segs := listSegments(dir)
	for _, n := range sortedSegments(segs) {
		path := segs[n]
		if n <= lay.through || cut {
			// Subsumed by the checkpoint (a crash between checkpoint
			// rename and segment deletion leaves these; their records
			// replay idempotently so skipping them is merely an
			// optimisation) — or past the cut, where records may depend
			// on discarded ones.
			if cut {
				rec.LoadErrors++
				if repair {
					os.Remove(path)
				}
			}
			continue
		}
		recs, clean, torn, err := scanFile(path)
		if err != nil {
			return rec, lay, err
		}
		rec.Records = append(rec.Records, recs...)
		rec.Segments++
		lay.lastSeg, lay.lastSize = n, clean
		if torn {
			cut = true
			rec.LoadErrors++
			if rec.Truncated == "" {
				rec.Truncated = path
			}
			if repair {
				if err := os.Truncate(path, clean); err != nil {
					return rec, lay, fmt.Errorf("wal: truncate %s: %w", path, err)
				}
			}
		}
	}
	if repair && (cut || len(segs) > 0) {
		if err := syncDir(dir); err != nil {
			return rec, lay, err
		}
	}
	return rec, lay, nil
}

// readFrames reads what a compaction folds: the live checkpoint, less its
// checkpoint record, then the segments after `after` up to `through`. It
// returns each frame's bytes as stored beside its record's type and job. A
// torn or corrupt frame is an error: Open left these files whole.
func readFrames(dir string, after, through int) (frames [][]byte, heads []Record, err error) {
	paths := []string{checkpointPath(dir)}
	segs := listSegments(dir)
	for _, n := range sortedSegments(segs) {
		if n > after && n <= through {
			paths = append(paths, segs[n])
		}
	}
	for i, path := range paths {
		buf, err := os.ReadFile(path)
		if i == 0 && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: compact: %w", err)
		}
		var off int64
		if i == 0 {
			_, off, _ = frameAt(buf, 0)
		}
		for off < int64(len(buf)) {
			payload, next, ok := frameAt(buf, off)
			h, err := recordHead(payload)
			if !ok || err != nil {
				return nil, nil, fmt.Errorf("wal: compact: %s is corrupt at offset %d", path, off)
			}
			frames = append(frames, buf[off:next])
			heads = append(heads, h)
			off = next
		}
	}
	return frames, heads, nil
}

// recordHead decodes a record's type and job alone: the payload, which
// appendFrame's json.Marshal writes after them, is cut off unread. The
// prefix appendFrame writes is parsed by hand (parseHead); any other shape
// goes through unmarshalHead, and the two agree on every input.
func recordHead(b []byte) (Record, error) {
	if h, ok := parseHead(b); ok {
		return h, nil
	}
	return unmarshalHead(b)
}

// unmarshalHead is recordHead's general path: json.Unmarshal of the
// record with its payload cut off.
func unmarshalHead(b []byte) (h Record, err error) {
	if i := bytes.Index(b, []byte(`,"payload":`)); i >= 0 {
		b = append(b[:i:i], '}')
	}
	err = json.Unmarshal(b, &h)
	return h, err
}

// parseHead reads {"type":"…" and an optional ,"job_id":"…", then needs
// the object's end or its payload. ok is false for anything else — another
// field or order, an escape or a byte outside printable ASCII in either
// string — which json.Unmarshal may read differently.
func parseHead(b []byte) (h Record, ok bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"type":`))
	if !ok {
		return h, false
	}
	var typ, job string
	if typ, rest, ok = plainString(rest); !ok {
		return h, false
	}
	if r, found := bytes.CutPrefix(rest, []byte(`,"job_id":`)); found {
		if job, rest, ok = plainString(r); !ok {
			return h, false
		}
	}
	if string(rest) != "}" && !bytes.HasPrefix(rest, []byte(`,"payload":`)) {
		return h, false
	}
	return Record{Type: Type(typ), JobID: job}, true
}

// plainString reads a JSON string of printable ASCII with no escapes from
// the start of b and returns it with the bytes after it.
func plainString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return string(b[1:i]), b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", nil, false
		}
	}
	return "", nil, false
}

// ReadAll scans dir read-only — no truncation, no deletion — and returns
// the replayable clean prefix. Tooling and the crash battery use it to
// inspect a log image without disturbing it.
func ReadAll(dir string) (Recovery, error) {
	rec, _, err := recoverDir(dir, false)
	return rec, err
}

// CopyPrefix materialises, in dst, a log image equivalent to crashing src
// immediately after its nth surviving record: the first n records of src's
// clean prefix are re-framed into a single segment, followed by tail's raw
// bytes (a torn fragment, garbage, or nil). The crash battery uses it to
// synthesise every "crashed at append N" state from one uninterrupted run.
func CopyPrefix(src, dst string, n int, tail []byte) error {
	rec, err := ReadAll(src)
	if err != nil {
		return err
	}
	if n > len(rec.Records) {
		return fmt.Errorf("wal: prefix %d exceeds %d recovered records", n, len(rec.Records))
	}
	var buf []byte
	for _, r := range rec.Records[:n] {
		if buf, err = appendFrame(buf, r); err != nil {
			return err
		}
	}
	buf = append(buf, tail...)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return os.WriteFile(segPath(dst, 1), buf, 0o644)
}
