package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzDecode throws arbitrary bytes at recovery as a segment file: it must
// never panic, must always return a clean (fully re-decodable) prefix, and
// repair-mode Open on the same bytes must leave a directory that appends
// and re-recovers consistently.
func FuzzDecode(f *testing.F) {
	good, _ := Encode(Record{Type: TypeCaseDone, JobID: "job-000001", Payload: []byte(`{"i":1}`)})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])                         // torn tail
	f.Add(append(append([]byte{}, good...), good...)) // two records
	f.Add(append(append([]byte{}, good...), 0xde, 0xad, 0xbe, 0xef))
	flipped := append([]byte{}, good...)
	flipped[headerBytes+1] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}) // huge length field
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Skip()
		}
		rec, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("ReadAll errored (must tolerate any bytes): %v", err)
		}
		// The recovered prefix must itself be a clean log: re-encode every
		// record and decode it back.
		for i, r := range rec.Records {
			buf, err := Encode(r)
			if err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			if _, _, ok := decodeFrame(buf, 0); !ok {
				t.Fatalf("record %d re-encoding does not decode", i)
			}
		}
		// The clean prefix must be a byte prefix of the input.
		var prefix []byte
		for _, r := range rec.Records {
			prefix, _ = appendFrame(prefix, r)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("recovered records are not a byte prefix of the input")
		}

		// Repair mode: open, append one record, close, re-read. The result
		// must be exactly prefix + appended.
		l, rec2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if len(rec2.Records) != len(rec.Records) {
			t.Fatalf("repair-mode recovery found %d records, read-only found %d", len(rec2.Records), len(rec.Records))
		}
		extra := Record{Type: TypeTerminal, JobID: "job-000009", Payload: []byte(`{"ok":true}`)}
		if err := l.Append(extra); err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		rec3, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("ReadAll after repair: %v", err)
		}
		if len(rec3.Records) != len(rec.Records)+1 {
			t.Fatalf("after repair+append: %d records, want %d", len(rec3.Records), len(rec.Records)+1)
		}
		last := rec3.Records[len(rec3.Records)-1]
		if last.Type != extra.Type || last.JobID != extra.JobID || string(last.Payload) != string(extra.Payload) {
			t.Fatalf("appended record corrupted: %+v", last)
		}
		if rec3.LoadErrors != 0 {
			t.Fatalf("repaired directory still reports %d load errors", rec3.LoadErrors)
		}
	})
}

// FuzzRecordHead checks recordHead, whose hand-written parse covers the
// prefix appendFrame writes, against unmarshalHead, the json.Unmarshal it
// stands in for: on every input both fail, or both succeed with the same
// type and job. Seeds are FuzzDecode's frames and their payloads, plus
// records whose job IDs need escaping.
func FuzzRecordHead(f *testing.F) {
	good, _ := Encode(Record{Type: TypeCaseDone, JobID: "job-000001", Payload: []byte(`{"i":1}`)})
	for _, seed := range [][]byte{
		{}, good, good[:len(good)-3], good[headerBytes:], good[headerBytes : len(good)-3],
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},
		[]byte(`{"type":"checkpoint","payload":{"through":3}}`),
		[]byte(`{"type":"started","job_id":"job-000002"}`),
		[]byte(`{"job_id":"job-000002","type":"started"}`),
		[]byte(`{"TYPE":"started","job_id":"job-000002"}`),
		[]byte(`{"type":"started","job_id":"job-000002"} `),
		[]byte(`{"type":"started","job_id":"a","job_id":"b"}`),
	} {
		f.Add(seed)
	}
	for _, id := range []string{`job-"1"`, `job\2`, "job-é", "job- ", "job-\x01", "job-\x7f", `a","payload":"b`} {
		rec, _ := json.Marshal(Record{Type: TypeTerminal, JobID: id, Payload: []byte(`{"ok":true}`)})
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotErr := recordHead(b)
		want, wantErr := unmarshalHead(b)
		if (gotErr == nil) != (wantErr == nil) || got.Type != want.Type || got.JobID != want.JobID {
			t.Fatalf("recordHead(%q) = %+v, %v; json.Unmarshal reads %+v, %v", b, got, gotErr, want, wantErr)
		}
	})
}
