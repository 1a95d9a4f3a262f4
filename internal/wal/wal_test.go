package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testRecord builds a deterministic record i.
func testRecord(i int) Record {
	payload, _ := json.Marshal(map[string]int{"seq": i})
	return Record{Type: TypeCaseDone, JobID: fmt.Sprintf("job-%06d", i%7), Payload: payload}
}

// openTest opens a log in a fresh temp dir with small segments so tests
// exercise rotation.
func openTest(t *testing.T, opt Options) (*Log, Recovery, string) {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec, opt.Dir
}

func mustAppend(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].JobID != want[i].JobID || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := testRecord(42)
	buf, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, next, ok := decodeFrame(buf, 0)
	if !ok {
		t.Fatal("decodeFrame rejected its own encoding")
	}
	if next != int64(len(buf)) {
		t.Fatalf("next = %d, want %d", next, len(buf))
	}
	if got.Type != want.Type || got.JobID != want.JobID || string(got.Payload) != string(want.Payload) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestAppendReopenReplaysAll(t *testing.T) {
	l, rec, dir := openTest(t, Options{})
	if len(rec.Records) != 0 || rec.LoadErrors != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	var want []Record
	for i := 0; i < 25; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec2, _ := openTest(t, Options{Dir: dir})
	defer l2.Close()
	sameRecords(t, rec2.Records, want)
	if rec2.LoadErrors != 0 {
		t.Fatalf("LoadErrors = %d on a clean log", rec2.LoadErrors)
	}
}

// TestTornTailEveryOffset is the file-level torn-write battery: an
// uninterrupted log image truncated at EVERY byte offset must recover to
// exactly the whole-frame prefix, with a load error counted iff bytes
// were dropped.
func TestTornTailEveryOffset(t *testing.T) {
	l, _, dir := openTest(t, Options{Fsync: FsyncNever})
	var want []Record
	for i := 0; i < 8; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	img, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Frame boundaries: offsets at which a truncation is clean.
	boundaries := map[int64]int{0: 0}
	var off int64
	for i := range want {
		_, next, ok := decodeFrame(img, off)
		if !ok {
			t.Fatalf("image corrupt at record %d", i)
		}
		off = next
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(img); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(segPath(sub, 1), img[:cut], 0o644); err != nil {
			t.Fatalf("write truncated image: %v", err)
		}
		rec, err := ReadAll(sub)
		if err != nil {
			t.Fatalf("cut %d: ReadAll: %v", cut, err)
		}
		n, clean := boundaries[int64(cut)]
		sameRecords(t, rec.Records, want[:prefixLen(boundaries, int64(cut))])
		if clean && rec.LoadErrors != 0 {
			t.Fatalf("cut %d (clean, %d records): LoadErrors = %d", cut, n, rec.LoadErrors)
		}
		if !clean && rec.LoadErrors == 0 {
			t.Fatalf("cut %d (torn): no load error counted", cut)
		}
	}
}

// prefixLen returns how many whole records survive a cut at offset.
func prefixLen(boundaries map[int64]int, cut int64) int {
	best := 0
	for off, n := range boundaries {
		if off <= cut && n > best {
			best = n
		}
	}
	return best
}

// TestBitFlipTruncatesAtCorruption flips one byte in the middle record's
// payload: recovery must stop before it and repair must leave a log that
// re-recovers identically and accepts new appends.
func TestBitFlipTruncatesAtCorruption(t *testing.T) {
	l, _, dir := openTest(t, Options{Fsync: FsyncNever})
	var want []Record
	for i := 0; i < 9; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := segPath(dir, 1)
	img, _ := os.ReadFile(path)
	// Find record 4's payload start and flip a byte in it.
	var off int64
	for i := 0; i < 4; i++ {
		_, off, _ = decodeFrame(img, off)
	}
	img[off+headerBytes+2] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatalf("write corrupted image: %v", err)
	}

	l2, rec, _ := openTest(t, Options{Dir: dir})
	sameRecords(t, rec.Records, want[:4])
	if rec.LoadErrors == 0 || rec.Truncated != path {
		t.Fatalf("recovery = {errors: %d, truncated: %q}, want error at %q", rec.LoadErrors, rec.Truncated, path)
	}
	extra := testRecord(100)
	mustAppend(t, l2, extra)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec3, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll after repair: %v", err)
	}
	sameRecords(t, rec3.Records, append(append([]Record{}, want[:4]...), extra))
	if rec3.LoadErrors != 0 {
		t.Fatalf("repaired log still reports %d load errors", rec3.LoadErrors)
	}
}

// TestCorruptionInEarlySegmentDropsLaterOnes: the global clean-prefix rule
// discards whole later segments once an earlier one is cut.
func TestCorruptionInEarlySegmentDropsLaterOnes(t *testing.T) {
	l, _, dir := openTest(t, Options{Fsync: FsyncNever, SegmentBytes: 128})
	var want []Record
	for i := 0; i < 30; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Corrupt the first byte of segment 2: everything from segment 2 on
	// must be discarded.
	img, _ := os.ReadFile(segPath(dir, 2))
	img[0] ^= 0xff
	if err := os.WriteFile(segPath(dir, 2), img, 0o644); err != nil {
		t.Fatalf("corrupt segment 2: %v", err)
	}
	seg1, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	rec1, _, _, _ := scanFileForTest(t, segPath(dir, 1))
	sameRecords(t, seg1.Records, rec1)
	if seg1.LoadErrors < len(segs)-1 {
		t.Fatalf("LoadErrors = %d, want >= %d (torn file + each dropped segment)", seg1.LoadErrors, len(segs)-1)
	}

	// Repair-mode reopen deletes the later segments and appends work.
	l2, rec2, _ := openTest(t, Options{Dir: dir, SegmentBytes: 128})
	sameRecords(t, rec2.Records, rec1)
	mustAppend(t, l2, testRecord(99))
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec3, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll after repair: %v", err)
	}
	sameRecords(t, rec3.Records, append(append([]Record{}, rec1...), testRecord(99)))
}

func scanFileForTest(t *testing.T, path string) ([]Record, int64, bool, error) {
	t.Helper()
	return scanFile(path)
}

func TestRotationKeepsAllRecords(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var want []Record
	for i := 0; i < 40; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sameRecords(t, rec.Records, want)
	if rec.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", rec.Segments)
	}
}

func TestCompactionSubsumesSegments(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var all []Record
	for i := 0; i < 20; i++ {
		all = append(all, testRecord(i))
	}
	mustAppend(t, l, all...)
	// Compact down to the even records, as a store folding history would.
	var kept []Record
	for i, r := range all {
		if i%2 == 0 {
			kept = append(kept, r)
		}
	}
	if err := l.Compact(keepIndex(func(i int) bool { return i%2 == 0 })); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	post := testRecord(777)
	mustAppend(t, l, post)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sameRecords(t, rec.Records, append(append([]Record{}, kept...), post))

	// Reopen: the post-compaction segment number must not collide.
	l2, rec2, _ := openTest(t, Options{Dir: dir, SegmentBytes: 200})
	sameRecords(t, rec2.Records, rec.Records)
	mustAppend(t, l2, testRecord(888))
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// keepIndex adapts a predicate on a record's position in the compacted
// history to Compact's keep callback.
func keepIndex(keep func(i int) bool) func([]Record) []bool {
	return func(heads []Record) []bool {
		out := make([]bool, len(heads))
		for i := range out {
			out[i] = keep(i)
		}
		return out
	}
}

// TestAppendProceedsDuringCompaction: a compaction holds the log lock only
// to rotate, so an append from another goroutine returns while a hook
// parks the compaction just before its rename.
func TestAppendProceedsDuringCompaction(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var all []Record
	for i := 0; i < 10; i++ {
		all = append(all, testRecord(i))
	}
	mustAppend(t, l, all...)
	parked, release := make(chan struct{}), make(chan struct{})
	SetCrashHook(func(p string) {
		if p == CrashCompactPreRename {
			close(parked)
			<-release
		}
	})
	defer SetCrashHook(nil)
	compacted := make(chan error, 1)
	go func() { compacted <- l.Compact(keepIndex(func(i int) bool { return i%3 == 0 })) }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached its rename")
	}
	post := testRecord(500)
	appended := make(chan error, 1)
	go func() { appended <- l.Append(post) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append during compaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Append blocked behind a parked compaction")
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sameRecords(t, rec.Records, []Record{all[0], all[3], all[6], all[9], post})
}

// TestCheckpointCopiesFrames: keep sees every record's type and job, and
// the checkpoint's kept frames are the source segments' frames byte for
// byte, behind the one checkpoint record.
func TestCheckpointCopiesFrames(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var all []Record
	for i := 0; i < 28; i++ {
		all = append(all, testRecord(i))
	}
	all = append(all,
		Record{Type: TypeSubmitted, JobID: `job "7" <&>`},
		Record{Type: TypeTerminal, Payload: []byte(`{"job_id":"decoy","payload":1}`)})
	mustAppend(t, l, all...)
	var src [][]byte
	segs := listSegments(dir)
	for _, n := range sortedSegments(segs) {
		buf, err := os.ReadFile(segs[n])
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < int64(len(buf)); {
			_, next, ok := frameAt(buf, off)
			if !ok {
				t.Fatalf("%s: bad frame at %d", segs[n], off)
			}
			src = append(src, buf[off:next])
			off = next
		}
	}
	if len(src) != 30 {
		t.Fatalf("segments hold %d frames, want 30", len(src))
	}
	keep := func(i int) bool { return i%4 != 1 }
	err := l.Compact(func(heads []Record) []bool {
		for i, h := range heads {
			if h.Type != all[i].Type || h.JobID != all[i].JobID || h.Payload != nil {
				t.Errorf("head %d = %+v, want type %s job %q", i, h, all[i].Type, all[i].JobID)
			}
		}
		return keepIndex(keep)(heads)
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cp, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	meta, off, ok := decodeFrame(cp, 0)
	if !ok || meta.Type != TypeCheckpoint {
		t.Fatalf("checkpoint opens with %+v, want a %s record", meta, TypeCheckpoint)
	}
	var want []byte
	for i, fr := range src {
		if keep(i) {
			want = append(want, fr...)
		}
	}
	if !bytes.Equal(cp[off:], want) {
		t.Fatalf("checkpoint body is not the kept source frames:\n got %q\nwant %q", cp[off:], want)
	}
}

// crashPanic is the sentinel tests' crash hooks throw.
type crashPanic struct{ point string }

// withCrash installs a hook that panics at the named point and runs fn,
// reporting whether the crash fired. The panic unwinds through the log's
// deferred unlocks, leaving the directory in the exact on-disk state a
// kill -9 at that point would.
func withCrash(t *testing.T, point string, fn func()) (crashed bool) {
	t.Helper()
	SetCrashHook(func(p string) {
		if p == point {
			panic(crashPanic{p})
		}
	})
	defer SetCrashHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// TestCrashMidRotation: a crash between closing a full segment and
// creating the next loses nothing already appended.
func TestCrashMidRotation(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var want []Record
	add := func(i int) { want = append(want, testRecord(i)); mustAppend(t, l, want[len(want)-1]) }
	for i := 0; i < 5; i++ {
		add(i)
	}
	crashed := withCrash(t, CrashRotate, func() {
		for i := 5; i < 40; i++ {
			add(i)
		}
	})
	if !crashed {
		t.Fatal("rotation crash point never fired")
	}
	want = want[:len(want)-1] // the append that triggered rotation never happened

	l2, rec, _ := openTest(t, Options{Dir: dir, SegmentBytes: 200})
	defer l2.Close()
	sameRecords(t, rec.Records, want)
	if rec.LoadErrors != 0 {
		t.Fatalf("LoadErrors = %d after a clean mid-rotation crash", rec.LoadErrors)
	}
	mustAppend(t, l2, testRecord(500))
}

// TestCrashMidCompaction covers both rename-straddling crash points: before
// the rename the old history must survive; after it the checkpoint wins and
// leftover segments replay idempotently (here: not at all, since the
// checkpoint subsumes them).
func TestCrashMidCompaction(t *testing.T) {
	for _, point := range []string{CrashCompactPreRename, CrashCompactPostRename} {
		t.Run(point, func(t *testing.T) {
			l, _, dir := openTest(t, Options{SegmentBytes: 200})
			var all []Record
			for i := 0; i < 12; i++ {
				all = append(all, testRecord(i))
			}
			mustAppend(t, l, all...)
			kept := all[:6]
			crashed := withCrash(t, point, func() {
				l.Compact(keepIndex(func(i int) bool { return i < len(kept) }))
			})
			if !crashed {
				t.Fatalf("%s never fired", point)
			}
			want := all
			if point == CrashCompactPostRename {
				want = kept // checkpoint renamed live: it now owns history
			}
			l2, rec, _ := openTest(t, Options{Dir: dir, SegmentBytes: 200})
			defer l2.Close()
			sameRecords(t, rec.Records, want)
			if rec.LoadErrors != 0 {
				t.Fatalf("LoadErrors = %d after crash at %s", rec.LoadErrors, point)
			}
			mustAppend(t, l2, testRecord(900))
		})
	}
}

// TestCrashAtNthAppend synthesises a kill -9 after every single append of
// a run and checks each prefix recovers exactly.
func TestCrashAtNthAppend(t *testing.T) {
	const total = 10
	var want []Record
	for i := 0; i < total; i++ {
		want = append(want, testRecord(i))
	}
	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		func() {
			l, _, _ := openTest(t, Options{Dir: dir})
			crashed := withCrash(t, fmt.Sprintf("append:%d", n), func() {
				for _, r := range want {
					if err := l.Append(r); err != nil {
						t.Fatalf("Append: %v", err)
					}
				}
			})
			if !crashed {
				t.Fatalf("append:%d never fired", n)
			}
		}()
		rec, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("n=%d: ReadAll: %v", n, err)
		}
		sameRecords(t, rec.Records, want[:n])
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			l, _, dir := openTest(t, Options{Fsync: p, FsyncInterval: time.Millisecond})
			var want []Record
			for i := 0; i < 5; i++ {
				want = append(want, testRecord(i))
			}
			mustAppend(t, l, want...)
			if p == FsyncInterval {
				time.Sleep(10 * time.Millisecond) // let the sync loop tick
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			rec, err := ReadAll(dir)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			sameRecords(t, rec.Records, want)
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, p, err)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _, _ := openTest(t, Options{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(testRecord(0)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCopyPrefix(t *testing.T) {
	l, _, dir := openTest(t, Options{SegmentBytes: 200})
	var want []Record
	for i := 0; i < 15; i++ {
		want = append(want, testRecord(i))
	}
	mustAppend(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for n := 0; n <= len(want); n++ {
		dst := filepath.Join(t.TempDir(), "wal")
		if err := CopyPrefix(dir, dst, n, []byte{0x01, 0x02, 0x03}); err != nil {
			t.Fatalf("CopyPrefix(%d): %v", n, err)
		}
		rec, err := ReadAll(dst)
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		sameRecords(t, rec.Records, want[:n])
		if rec.LoadErrors == 0 {
			t.Fatalf("n=%d: torn tail not counted", n)
		}
	}
	if err := CopyPrefix(dir, t.TempDir(), len(want)+1, nil); err == nil {
		t.Fatal("CopyPrefix past end succeeded")
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := AtomicWriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("AtomicWriteFile: %v", err)
	}
	// A crash before the rename must leave the previous contents intact.
	crashed := withCrash(t, CrashAtomicPreRename, func() {
		AtomicWriteFile(path, []byte("v2"), 0o644)
	})
	if !crashed {
		t.Fatal("crash point never fired")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("after crashed write: %q, %v (want v1)", got, err)
	}
	if err := AtomicWriteFile(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("AtomicWriteFile: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Fatalf("after clean write: %q", got)
	}
}

func TestTraceChecker(t *testing.T) {
	ok := &Trace{}
	ok.Write("job-1", 1)
	ok.Read("a", "job-1", 1)
	ok.Write("job-1", 2)
	ok.Read("a", "job-1", 2)
	ok.Read("b", "job-1", 1) // another client may lag; PRAM allows it
	ok.Read("b", "job-1", 2)
	if err := ok.Check(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if ok.Len() != 6 {
		t.Fatalf("Len = %d", ok.Len())
	}

	stale := &Trace{}
	stale.Write("job-1", 1)
	stale.Write("job-1", 2)
	stale.Read("a", "job-1", 2)
	stale.Read("a", "job-1", 1)
	if err := stale.Check(); err == nil {
		t.Fatal("stale-after-fresh read not caught")
	}

	future := &Trace{}
	future.Write("job-1", 1)
	future.Read("a", "job-1", 5)
	if err := future.Check(); err == nil {
		t.Fatal("read of unwritten version not caught")
	}

	regress := &Trace{}
	regress.Write("job-1", 3)
	regress.Write("job-1", 1)
	if err := regress.Check(); err == nil {
		t.Fatal("write regression not caught")
	}
}

// TestRecoveredRecordsRoundTrip: decode -> encode is the identity on the
// framed bytes, the property resume-byte-identity leans on.
func TestRecoveredRecordsRoundTrip(t *testing.T) {
	l, _, dir := openTest(t, Options{})
	want := testRecord(3)
	mustAppend(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	orig, _ := Encode(want)
	again, err := Encode(rec.Records[0])
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !reflect.DeepEqual(orig, again) {
		t.Fatalf("re-encode differs:\n  %x\n  %x", orig, again)
	}
}
