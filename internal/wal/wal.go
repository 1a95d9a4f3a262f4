// The log writer: rotating segment files plus a checkpoint, with a
// configurable fsync policy. Appends serialize on one mutex; a compaction
// holds it only to rotate, and copies the rotated frames off it.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy says when appended records become durable.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: an acknowledged record
	// survives any kill -9. The default, and what the crash battery runs.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer: a crash can lose up to
	// one interval of acknowledged records, never corrupt older ones.
	FsyncInterval
	// FsyncNever leaves durability to the OS page cache.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: fsync policy %q (want always, interval or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return "always"
	}
}

// Options tunes a Log.
type Options struct {
	// Dir holds the checkpoint and segment files; created if missing.
	Dir string
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval timer period (<= 0: 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (<= 0: 4 MiB).
	SegmentBytes int64
	// OnFsync, when set, observes the duration of each data fsync (the
	// per-append syncs under FsyncAlways and the timer syncs under
	// FsyncInterval) — the feed for the wal_fsync latency histogram.
	OnFsync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// errClosed rejects operations on a closed log.
var errClosed = errors.New("wal: log closed")

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	opt Options

	mu      sync.Mutex
	f       *os.File
	seg     int   // number of the active segment
	size    int64 // bytes in the active segment
	appends int64 // records appended since Open (crash-hook sequencing)
	buf     []byte
	closed  bool

	// compactMu serializes Compact calls and guards through, the last
	// segment the live checkpoint subsumes; it is never taken under mu.
	compactMu sync.Mutex
	through   int

	stop     chan struct{}
	syncLoop sync.WaitGroup
}

// Open recovers dir (truncating any torn tail and discarding everything
// after the first corrupt record) and returns a Log positioned to append
// after the clean prefix, plus the Recovery describing what was replayable.
func Open(opt Options) (*Log, Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: %w", err)
	}
	rec, lay, err := recoverDir(opt.Dir, true)
	if err != nil {
		return nil, rec, err
	}
	l := &Log{opt: opt, stop: make(chan struct{}), through: lay.through}
	if lay.lastSeg > 0 && lay.lastSize < opt.SegmentBytes {
		f, err := os.OpenFile(segPath(opt.Dir, lay.lastSeg), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, rec, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.f, l.seg, l.size = f, lay.lastSeg, lay.lastSize
	} else {
		next := lay.lastSeg
		if lay.through > next {
			next = lay.through
		}
		if err := l.openSegment(next + 1); err != nil {
			return nil, rec, err
		}
	}
	if opt.Fsync == FsyncInterval {
		l.syncLoop.Add(1)
		go l.runSyncLoop()
	}
	return l, rec, nil
}

// segPath names segment n.
func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", n))
}

// checkpointPath names the live checkpoint file.
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.wal") }

// openSegment creates segment n as the active file and makes its directory
// entry durable, so an fsynced append can never land in a file a crash
// erases.
func (l *Log) openSegment(n int) error {
	f, err := os.OpenFile(segPath(l.opt.Dir, n), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.opt.Dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seg, l.size = f, n, 0
	return nil
}

// Append frames rec, writes it to the active segment (rotating first when
// full), and applies the fsync policy. The record is durable on return
// under FsyncAlways.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	buf, err := appendFrame(l.buf[:0], rec)
	if err != nil {
		return err
	}
	l.buf = buf
	if l.size > 0 && l.size+int64(len(buf)) > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	l.appends++
	if l.opt.Fsync == FsyncAlways {
		if err := l.syncTimed(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	crashAppend(l.appends)
	return nil
}

// rotateLocked closes the full active segment and opens its successor.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	crashPoint(CrashRotate)
	return l.openSegment(l.seg + 1)
}

// Compact folds the log into a fresh checkpoint. It holds the log lock
// only to rotate; the files it then reads (the live checkpoint and the
// rotated segments) are never written again, so appends go on meanwhile.
// keep sees their records in replay order, type and job only, and answers
// index for index which survive; their frames are copied byte for byte.
// The checkpoint is written to a temp file, fsynced, renamed live, the
// directory fsynced, and only then are the subsumed segments removed; a
// crash anywhere in between recovers to either the old records or the new
// checkpoint, never to a mix.
func (l *Log) Compact(keep func(heads []Record) []bool) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	through, err := func() (int, error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return 0, errClosed
		}
		through := l.seg
		return through, l.rotateLocked()
	}()
	if err != nil {
		return err
	}

	frames, heads, err := readFrames(l.opt.Dir, l.through, through)
	if err != nil {
		return err
	}
	kept := keep(heads)
	meta, _ := json.Marshal(checkpointMeta{Through: through})
	out := make([][]byte, 1, 64)
	if out[0], err = Encode(Record{Type: TypeCheckpoint, Payload: meta}); err != nil {
		return err
	}
	for i, fr := range frames {
		if !kept[i] {
			continue
		}
		// Kept frames adjacent in one file go out as one write.
		if last := out[len(out)-1]; cap(last) > len(last) && &last[:len(last)+1][len(last)] == &fr[0] {
			out[len(out)-1] = last[:len(last)+len(fr)]
		} else {
			out = append(out, fr)
		}
	}
	if err := writeAtomic(checkpointPath(l.opt.Dir), 0o644, CrashCompactPreRename, out...); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.through = through
	crashPoint(CrashCompactPostRename)
	for n := range listSegments(l.opt.Dir) {
		if n <= through {
			os.Remove(segPath(l.opt.Dir, n))
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	return l.syncTimed()
}

// syncTimed fsyncs the active segment and reports the latency to the
// OnFsync observer. Caller holds l.mu.
func (l *Log) syncTimed() error {
	start := time.Now()
	err := l.f.Sync()
	if err == nil && l.opt.OnFsync != nil {
		l.opt.OnFsync(time.Since(start))
	}
	return err
}

// Appends returns the number of records appended since Open.
func (l *Log) Appends() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Close syncs and closes the log. Further operations return errClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.syncLoop.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

func (l *Log) runSyncLoop() {
	defer l.syncLoop.Done()
	t := time.NewTicker(l.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.f != nil {
				l.syncTimed()
			}
			l.mu.Unlock()
		}
	}
}

// listSegments maps segment number -> path for every segment file in dir.
func listSegments(dir string) map[int]string {
	out := map[int]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "seg-%08d.wal", &n); err == nil {
			out[n] = filepath.Join(dir, name)
		}
	}
	return out
}

// sortedSegments returns dir's segment numbers in ascending order.
func sortedSegments(segs map[int]string) []int {
	out := make([]int, 0, len(segs))
	for n := range segs {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// syncDir fsyncs a directory so renames and file creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// AtomicWriteFile writes data to path crash-atomically: a temp file beside
// it is written, fsynced, renamed over path, and the directory fsynced —
// at every kill -9 point the old bytes or the new bytes are on disk, never
// a torn mix. It announces CrashAtomicPreRename before the rename.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return writeAtomic(path, perm, CrashAtomicPreRename, data)
}

// writeAtomic is AtomicWriteFile for data in pieces, announcing point.
func writeAtomic(path string, perm os.FileMode, point string, data ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	for _, b := range data {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	crashPoint(point)
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
