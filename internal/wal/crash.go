// Deterministic crash injection. The log announces every durability-
// relevant point it passes — each append (by sequence number), the gap in
// the middle of a segment rotation, both halves of the compaction rename,
// and AtomicWriteFile's rename — to an optional hook. Tests install a hook
// that panics (the panic unwinds with the log's deferred unlocks intact,
// leaving the directory exactly as a kill -9 would); the stallserved
// daemon arms a hook from $STALLWAL_CRASH that SIGKILLs the whole process,
// which is how the crashsmoke battery dies at a chosen WAL append with no
// flushes and no goodbyes.
package wal

import (
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
)

// Crash point names the hook receives. Appends report "append:N" with N
// the 1-based append sequence since the log was opened.
const (
	// CrashRotate fires between closing a full segment and creating its
	// successor.
	CrashRotate = "rotate"
	// CrashCompactPreRename fires after the new checkpoint is written and
	// fsynced to its temp file, before the rename makes it live.
	CrashCompactPreRename = "compact:pre-rename"
	// CrashCompactPostRename fires after the rename (and directory fsync),
	// before the subsumed segments are deleted.
	CrashCompactPostRename = "compact:post-rename"
	// CrashAtomicPreRename fires inside AtomicWriteFile after the temp file
	// is written and fsynced, before the rename makes it live.
	CrashAtomicPreRename = "atomic:pre-rename"
)

// crashHook is the installed hook; nil when injection is off (the normal
// case — one atomic load per crash point).
var crashHook atomic.Pointer[func(point string)]

// SetCrashHook installs f as the crash hook (nil uninstalls). f runs
// synchronously at every crash point, with the log's lock held at append
// and rotation points only, so a hook blocking at a compaction point parks
// the compaction, not appends. A hook that panics leaves the directory in
// the exact on-disk state a kill -9 at that point would.
func SetCrashHook(f func(point string)) {
	if f == nil {
		crashHook.Store(nil)
		return
	}
	crashHook.Store(&f)
}

func crashPoint(point string) {
	if h := crashHook.Load(); h != nil {
		(*h)(point)
	}
}

func crashAppend(seq int64) {
	if h := crashHook.Load(); h != nil {
		(*h)("append:" + strconv.FormatInt(seq, 10))
	}
}

// ArmCrashFromEnv installs a self-SIGKILL hook for the crash point named
// by $STALLWAL_CRASH (e.g. "append:5", "rotate", "compact:pre-rename") and
// returns the armed point ("" when the variable is unset). Only the
// stallserved daemon calls this — a kill -9 is the honest crash: no
// deferred cleanup, no buffered writes flushed, exactly the failure
// recovery must withstand.
func ArmCrashFromEnv() string {
	target := os.Getenv("STALLWAL_CRASH")
	if target == "" {
		return ""
	}
	SetCrashHook(func(point string) {
		if point == target {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL cannot be caught or delayed
		}
	})
	return target
}
