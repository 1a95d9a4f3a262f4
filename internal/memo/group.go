package memo

import (
	"context"
	"sync"

	"datastall/internal/trainer"
)

// Group collapses concurrent identical work (singleflight): among callers
// presenting the same key at the same time, one — the leader — runs fn and
// the rest wait for its answer. The Cache embeds one to deduplicate
// identical cases in flight at once, across jobs; repeated cells within
// one grid never get here, because the cell executor dedupes them before
// they reach the cache. The zero value is ready to use.
type Group struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	res  *trainer.Result
	err  error
}

// Do runs fn once per key among concurrent callers. shared reports that
// the result came from another caller's flight. A leader's error is
// returned to the leader only and never shared: the error may be private
// to the leader (its job was cancelled), so each waiter loops back and
// competes to lead instead of inheriting it — a deterministic failure
// costs one run per interested caller, a cancellation poisons nobody.
func (g *Group) Do(ctx context.Context, key string, fn func() (*trainer.Result, error)) (res *trainer.Result, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = map[string]*flight{}
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.res, true, nil
			}
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()

		f.res, f.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		return f.res, false, f.err
	}
}
