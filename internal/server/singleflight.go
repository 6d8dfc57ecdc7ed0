package server

import (
	"context"
	"sync"
	"time"
)

// flightGroup collapses concurrent identical requests: the first
// request for a key (the leader) launches the rewrite, every later
// request arriving before it finishes (a follower) waits on the same
// answer, which carries both the result and the encoded plan, so a
// follower reads whichever it asked for. The job runs under its own context — detached from any one
// request, bounded by the per-request timeout — and is cancelled once
// every waiter has given up, so a rewrite whose entire audience has
// disconnected stops burning a worker instead of completing into the
// void.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done    chan struct{}
	ans     answer
	err     error
	waiters int
	cancel  context.CancelFunc
}

func newFlightGroup() *flightGroup { return &flightGroup{m: make(map[string]*flight)} }

// do coalesces work for key. launch is invoked exactly once per flight
// (by the leader); it must either return an error (the flight fails
// immediately) or arrange for finish to be called exactly once with
// the outcome. The second return reports whether this caller shared
// another request's flight rather than leading its own.
func (g *flightGroup) do(ctx context.Context, key string, timeout time.Duration,
	launch func(jobCtx context.Context, finish func(answer, error)) error) (answer, bool, error) {

	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, f, true)
	}

	// Cancelling the job's context releases its timer too; the detached
	// parent holds no resources.
	jobCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	if timeout > 0 {
		jobCtx, cancel = context.WithTimeout(jobCtx, timeout)
	}
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.m[key] = f
	g.mu.Unlock()

	finish := func(ans answer, err error) {
		g.mu.Lock()
		if g.m[key] == f {
			delete(g.m, key)
		}
		f.ans, f.err = ans, err
		close(f.done)
		g.mu.Unlock()
		f.cancel() // release the timeout timer
	}
	if err := launch(jobCtx, finish); err != nil {
		finish(answer{}, err)
	}
	return g.wait(ctx, key, f, false)
}

// wait blocks until the flight finishes or the caller's own context
// gives up. The last waiter to leave cancels the job and detaches the
// flight from the map so new arrivals start a fresh one.
func (g *flightGroup) wait(ctx context.Context, key string, f *flight, shared bool) (answer, bool, error) {
	select {
	case <-f.done:
		return f.ans, shared, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		orphaned := f.waiters == 0
		if orphaned && g.m[key] == f {
			delete(g.m, key)
		}
		g.mu.Unlock()
		if orphaned {
			f.cancel()
		}
		return answer{}, shared, ctx.Err()
	}
}
