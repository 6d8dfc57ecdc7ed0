// Package work provides the bounded parallelism primitive shared by
// the rewrite pipeline's sharded phases (disassembly and matching)
// and, in e9served, by every rewrite job.
//
// The design goal is composability without oversubscription: a Pool
// holds a fixed number of worker leases. A job takes one with the
// blocking Acquire and holds it for its whole run; ForEach runs a
// parallel loop using the calling goroutine plus however many extra
// leases it can grab. Under load (every lease taken) a loop degrades
// gracefully to sequential execution on its own goroutine — its
// helpers never block waiting for a lease, so a job holding a lease
// can run sharded phases on the same Pool without deadlock.
package work

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of worker leases. The zero value is not
// usable; a nil *Pool is valid everywhere and means "no global bound"
// (each loop may spawn up to its own width). Pools are cheap: no
// goroutines are parked, only a semaphore is held.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a Pool with n leases; n <= 0 defaults to
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size returns the lease count.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return cap(p.sem)
}

// Acquire blocks until it leases one worker slot, returning nil, or
// until ctx is done, returning ctx's error. Every nil return must be
// paired with one Release.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot leased by Acquire.
func (p *Pool) Release() { <-p.sem }

// tryAcquire leases one worker slot without blocking.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// ForEach runs fn(0) … fn(n-1), each exactly once, using the calling
// goroutine plus up to width-1 helper goroutines. Helpers are leased
// from pool when it is non-nil; if no lease is available the loop
// simply runs with fewer helpers (worst case: sequentially on the
// caller). Indices are handed out dynamically, so uneven task costs
// balance across workers. ForEach returns after every call has
// completed; a panic in any invocation is re-raised on the caller.
//
// fn must be safe for concurrent invocation when width > 1. The order
// of invocations is unspecified — callers needing deterministic
// output must make fn(i) depend only on i (write into slot i of a
// result slice), never on completion order.
func ForEach(pool *Pool, width, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
	)
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	guarded := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{v: r})
			}
		}()
		worker()
	}

	var wg sync.WaitGroup
	for h := 0; h < width-1; h++ {
		if pool != nil && !pool.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if pool != nil {
				defer pool.Release()
			}
			guarded()
		}()
	}
	guarded()
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic for cross-goroutine re-raise.
type panicValue struct{ v any }
