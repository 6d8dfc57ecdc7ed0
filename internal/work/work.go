// Package work provides the bounded parallelism primitive shared by
// the rewrite pipeline's sharded phases (disassembly and matching)
// and, in e9served, by all concurrent requests.
//
// The design goal is composability without oversubscription: a Pool
// holds a fixed number of worker leases, and ForEach runs a parallel
// loop using the calling goroutine plus however many extra leases it
// can grab. Under load (every lease taken by other requests) a loop
// degrades gracefully to sequential execution on its own goroutine —
// it never blocks waiting for a lease, so sharing one Pool between
// request-level and shard-level parallelism cannot deadlock.
package work

import (
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

// tryAcquire leases one worker slot without blocking.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *Pool) release() { <-p.sem }

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
				defer pool.release()
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
