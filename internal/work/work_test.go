package work

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			var hits sync.Map
			var count atomic.Int64
			ForEach(nil, width, n, func(i int) {
				if _, dup := hits.LoadOrStore(i, true); dup {
					t.Errorf("width=%d n=%d: index %d ran twice", width, n, i)
				}
				count.Add(1)
			})
			if got := int(count.Load()); got != n {
				t.Fatalf("width=%d n=%d: %d calls", width, n, got)
			}
		}
	}
}

func TestForEachWithPool(t *testing.T) {
	p := NewPool(4)
	if p.Size() != 4 {
		t.Fatalf("Size = %d", p.Size())
	}
	var count atomic.Int64
	ForEach(p, 16, 200, func(i int) { count.Add(1) })
	if count.Load() != 200 {
		t.Fatalf("%d calls", count.Load())
	}
}

func TestForEachSaturatedPoolDegradesToCaller(t *testing.T) {
	// Drain every lease: ForEach must still complete on the calling
	// goroutine alone instead of blocking.
	p := NewPool(2)
	p.sem <- struct{}{}
	p.sem <- struct{}{}
	var count atomic.Int64
	ForEach(p, 8, 50, func(i int) { count.Add(1) })
	if count.Load() != 50 {
		t.Fatalf("%d calls", count.Load())
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEach(NewPool(4), 4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned after panic")
}

func TestNilPoolSize(t *testing.T) {
	var p *Pool
	if p.Size() != 0 {
		t.Fatal("nil pool size")
	}
}

func TestNewPoolDefault(t *testing.T) {
	if NewPool(0).Size() < 1 {
		t.Fatal("default pool empty")
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on a full pool = %v, want the context's error", err)
	}
	got := make(chan error)
	go func() { got <- p.Acquire(context.Background()) }()
	p.Release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	p.Release()
	if !p.tryAcquire() {
		t.Fatal("lease not returned by Release")
	}
}
