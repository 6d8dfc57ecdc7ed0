package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFetchPlanStatuses: 200 returns the payload and marks the peer
// up, 404 is the authoritative ErrNoPlan, other statuses and dead
// sockets are transport failures that trip the health tracker.
func TestFetchPlanStatuses(t *testing.T) {
	var status int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, PlanPath) {
			t.Errorf("fetch hit %s, want prefix %s", r.URL.Path, PlanPath)
		}
		w.WriteHeader(status)
		if status == http.StatusOK {
			w.Write([]byte("plan-bytes"))
		}
	}))
	defer ts.Close()

	h := NewHealth(time.Minute)
	c := NewClient(Config{FetchTimeout: 2 * time.Second}, h, 0)

	status = http.StatusOK
	data, err := c.FetchPlan(context.Background(), ts.URL, "k1")
	if err != nil || string(data) != "plan-bytes" {
		t.Fatalf("200 fetch: %q, %v", data, err)
	}
	if !h.Up(ts.URL) {
		t.Fatal("peer marked down after a 200")
	}

	status = http.StatusNotFound
	if _, err := c.FetchPlan(context.Background(), ts.URL, "k1"); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("404 fetch: %v, want ErrNoPlan", err)
	}
	if !h.Up(ts.URL) {
		t.Fatal("peer marked down after a 404 (a 404 proves liveness)")
	}

	status = http.StatusServiceUnavailable
	if _, err := c.FetchPlan(context.Background(), ts.URL, "k1"); err == nil || errors.Is(err, ErrNoPlan) {
		t.Fatalf("503 fetch: %v, want transport-style failure", err)
	}
	if h.Up(ts.URL) {
		t.Fatal("peer not marked down after a 503")
	}
}

// TestFetchPlanDeadPeer: a connection failure marks the peer down and
// the cooldown gates retries.
func TestFetchPlanDeadPeer(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing listens here any more

	h := NewHealth(50 * time.Millisecond)
	c := NewClient(Config{FetchTimeout: time.Second}, h, 0)
	if _, err := c.FetchPlan(context.Background(), url, "k"); err == nil {
		t.Fatal("fetch from a closed server succeeded")
	}
	if h.Up(url) {
		t.Fatal("dead peer still marked up")
	}
	time.Sleep(80 * time.Millisecond)
	if !h.Up(url) {
		t.Fatal("cooldown never released the peer for a retry probe")
	}
}

// TestFetchPlanOversized: a peer response beyond the cap is rejected
// instead of buffered.
func TestFetchPlanOversized(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 4096))
	}))
	defer ts.Close()
	c := NewClient(Config{}, NewHealth(0), 1024)
	if _, err := c.FetchPlan(context.Background(), ts.URL, "k"); err == nil {
		t.Fatal("oversized plan accepted")
	}
}

// chunkReader hands out its data at most chunk bytes per Read, records
// how much room each Read was offered, and after the data either ends
// (io.EOF) or fails with stall, standing in for a sender that stopped.
type chunkReader struct {
	data    []byte
	chunk   int
	stall   error
	offered []int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.offered = append(r.offered, len(p))
	if len(r.data) == 0 {
		if r.stall != nil {
			return 0, r.stall
		}
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(r.chunk, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// TestReadSized: a truthful hint costs one exactly sized buffer, a
// missing or wrong one still reads everything, and a declared length is
// never a reservation: a sender that declares 1 GB, sends 10 bytes and
// stalls has had at most ReadReserve set aside for it.
func TestReadSized(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 300_000) // 4.8 MB, over the reserve
	for _, tc := range []struct {
		name string
		n    int
		hint int64
	}{
		{"exact hint", 100_000, 100_000},
		{"exact hint over the reserve", len(payload), int64(len(payload))},
		{"no hint", len(payload), -1},
		{"zero hint", 5000, 0},
		{"short hint", len(payload), 1000},
		{"long hint", 1000, 1 << 30},
		{"empty", 0, 0},
	} {
		r := &chunkReader{data: payload[:tc.n], chunk: 64 << 10}
		got, err := ReadSized(r, tc.hint)
		if err != nil || !bytes.Equal(got, payload[:tc.n]) {
			t.Fatalf("%s: read %d bytes, err %v; want %d", tc.name, len(got), err, tc.n)
		}
		if tc.hint == int64(tc.n) && tc.n > 511 && cap(got) != tc.n+1 {
			t.Errorf("%s: a truthful hint of %d ended in a %d-byte buffer", tc.name, tc.n, cap(got))
		}
		for i, room := range r.offered {
			if room == 0 {
				t.Fatalf("%s: read %d was offered no room", tc.name, i)
			}
		}
	}

	gone := errors.New("sender stalled, then went away")
	r := &chunkReader{data: []byte("ten bytes!"), chunk: 10, stall: gone}
	got, err := ReadSized(r, 1<<30)
	if !errors.Is(err, gone) || string(got) != "ten bytes!" {
		t.Fatalf("stalled sender: %q, %v", got, err)
	}
	if len(r.offered) != 2 || r.offered[0] > ReadReserve+1 || 10+r.offered[1] > ReadReserve+1 {
		t.Errorf("stalled sender declaring 1 GB was offered %v bytes of room, want at most %d", r.offered, ReadReserve+1)
	}
}
