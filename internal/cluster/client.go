package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// PlanPath is the internal endpoint serving encoded PatchPlans by
// cache key. It is rooted under /internal/ so operators can fence it
// from the public surface at the load balancer; the payload is a plan
// (decisions, not code), so leaking one reveals nothing an ordinary
// rewrite response would not.
const PlanPath = "/internal/v1/plan/"

// PlanContentType is the media type of serialized PatchPlans on the
// wire — both the internal peer-fetch payload and the public
// plan-delta response body.
const PlanContentType = "application/x-e9-plan"

// ErrNoPlan reports that the peer answered authoritatively (it is up)
// but does not hold a plan for the key. Callers fall through to a full
// local rewrite without marking the peer down.
var ErrNoPlan = errors.New("cluster: peer holds no plan for key")

// Config describes this node's place in a static cluster.
type Config struct {
	// Self is this node's own advertised base URL; it must appear in
	// Peers verbatim. Empty disables clustering.
	Self string
	// Peers lists every node's advertised base URL, including Self.
	// A list of one (or none) disables clustering.
	Peers []string
	// FetchTimeout bounds one peer plan fetch or forwarded request
	// probe (0: 2s). Peer fetches sit on the client's latency path, so
	// the bound is short: a slow peer is treated as a down peer.
	FetchTimeout time.Duration
	// Cooldown is how long a peer stays marked down after a transport
	// failure before it is retried (0: 1s).
	Cooldown time.Duration
}

// Enabled reports whether the config names a real multi-node cluster.
func (c Config) Enabled() bool { return c.Self != "" && len(c.Peers) > 1 }

func (c Config) WithDefaults() Config {
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// Validate rejects configs the ring cannot serve: a Self that is not
// in Peers would silently make every key look remotely owned.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	for _, p := range c.Peers {
		if p == c.Self {
			return nil
		}
	}
	return fmt.Errorf("cluster: self %q is not in the peer list %v", c.Self, c.Peers)
}

// Health tracks peer reachability. A transport-level failure marks the
// peer down for a cooldown; while down, callers skip it (local
// fallback) instead of paying a connect timeout per request. There is
// no active probing: the first request after the cooldown is the probe.
type Health struct {
	mu       sync.Mutex
	cooldown time.Duration
	down     map[string]time.Time // peer -> retry-at
}

// NewHealth returns a tracker with the given cooldown (0: 1s).
func NewHealth(cooldown time.Duration) *Health {
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Health{cooldown: cooldown, down: make(map[string]time.Time)}
}

// MarkDown records a transport failure against peer.
func (h *Health) MarkDown(peer string) {
	h.mu.Lock()
	h.down[peer] = time.Now().Add(h.cooldown)
	h.mu.Unlock()
}

// MarkUp clears a peer's down mark (called after any successful
// response, including 404s — those prove the peer is alive).
func (h *Health) MarkUp(peer string) {
	h.mu.Lock()
	delete(h.down, peer)
	h.mu.Unlock()
}

// Up reports whether peer should be tried now.
func (h *Health) Up(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	until, bad := h.down[peer]
	if !bad {
		return true
	}
	if time.Now().After(until) {
		delete(h.down, peer) // cooldown elapsed: next request probes
		return true
	}
	return false
}

// Client fetches plans from peers and feeds the shared health tracker.
// The zero value is not usable; construct with NewClient.
type Client struct {
	http    *http.Client
	health  *Health
	timeout time.Duration
	maxPlan int64
}

// NewClient builds a peer client. maxPlanBytes caps one fetched plan
// (0: 64 MiB) — a hostile or confused peer must not be able to balloon
// this node's memory through the internal channel.
func NewClient(cfg Config, health *Health, maxPlanBytes int64) *Client {
	cfg = cfg.WithDefaults()
	if maxPlanBytes <= 0 {
		maxPlanBytes = 64 << 20
	}
	return &Client{
		http:    &http.Client{Timeout: cfg.FetchTimeout},
		health:  health,
		timeout: cfg.FetchTimeout,
		maxPlan: maxPlanBytes,
	}
}

// ReadReserve is the most ReadSized reserves before any byte has
// arrived, whatever length the sender declared.
const ReadReserve = 1 << 20

// ReadSized reads r to EOF like io.ReadAll, into a buffer sized from
// hint: the length the sender declared (a Content-Length), already
// clamped by the caller to what it accepts, or negative when unknown.
// A declared length is a hint, not a reservation: at most ReadReserve
// is allocated up front, and the buffer then doubles only as bytes
// really arrive, stopping at the hint so a truthful sender costs one
// exactly sized buffer. Bounding what may be read stays with r
// (http.MaxBytesReader, io.LimitReader). On error the bytes read so far
// are returned with it.
func ReadSized(r io.Reader, hint int64) ([]byte, error) {
	// One byte past the hint: the read that finds EOF needs room to run.
	buf := make([]byte, 0, max(min(hint, ReadReserve), 511)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			next := 2 * int64(cap(buf))
			if int64(len(buf)) <= hint {
				next = min(next, hint+1)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
	}
}

// FetchPlan asks peer for the encoded plan of key. It returns the plan
// bytes on 200, ErrNoPlan on 404 (peer alive, plan absent), and a
// transport error otherwise — after marking the peer down so the next
// requests skip it until the cooldown elapses.
func (c *Client) FetchPlan(ctx context.Context, peer, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+PlanPath+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.health.MarkDown(peer)
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := ReadSized(io.LimitReader(resp.Body, c.maxPlan+1), min(resp.ContentLength, c.maxPlan+1))
		if err != nil {
			c.health.MarkDown(peer)
			return nil, err
		}
		if int64(len(data)) > c.maxPlan {
			return nil, fmt.Errorf("cluster: plan from %s exceeds the %d-byte cap", peer, c.maxPlan)
		}
		c.health.MarkUp(peer)
		return data, nil
	case http.StatusNotFound:
		c.health.MarkUp(peer)
		return nil, ErrNoPlan
	default:
		// An unexpected status (a draining 503, a proxy 502) is treated
		// like a transport failure: skip the peer for a cooldown.
		c.health.MarkDown(peer)
		return nil, fmt.Errorf("cluster: peer %s answered %d for plan fetch", peer, resp.StatusCode)
	}
}
