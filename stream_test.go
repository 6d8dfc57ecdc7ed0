package e9patch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestStreamMatchesRewrite is the streaming differential: a session fed
// the selection split across many SelectAddrs messages (with overlap)
// must reproduce the single-shot Rewrite byte-for-byte for the paper
// applications A1 and A2 across the corpus. (A session handed the
// selector in its config IS Rewrite, so that leg has nothing to compare.)
func TestStreamMatchesRewrite(t *testing.T) {
	ctx := context.Background()
	for _, be := range planCorpus(t) {
		for _, app := range []struct {
			name string
			sel  Selector
		}{{"A1", SelectJumps}, {"A2", SelectHeapWrites}} {
			label := fmt.Sprintf("%s/%s", be.name, app.name)
			cfg := Config{Select: app.sel, ReserveVA: workload.ReserveVA()}
			want, err := Rewrite(be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: rewrite: %v", label, err)
			}

			// Chunked session: the same locations drip in as address
			// batches, repeated once to exercise dedup.
			scfg := cfg
			scfg.Select = nil
			s2, err := NewStream(ctx, be.bin, scfg)
			if err != nil {
				t.Fatalf("%s: stream2: %v", label, err)
			}
			var addrs []uint64
			for _, loc := range want.Locations {
				addrs = append(addrs, loc.Addr)
			}
			const chunk = 7
			for lo := 0; lo < len(addrs); lo += chunk {
				hi := lo + chunk
				if hi > len(addrs) {
					hi = len(addrs)
				}
				if _, err := s2.SelectAddrs(addrs[lo:hi]...); err != nil {
					t.Fatalf("%s: select addrs: %v", label, err)
				}
			}
			if _, err := s2.SelectAddrs(addrs...); err != nil { // full repeat: all dups
				t.Fatalf("%s: duplicate select: %v", label, err)
			}
			if s2.Selected() != len(addrs) {
				t.Fatalf("%s: dedup failed: %d selected, want %d", label, s2.Selected(), len(addrs))
			}
			got2, err := s2.Finish(ctx)
			if err != nil {
				t.Fatalf("%s: finish2: %v", label, err)
			}
			if !bytes.Equal(want.Output, got2.Output) {
				t.Errorf("%s: chunked stream output differs from Rewrite", label)
			}
			if want.Stats != got2.Stats {
				t.Errorf("%s: stats differ: %+v vs %+v", label, want.Stats, got2.Stats)
			}
		}
	}
}

// TestStreamInputUntouched proves the zero-copy discipline: a full
// streaming rewrite never writes to the input slice, so a read-only
// mmap view is safe to pass.
func TestStreamInputUntouched(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	orig := append([]byte(nil), bin...)
	s, err := NewStream(ctx, bin, Config{Select: SelectAll, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, bin) {
		t.Fatal("streaming rewrite mutated the input slice")
	}
}

// TestStreamReservePerSession opens two sessions from one Config whose
// ReserveVA has spare capacity: a reservation made on one must not be
// seen, or overwritten, by the other. Stream A reserves the pages the
// unreserved rewrite puts its trampolines in, so its output moves, and
// stream B reserves a range no trampoline goes near.
func TestStreamReservePerSession(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	base := workload.ReserveVA()
	cfg := Config{Select: SelectJumps, ReserveVA: append(make([][2]uint64, 0, len(base)+4), base...)}
	p, err := Plan(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range p.Sites {
		for _, tr := range s.Trampolines {
			lo, hi = min(lo, tr.Addr), max(hi, tr.Addr+uint64(len(tr.Code)))
		}
	}
	if hi == 0 {
		t.Fatal("the plan places no trampoline")
	}
	x := [2]uint64{lo &^ 0xFFF, (hi + 0xFFF) &^ 0xFFF}
	y := [2]uint64{1 << 44, 1<<44 + 0x1000}

	rewriteWith := func(r [2]uint64) []byte {
		c := cfg
		c.ReserveVA = append(slices.Clone(base), r)
		res, err := Rewrite(bin, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	wantA, wantB := rewriteWith(x), rewriteWith(y)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("reserving the trampolines' pages does not move them")
	}
	a, err := NewStream(ctx, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(ctx, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(x[0], x[1]); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(y[0], y[1]); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		s    *Stream
		want []byte
	}{{"A", a, wantA}, {"B", b, wantB}} {
		res, err := s.s.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Output, s.want) {
			t.Errorf("stream %s's output is not that of a rewrite with its own reservation", s.name)
		}
	}
	if len(cfg.ReserveVA) != len(base) {
		t.Errorf("the sessions grew the caller's ReserveVA to %d ranges", len(cfg.ReserveVA))
	}
}

// TestStreamSessionGuards covers misuse: use after Finish and nil
// selectors are classified errors, never panics.
func TestStreamSessionGuards(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	s, err := NewStream(ctx, bin, Config{ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(nil); err == nil {
		t.Fatal("nil selector: want error")
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectAddrs(0x401000); err == nil {
		t.Fatal("select after finish: want error")
	}
	if _, err := s.Finish(ctx); err == nil {
		t.Fatal("double finish: want error")
	}
}

// TestStreamSiteLimit checks the patch-site cap: the message that
// crosses the limit fails early, and — the over-limit selection stays
// in the session — so does a Finish that ignores that failure, instead
// of patching every selected site.
func TestStreamSiteLimit(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	cfg := Config{ReserveVA: workload.ReserveVA()}
	cfg.Limits.MaxPatchSites = 3
	s, err := NewStream(ctx, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(SelectAll); !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("selection beyond MaxPatchSites: want ErrResourceLimit, got %v", err)
	}
	if res, err := s.Finish(ctx); !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("Finish after an over-limit Select: want ErrResourceLimit, got %v (result %v)", err, res != nil)
	}
}

// TestConfigErrorsClassified pins the class of the two configuration
// mistakes the pipeline itself rejects: a missing selector (Rewrite and
// Plan only — a session may start empty) and a SkipPrefix beyond .text.
func TestConfigErrorsClassified(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin

	if _, err := Rewrite(bin, Config{}); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Rewrite without Select: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := Plan(bin, Config{}); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Plan without Select: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := NewStream(ctx, bin, Config{}); err != nil {
		t.Errorf("NewStream without Select: %v", err)
	}

	far := Config{Select: SelectJumps, SkipPrefix: uint64(len(bin))}
	if _, err := Rewrite(bin, far); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Rewrite with SkipPrefix past .text: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := Plan(bin, far); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Plan with SkipPrefix past .text: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := NewStream(ctx, bin, far); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("NewStream with SkipPrefix past .text: want ErrUnsupportedBinary, got %v", err)
	}

	// -1 disables grouping; anything below it is not an alias of -1.
	low := Config{Select: SelectJumps, Granularity: -5}
	if _, err := Rewrite(bin, low); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Rewrite with granularity -5: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := Plan(bin, low); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("Plan with granularity -5: want ErrUnsupportedBinary, got %v", err)
	}
	if _, err := NewStream(ctx, bin, low); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("NewStream with granularity -5: want ErrUnsupportedBinary, got %v", err)
	}
}

// TestSelectorIndexOutOfRange: a selector that returns an index outside
// the universe is the caller's mistake and is reported as one — a
// classified error naming the index, not a recovered panic — through
// every way a selector reaches the session, which stays usable.
func TestSelectorIndexOutOfRange(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	s, err := NewStream(ctx, bin, Config{ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, s.Insts(), s.Insts() + 64, 1 << 40} {
		sel := func([]x86.Loc) []int { return []int{0, idx} }
		check := func(via string, err error) {
			t.Helper()
			var ee *Error
			if !errors.As(err, &ee) || !errors.Is(err, ErrMalformedBinary) || ee.Recovered() ||
				!strings.Contains(err.Error(), fmt.Sprintf("index %d outside [0, %d)", idx, s.Insts())) {
				t.Errorf("%s, index %d: error %v, want a malformed-selection error naming the index", via, idx, err)
			}
		}
		_, err := Rewrite(bin, Config{Select: sel, ReserveVA: workload.ReserveVA()})
		check("Rewrite", err)
		_, err = Plan(bin, Config{Select: sel, ReserveVA: workload.ReserveVA()})
		check("Plan", err)
		_, err = s.Select(sel)
		check("Stream.Select", err)
		if s.Selected() != 0 {
			t.Fatalf("a rejected selection left %d sites in the session", s.Selected())
		}
	}
	if n, err := s.Select(SelectJumps); err != nil || n == 0 {
		t.Fatalf("Select after rejected selections: %d, %v", n, err)
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// failingWriter accepts limit bytes in all, keeping them, and fails the
// write that would pass it.
type failingWriter struct {
	limit int
	got   []byte
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if room := w.limit - len(w.got); len(p) > room {
		w.got = append(w.got, p[:room]...)
		return room, w.err
	}
	w.got = append(w.got, p...)
	return len(p), nil
}

// TestRewriteToWriteFailure is the write-failure contract: a writer that
// fails inside any of the six output segments ends RewriteTo and
// FinishTo with an ErrOutput of phase emit that wraps the writer's own
// error — not ErrInternal, not a recovered panic — having received the
// output's prefix up to there and nothing else.
func TestRewriteToWriteFailure(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	cfg := Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()}
	ref, err := Rewrite(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(bin)
	if err != nil {
		t.Fatal(err)
	}
	textOff, _, textSize, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := elf64.AppendedBlob(ref.Output)
	if !ok {
		t.Fatal("reference output has no blob")
	}
	// Segment ends, in file order.
	ends := []struct {
		name string
		end  int
	}{
		{"head", int(textOff)},
		{"text", int(textOff + textSize)},
		{"tail", len(bin)},
		{"pad", len(ref.Output) - 24 - len(blob)},
		{"blob", len(ref.Output) - 24},
		{"trailer", len(ref.Output)},
	}
	sinkErr := errors.New("sink full")
	start := 0
	for _, seg := range ends {
		if seg.end <= start {
			t.Fatalf("segment %s is empty: the table would not fail inside it", seg.name)
		}
		// The segment's first byte and its last: the failure offsets that
		// border its neighbours.
		for _, limit := range []int{start, seg.end - 1} {
			for _, via := range []string{"RewriteTo", "FinishTo"} {
				label := fmt.Sprintf("%s in %s at %d", via, seg.name, limit)
				w := &failingWriter{limit: limit, err: sinkErr}
				var res *Result
				var err error
				if via == "RewriteTo" {
					res, err = RewriteTo(ctx, w, bin, cfg)
				} else {
					s, serr := NewStream(ctx, bin, cfg)
					if serr != nil {
						t.Fatal(serr)
					}
					res, err = s.FinishTo(ctx, w)
				}
				var e *Error
				if res != nil || !errors.As(err, &e) {
					t.Fatalf("%s: result %v, error %v: want a classified error only", label, res, err)
				}
				if e.Phase != "emit" || e.Recovered() || !errors.Is(err, ErrOutput) || errors.Is(err, ErrInternal) {
					t.Errorf("%s: error %v (phase %q, recovered %v) is not an emit-phase ErrOutput", label, err, e.Phase, e.Recovered())
				}
				if !errors.Is(err, sinkErr) {
					t.Errorf("%s: error %v does not wrap the writer's", label, err)
				}
				if !bytes.Equal(w.got, ref.Output[:limit]) {
					t.Errorf("%s: the writer received %d bytes that are not the output's first %d", label, len(w.got), limit)
				}
			}
		}
		start = seg.end
	}
}
