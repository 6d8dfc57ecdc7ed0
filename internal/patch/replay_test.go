package patch

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/plan"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// TestReplayInvertsSites checks that the two readings of one record
// agree: Replay over a live rewriter's Sites rebuilds its patched text,
// trampolines (epilogue blocks included), B0 table, per-location
// results and statistics, and reads back the same Sites. The rows patch
// dense and sparse selections of the hostile program, between them
// reaching every tactic and the epilogue pass's out-of-line blocks; the
// last rows are plans Replay refuses.
func TestReplayInvertsSites(t *testing.T) {
	a := x86.NewAsm(testTextAddr)
	buildHostile(a)
	text := a.MustFinish()
	res, _ := disasm.Recover(disasm.ModeLinear, text, testTextAddr)
	all := selectExpr(t, "true", res.Insts)
	patchAll := func(opts Options, sel []int) *Rewriter {
		space := va.NewDefault()
		loadEnd := (testTextAddr + uint64(len(text)) + 0xFFF) &^ 0xFFF
		if err := space.Reserve(0x400000, loadEnd+0x2000); err != nil {
			t.Fatal(err)
		}
		r := New(text, testTextAddr, res.Insts, space, loadEnd+0x2000, opts)
		r.PatchAll(sel)
		return r
	}
	seen := map[Tactic]bool{}
	blocks := 0
	for _, tc := range []struct {
		name   string
		opts   Options
		sel    []int
		mutate func([]plan.Site) []plan.Site
		err    string
	}{
		{name: "dense", sel: all},
		{name: "dense B0 fallback", opts: Options{B0Fallback: true, DisableT3: true}, sel: all},
		{name: "dense ForceB0", opts: Options{ForceB0: true}, sel: all},
		{name: "jumps", sel: selectExpr(t, "branch", res.Insts)},
		{name: "jumps and heap writes", sel: append(selectExpr(t, "branch", res.Insts), selectExpr(t, "heapwrite", res.Insts)...)},
		{name: "unknown tactic", sel: all, err: `unknown tactic "T4"`,
			mutate: func(s []plan.Site) []plan.Site { s[len(s)/2].Tactic = "T4"; return s }},
		{name: "write outside the text", sel: all, err: "plan write of 1 bytes outside .text",
			mutate: func(s []plan.Site) []plan.Site {
				s[0].Writes = append(s[0].Writes, plan.Write{Addr: testTextAddr + uint64(len(text)), Data: plan.Bytes{0x90}})
				return s
			}},
		{name: "write below the text", sel: all, err: "plan write of 2 bytes outside .text",
			mutate: func(s []plan.Site) []plan.Site {
				s[0].Writes = append(s[0].Writes, plan.Write{Addr: testTextAddr - 1, Data: plan.Bytes{0x90, 0x90}})
				return s
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := patchAll(tc.opts, tc.sel)
			sites := live.Sites()
			if tc.mutate != nil {
				_, err := Replay(text, testTextAddr, tc.mutate(sites))
				if !errors.Is(err, e9err.ErrMalformed) || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Replay: %v, want ErrMalformed saying %q", err, tc.err)
				}
				return
			}
			r, err := Replay(text, testTextAddr, sites)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Code(), live.Code()) {
				t.Error("replayed text differs")
			}
			if !reflect.DeepEqual(r.Results(), live.Results()) {
				t.Error("replayed results differ")
			}
			if r.Stats() != live.Stats() {
				t.Errorf("replayed stats %+v, live %+v", r.Stats(), live.Stats())
			}
			if !maps.Equal(r.SigTab(), live.SigTab()) {
				t.Error("replayed B0 table differs")
			}
			// A live rewriter lists the epilogue pass's blocks last, a
			// replayed one beside their sites: compare them by address.
			byAddr := func(trs []Trampoline) []Trampoline {
				trs = slices.Clone(trs)
				for i := range trs {
					trs[i].exits = 0 // the epilogue pass's input, spent
				}
				slices.SortFunc(trs, func(a, b Trampoline) int { return cmp.Compare(a.Addr, b.Addr) })
				return trs
			}
			if got, want := byAddr(r.Trampolines()), byAddr(live.Trampolines()); !reflect.DeepEqual(got, want) {
				t.Errorf("replayed %d trampolines differ from the live %d", len(got), len(want))
			}
			if !reflect.DeepEqual(r.Sites(), sites) {
				t.Error("the replayed record reads back other sites")
			}
			// Sites reads a write's bytes from the patched text, which
			// holds them only if no later write covers them.
			written := make([]bool, len(text))
			for _, w := range live.writes {
				for o := w.off; o < w.off+w.n; o++ {
					if written[o] {
						t.Fatalf("text byte +%#x is written twice", o)
					}
					written[o] = true
				}
			}
			if len(sites) != len(tc.sel) {
				t.Errorf("%d sites for %d locations", len(sites), len(tc.sel))
			}
			for _, l := range live.Results() {
				seen[l.Tactic] = true
			}
			for _, tr := range live.Trampolines() {
				if !tr.Evictee && tr.ForAddr != live.Results()[tr.site].Addr {
					blocks++
				}
			}
			defer func() {
				if recover() == nil {
					t.Error("PatchAll on a replayed Rewriter did not panic")
				}
			}()
			r.PatchAll(nil)
		})
	}
	for _, tac := range []Tactic{TacticB1, TacticB2, TacticT1, TacticT2, TacticT3, TacticB0} {
		if !seen[tac] {
			t.Errorf("no row reaches %v", tac)
		}
	}
	if blocks == 0 {
		t.Error("no row makes an epilogue block")
	}
}
