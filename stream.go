package e9patch

import (
	"context"
	"io"
	"math/bits"
	"slices"
	"sort"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
	"e9patch/internal/x86"
)

// Stream is an incremental rewrite session, and the one owner of the
// open → select → decide phases: the binary is parsed and disassembled
// once, patch selections arrive progressively — the JSON-RPC backend
// feeds one Select or SelectAddrs call per protocol message — and
// Finish (or FinishTo) runs the decision and emit phases over the
// accumulated union.
// Rewrite is NewStream + Finish and Plan is NewStream + plan, so equal
// selections give byte-identical results by construction.
//
// The input slice is never written: callers may hand a Stream the
// read-only mmap view from elf64.OpenInput, so a browser-class binary
// is paged in by the kernel on demand and never occupies the Go heap.
// A Stream is not safe for concurrent use; drive it from one goroutine
// (the protocol layer is sequential by construction).
type Stream struct {
	cfg      Config
	input    []byte
	st       *pipelineState
	insts    int // cached count: st is released during Finish
	badBytes int
	// sel is the selection, a bitset over instruction indices (nsel its
	// population count): dedup is one bit test per index even when
	// SelectAll adds every instruction, and a scan yields sorted sites.
	sel    []uint64
	nsel   int
	diag   []Selector // replayed for coordinate diagnostics when nothing matched
	closed bool
}

// NewStream opens an incremental session over input. Unlike Rewrite,
// cfg.Select is optional here: when set it contributes the initial
// selection, and every later Select/SelectAddrs adds to the union.
// Parsing and disassembly happen now; all Limits except the per-site
// cap are enforced here too.
func NewStream(ctx context.Context, input []byte, cfg Config) (_ *Stream, err error) {
	defer e9err.Recover("stream", &err)
	// Clipped, Reserve's first append copies instead of writing into the
	// spare capacity other sessions from the same Config share.
	cfg.ReserveVA = slices.Clip(cfg.ReserveVA)
	st, err := openPipeline(ctx, input, &cfg)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg: cfg, input: input, st: st,
		insts: len(st.insts), badBytes: st.badBytes,
		sel: make([]uint64, (len(st.insts)+63)/64),
	}
	if cfg.Select != nil {
		// Match phase boundary: the selector sweeps every instruction.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if _, err := s.Select(cfg.Select); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Insts returns the number of disassembled instructions.
func (s *Stream) Insts() int { return s.insts }

// BadBytes returns the count of undecodable bytes (offsets, for the
// superset modes) the recovery frontend skipped.
func (s *Stream) BadBytes() int { return s.badBytes }

// Selected returns the number of distinct patch locations accumulated
// so far.
func (s *Stream) Selected() int { return s.nsel }

// guard rejects use after Finish.
func (s *Stream) guard() error {
	if s.closed {
		return e9err.Malformed("stream", "e9patch: stream session already finished")
	}
	return nil
}

// add merges newly selected instruction indices into the session,
// returning how many were new. An index outside the universe is the
// selector's mistake, reported as such with the session unchanged. The
// patch-site limit is enforced incrementally so a hostile stream fails
// at the message that crosses the cap instead of after buffering an
// unbounded selection.
func (s *Stream) add(idxs []int) (int, error) {
	for _, i := range idxs {
		if i < 0 || i >= s.insts {
			return 0, e9err.Malformed("match", "e9patch: selector returned index %d outside [0, %d)", i, s.insts)
		}
	}
	added := 0
	for _, i := range idxs {
		if bit := uint64(1) << (i & 63); s.sel[i>>6]&bit == 0 {
			s.sel[i>>6] |= bit
			added++
		}
	}
	s.nsel += added
	return added, s.siteLimit()
}

// siteLimit enforces Limits.MaxPatchSites. An over-limit selection
// stays in the session, so decide checks again: a caller that ignores
// the failed message cannot Finish past the cap.
func (s *Stream) siteLimit() error {
	if limit := s.cfg.Limits.MaxPatchSites; limit > 0 && s.nsel > limit {
		return e9err.Limit("match", e9err.ReasonTooManySites,
			"e9patch: selected %d patch sites, limit is %d", s.nsel, limit)
	}
	return nil
}

// Select runs a selector over the disassembly and merges its matches
// into the session, returning the number of locations that were new.
func (s *Stream) Select(sel Selector) (_ int, err error) {
	defer e9err.Recover("stream", &err)
	if err := s.guard(); err != nil {
		return 0, err
	}
	if sel == nil {
		return 0, e9err.Malformed("stream", "e9patch: nil selector")
	}
	s.diag = append(s.diag, sel)
	return s.add(parallelSelect(sel, s.st.insts, s.st.width, s.cfg.Pool))
}

// SelectAddrs merges the instructions starting at exactly the given
// runtime virtual addresses (PIEBase included for PIE binaries) —
// the streaming counterpart of SelectAddresses. Each address is a
// binary search over the address-ascending disassembly, so per-message
// cost is O(k log n) rather than a full instruction sweep; addresses
// that hit no instruction boundary are silently unmatched, surfacing
// only through the return count and the empty-selection diagnostics.
func (s *Stream) SelectAddrs(addrs ...uint64) (_ int, err error) {
	defer e9err.Recover("stream", &err)
	if err := s.guard(); err != nil {
		return 0, err
	}
	idxs := indicesAt(s.st.insts, addrs)
	if len(idxs) < len(addrs) {
		// Remember the misses so Finish can diagnose the classic
		// coordinate mix-up if the whole session matched nothing.
		missed := append([]uint64(nil), addrs...)
		s.diag = append(s.diag, func(insts []x86.Loc) []int { return indicesAt(insts, missed) })
	}
	return s.add(idxs)
}

// indicesAt returns the indices of the instructions that start exactly
// at addrs, by binary search over the address-ascending disassembly.
func indicesAt(insts []x86.Loc, addrs []uint64) []int {
	out := make([]int, 0, len(addrs))
	for _, a := range addrs {
		i := sort.Search(len(insts), func(i int) bool { return insts[i].Addr >= a })
		if i < len(insts) && insts[i].Addr == a {
			out = append(out, i)
		}
	}
	return out
}

// Reserve adds [lo, hi) to the virtual-address ranges trampolines must
// avoid, like Config.ReserveVA. Reservations take effect at Finish, so
// they may arrive any time before it.
func (s *Stream) Reserve(lo, hi uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	if hi <= lo {
		return e9err.Malformed("stream", "e9patch: empty reservation [%#x,%#x)", lo, hi)
	}
	s.cfg.ReserveVA = append(s.cfg.ReserveVA, [2]uint64{lo, hi})
	return nil
}

// decide closes the session and runs everything between selection and
// emission, for both terminals: the site cap, the empty-selection
// diagnostics, then finishPlanPhase.
func (s *Stream) decide(ctx context.Context) (*patch.Rewriter, []plan.Injection, []string, error) {
	if err := s.guard(); err != nil {
		return nil, nil, nil, err
	}
	s.closed = true
	if err := s.siteLimit(); err != nil {
		return nil, nil, nil, err
	}
	var warnings []string
	if s.nsel == 0 {
		for _, sel := range s.diag {
			warnings = append(warnings, diagnoseSelection(sel, s.st.insts, s.st.bias)...)
		}
	}
	selected := make([]int, 0, s.nsel) // ascending, straight off the bitset
	for w, word := range s.sel {
		for ; word != 0; word &= word - 1 {
			selected = append(selected, w<<6+bits.TrailingZeros64(word))
		}
	}
	rw, inject, err := finishPlanPhase(ctx, s.st, &s.cfg, selected)
	return rw, inject, warnings, err
}

// Finish runs the remaining decision phases (injection preparation,
// address-space reservation, S1 patching) over the accumulated
// selection and emits the rewritten binary into Result.Output, a single
// allocation of exactly the output's size. The session cannot be used
// afterwards.
//
// Finish materializes straight from the live rewriter, with no plan in
// between: once patching has decided everything the universe, the
// selection and the rewriter's decision state are released before the
// output is written, so the emit-phase peak holds only the patched
// text, the trampolines and the output image. The
// universe is a 24-byte record per instruction and an mmap'd input
// stays off the heap, so on browser-class inputs Output is the largest
// thing Finish holds; a caller that only wants the bytes somewhere else
// uses FinishTo, which never builds it.
func (s *Stream) Finish(ctx context.Context) (*Result, error) {
	return s.FinishTo(ctx, nil)
}

// FinishTo is Finish with the output written to w instead of built in
// memory: the input around the text, the patched text and the appended
// blob go to w as they are, in file order, so nothing the size of the
// output is ever allocated. Result.Output is nil and Result.OutputSize
// the number of bytes written. An error from w ends the rewrite as an
// ErrOutput that wraps it; what w received until then is a prefix of
// the output and should be discarded. A nil w is Finish.
func (s *Stream) FinishTo(ctx context.Context, w io.Writer) (_ *Result, err error) {
	defer e9err.Recover("stream", &err)
	rw, inject, warnings, err := s.decide(ctx)
	if err != nil {
		return nil, err
	}
	st := s.st
	in := emitInput{
		input: s.input, f: st.f, bias: st.bias, textOff: st.textOff,
		gran: s.cfg.Granularity, inject: inject,
		insts: s.insts, badBytes: s.badBytes, mode: st.mode, recovery: st.sstats,
		warnings: warnings,
	}.of(rw)
	// Everything the emit tail needs is in hand: drop the universe, the
	// selection and the rewriter's working copies.
	s.st, s.sel, s.diag = nil, nil, nil
	return emit(in, w)
}

// plan is the other terminal: the same decide step, its record read as
// per-site entries and assembled into a PatchPlan bound to the input.
func (s *Stream) plan(ctx context.Context) (_ *PatchPlan, err error) {
	defer e9err.Recover("plan", &err)
	rw, inject, warnings, err := s.decide(ctx)
	if err != nil {
		return nil, err
	}
	st := s.st
	p := &plan.PatchPlan{
		Version:      plan.Version,
		Bias:         st.bias,
		TextAddr:     st.textAddr + st.bias,
		TextLen:      len(st.text),
		Granularity:  s.cfg.Granularity,
		SkipPrefix:   s.cfg.SkipPrefix,
		Disasm:       string(st.mode),
		DisasmDigest: disasm.UniverseDigest(st.mode, disasm.Result{Insts: st.insts, BadBytes: st.badBytes}),
		Insts:        s.insts,
		BadBytes:     s.badBytes,
		Warnings:     warnings,
		Injections:   inject,
		Sites:        rw.Sites(),
	}
	p.BindInput(s.input)
	return p, nil
}
