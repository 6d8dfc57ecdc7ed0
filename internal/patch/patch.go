// Package patch implements E9Patch's control-flow-agnostic rewriting
// core: the baseline methodologies B0 (int3), B1 (direct jump) and B2
// (instruction punning), the coverage-boosting tactics T1 (padded
// jumps), T2 (successor eviction) and T3 (neighbour eviction), and the
// reverse-order patching strategy S1 with its per-byte lock state.
//
// The rewriter mutates one copy of the text section strictly in place;
// trampolines are allocated in the binary's virtual address space and
// their code is emitted by trampoline templates. No control-flow
// information is consumed: every decision depends only on instruction
// locations/sizes, raw byte values and address-space geometry.
//
// A Rewriter keeps one record of what it committed (emit.go), which
// reads as the patched image (Code, Trampolines, SigTab) or as plan
// sites (Sites); Replay is the inverse of Sites.
package patch

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// Tactic identifies which patching methodology succeeded for a
// location.
type Tactic uint8

// Tactics in escalation order.
const (
	// TacticNone marks an unpatched location.
	TacticNone Tactic = iota
	// TacticB1 is a direct 5-byte jump (instruction length >= 5).
	TacticB1
	// TacticB2 is baseline instruction punning (unpadded).
	TacticB2
	// TacticT1 is a padded punned jump.
	TacticT1
	// TacticT2 is successor eviction followed by re-punning.
	TacticT2
	// TacticT3 is neighbour eviction with a short-jump double jump.
	TacticT3
	// TacticB0 is the int3/signal-handler fallback.
	TacticB0

	numTactics
)

// tacticNames is the plan IR's table: a Tactic is its index, which is
// also the code a serialized plan stores (the array type keeps the two
// the same length).
var tacticNames [numTactics]string = plan.TacticNames

func (t Tactic) String() string {
	if int(t) < len(tacticNames) {
		return tacticNames[t]
	}
	return fmt.Sprintf("tactic(%d)", uint8(t))
}

// tacticFromName is the inverse of Tactic.String, used when replaying
// a plan.
func tacticFromName(name string) (Tactic, bool) {
	for i, n := range tacticNames {
		if n == name {
			return Tactic(i), true
		}
	}
	return TacticNone, false
}

// Options configures the rewriter.
type Options struct {
	// Template builds patch trampolines. Defaults to the empty
	// instrumentation. Evictee trampolines for T2/T3 victims are always
	// trampoline.Empty, the paper's definition of one.
	Template trampoline.Template
	// DisableT1/T2/T3 turn individual tactics off (ablations).
	DisableT1 bool
	DisableT2 bool
	DisableT3 bool
	// B0Fallback patches locations all tactics failed on with int3,
	// relying on a SIGTRAP dispatcher at run time.
	B0Fallback bool
	// ForceB0 patches every location with int3 (the §2.1.1 baseline),
	// bypassing all jump-based tactics.
	ForceB0 bool
	// Cancel, when non-nil, makes PatchAll stop between locations once
	// the channel is closed (typically a context's Done channel).
	// Remaining locations are left unpatched; the caller is expected
	// to notice the cancellation and discard the partial result.
	Cancel <-chan struct{}
	// Workers is not read: PatchAll is one sequential S1 pass. The field
	// stays only because bench/replay.go still sets it.
	Workers int
	// TrampolineBudget, when > 0, bounds the total bytes of emitted
	// trampoline code. Once exceeded the rewriter stops patching and
	// reports LimitExceeded; the caller fails the rewrite with a typed
	// resource-limit error instead of letting a hostile selection
	// allocate without bound.
	TrampolineBudget int64
}

// Trampoline is one emitted trampoline.
type Trampoline struct {
	// Addr is the trampoline's virtual address.
	Addr uint64
	// Code is the emitted machine code.
	Code []byte
	// ForAddr is the patched or evicted instruction's address.
	ForAddr uint64
	// Evictee reports whether this trampoline replaces an evicted
	// victim rather than implementing a patch.
	Evictee bool
	// exits is how many branches into the text the code ends with
	// (epilogue.go), and site the index of its site in the results.
	exits uint8
	site  int32
}

// LocResult records the outcome for one patch location.
type LocResult struct {
	// Addr is the patch instruction's address.
	Addr uint64
	// Tactic is the methodology that succeeded (TacticNone if all
	// failed and no B0 fallback was requested).
	Tactic Tactic
}

// Stats aggregates patching outcomes, mirroring Table 1's columns.
type Stats struct {
	// Total is the number of patch locations attempted.
	Total int
	// ByTactic counts successes per tactic.
	ByTactic [numTactics]int
	// Failed counts locations no tactic could patch.
	Failed int
}

// Patched returns the total number of successfully patched locations.
func (s *Stats) Patched() int { return s.Total - s.Failed }

// Percent returns 100*n/Total (0 when empty).
func (s *Stats) Percent(n int) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Total)
}

// BasePercent returns the Table 1 "Base%" column (B1+B2).
func (s *Stats) BasePercent() float64 {
	return s.Percent(s.ByTactic[TacticB1] + s.ByTactic[TacticB2])
}

// SuccPercent returns the Table 1 "Succ%" column.
func (s *Stats) SuccPercent() float64 { return s.Percent(s.Patched()) }

// Rewriter patches one text section.
type Rewriter struct {
	// orig is the text the rewriter was built over, never written: the
	// epilogue pass copies original code from here. code is the one
	// mutable copy, and locks the S1 lock state, one bit per text byte.
	orig     []byte
	code     []byte
	textAddr uint64
	insts    []x86.Loc
	locks    []uint64
	patched  bool // PatchAll has run
	space    *va.Space
	opts     Options

	// site and victim are the full decodes of the location inside
	// patchOne and of the T2/T3 victim it is currently trying to evict:
	// the only instructions the patcher ever decodes, and only for the
	// templates. The neighbour scans read the universe records.
	site, victim x86.Inst

	// patchT and evictT are the patch and evictee templates. siteSize
	// caches patchT's size for the location inside patchOne: a template
	// is sized once per site, by the first tactic that has a window to
	// place it in, and every later pad, T2 candidate and T3 victim reuses
	// the answer (a failure included). patchResumes says that patchT ends
	// in EmitDisplaced's return jump, which epilogues replace: every
	// template does but trampoline.Raw.
	patchT, evictT trampoline.Template
	siteSize       int
	siteSized      sizeState
	patchResumes   bool
	// slab receives the code of every trampoline.
	slab      []byte
	slabChunk int

	// The record of every committed effect (emit.go). results holds each
	// location's outcome in patch order, and ends the same location's pad
	// and the end of its writes, a run of spans over code. Trampolines
	// and B0 bindings name their location's index in results. pad is the
	// pad of the location inside patchOne.
	results     []LocResult
	ends        []siteEnd
	writes      []span
	trampolines []Trampoline
	bindings    []binding
	pad         int32

	// hint is the bump cursor for unconstrained allocations.
	hint uint64

	// trampBytes sums emitted trampoline code bytes; limited flips once
	// Options.TrampolineBudget is exceeded and stops further patching.
	trampBytes int64
	limited    bool

	// offsets holds the page offsets of the bytes mapped beside the
	// trampolines (Injected) and, from the epilogue pass on, of every
	// trampoline byte the patching emitted.
	offsets offsetSet
}

// New creates a rewriter over a mutable copy of code, which it keeps
// and reads again in the epilogue pass: the caller must not write to
// code while the rewriter is in use. The space must
// already contain reservations for every loaded segment of the binary
// (and anything else trampolines may not overlap). poolHint seeds the
// preferred region for unconstrained trampoline allocation (typically
// just above the binary's highest loaded address).
func New(code []byte, textAddr uint64, insts []x86.Loc, space *va.Space, poolHint uint64, opts Options) *Rewriter {
	if opts.Template == nil {
		opts.Template = trampoline.Empty{}
	}
	checkTextSize(code)
	_, raw := opts.Template.(trampoline.Raw)
	return &Rewriter{
		orig:     code,
		code:     bytes.Clone(code),
		textAddr: textAddr,
		insts:    insts,
		locks:    make([]uint64, (len(code)+63)/64),
		space:    space,
		opts:     opts,
		patchT:   opts.Template,
		evictT:   trampoline.Empty{},
		hint:     poolHint,

		patchResumes: !raw,
	}
}

// Code returns the (patched) text bytes.
func (r *Rewriter) Code() []byte { return r.code }

// Trampolines returns all emitted trampolines.
func (r *Rewriter) Trampolines() []Trampoline { return r.trampolines }

// Results returns per-location outcomes in patch order.
func (r *Rewriter) Results() []LocResult { return r.results }

// SigTab returns the B0 dispatch table (int3 address -> trampoline).
func (r *Rewriter) SigTab() map[uint64]uint64 {
	tab := make(map[uint64]uint64, len(r.bindings))
	for _, b := range r.bindings {
		tab[b.int3] = b.tramp
	}
	return tab
}

// Stats returns aggregate patching statistics.
func (r *Rewriter) Stats() Stats {
	s := Stats{Total: len(r.results)}
	for _, l := range r.results {
		s.ByTactic[l.Tactic]++
	}
	s.Failed, s.ByTactic[TacticNone] = s.ByTactic[TacticNone], 0
	return s
}

// LimitExceeded reports whether patching stopped because the
// trampoline byte budget ran out; the partial result must be
// discarded.
func (r *Rewriter) LimitExceeded() bool { return r.limited }

// cancelled reports whether Options.Cancel is closed.
func (r *Rewriter) cancelled() bool {
	select {
	case <-r.opts.Cancel:
		return true
	default:
		return false
	}
}

// off converts a text virtual address to a byte offset.
func (r *Rewriter) off(addr uint64) int { return int(addr - r.textAddr) }

// instAt returns the index of the instruction starting exactly at addr.
// The universe is address-ascending, so a binary search serves the two
// exact-address lookup sites with no index beside it.
func (r *Rewriter) instAt(addr uint64) (int, bool) {
	i := sort.Search(len(r.insts), func(i int) bool { return r.insts[i].Addr >= addr })
	if i < len(r.insts) && r.insts[i].Addr == addr {
		return i, true
	}
	return 0, false
}

// inText reports whether [addr, addr+n) lies inside the text section.
func (r *Rewriter) inText(addr uint64, n int) bool {
	o := int64(addr) - int64(r.textAddr)
	return o >= 0 && o+int64(n) <= int64(len(r.code))
}

// lockSpan returns the lock word and bit mask covering the first k bytes
// of the text offsets [o, o+n): as many as fall into one word.
func lockSpan(o, n int) (w int, mask uint64, k int) {
	bit := o & 63
	k = min(n, 64-bit)
	return o >> 6, (^uint64(0) >> uint(64-k)) << uint(bit), k
}

// anyLocked reports whether any byte of [addr, addr+n) is locked.
func (r *Rewriter) anyLocked(addr uint64, n int) bool {
	for o := r.off(addr); n > 0; {
		w, mask, k := lockSpan(o, n)
		if r.locks[w]&mask != 0 {
			return true
		}
		o, n = o+k, n-k
	}
	return false
}

// lock marks [addr, addr+n) locked (modified or punned bytes).
func (r *Rewriter) lock(addr uint64, n int) {
	for o := r.off(addr); n > 0; {
		w, mask, k := lockSpan(o, n)
		r.locks[w] |= mask
		o, n = o+k, n-k
	}
}

// PatchAll applies the reverse-order strategy S1: locations are patched
// from highest to lowest address, in one pass under one lock state, so
// that puns only ever depend on bytes that are already final. A last
// pass rewrites the trampolines' branches into the text into epilogues
// (epilogue.go). It polls Options.Cancel every 256 locations.
//
// A Rewriter patches once: the lock state and the address space carry
// the first call's decisions, so a second call is a caller's bug, as is
// a call on a replayed Rewriter (Replay).
func (r *Rewriter) PatchAll(indices []int) Stats {
	if r.patched {
		panic("patch: PatchAll called on a Rewriter that has patched or was replayed")
	}
	r.patched = true
	// A selection arrives in ascending order, so reversing it is
	// usually the whole sort.
	order := slices.Clone(indices)
	slices.Reverse(order)
	descending := func(a, b int) int { return cmp.Compare(r.insts[b].Addr, r.insts[a].Addr) }
	if !slices.IsSortedFunc(order, descending) {
		slices.SortFunc(order, descending)
	}
	// The output slices are allocated once from the selection instead of
	// doubling their way up. T2 and T3 emit a second trampoline; a
	// quarter more covers the densest profiles, and past it append grows
	// as usual.
	n := len(order)
	r.results = slices.Grow(r.results, n)
	r.ends = slices.Grow(r.ends, n)
	r.writes = slices.Grow(r.writes, n+n/4)
	r.trampolines = slices.Grow(r.trampolines, n+n/4)
	r.slabChunk = min(n*slabBytesPerSite, maxSlabChunk)
	for i, idx := range order {
		if r.limited {
			break // trampoline budget exhausted; result is discarded
		}
		if i&0xFF == 0 && r.cancelled() {
			break
		}
		r.patchOne(idx)
	}
	r.epilogues()
	return r.Stats()
}

// patchOne escalates through the tactics for a single location. The
// tactic functions decide; the emit half commits and records their
// effects (emit.go).
func (r *Rewriter) patchOne(idx int) {
	inst := &r.site
	r.insts[idx].DecodeInto(inst)
	r.siteSized = unsized
	r.pad = 0

	tactic := TacticNone
	switch {
	case r.opts.ForceB0:
		if r.tryInt3(inst) {
			tactic = TacticB0
		}
	case r.tryPunnedJump(inst):
		if inst.Len >= 5 {
			tactic = TacticB1
		} else {
			tactic = TacticB2
		}
	case !r.opts.DisableT1 && r.tryPaddedJump(inst):
		tactic = TacticT1
	case !r.opts.DisableT2 && r.trySuccessorEviction(inst):
		tactic = TacticT2
	case !r.opts.DisableT3 && r.tryNeighbourEviction(inst):
		tactic = TacticT3
	case r.opts.B0Fallback && r.tryInt3(inst):
		tactic = TacticB0
	}
	r.endSite(inst.Addr, tactic)
}
