package e9patch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/match"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// ctxErr converts a context cancellation into the rewrite error
// returned at phase boundaries.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("e9patch: rewrite aborted: %w", err)
	}
	return nil
}

// phaseDeadline derives a per-phase context when Limits.PhaseTimeout is
// set; with no timeout the parent context is returned unchanged with a
// no-op cancel, so callers can treat both shapes uniformly.
func phaseDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// pipelineState is the parse+disassembly outcome a session holds: the
// decision phases that follow (selection, injections, patching) all run
// against it.
type pipelineState struct {
	f        *elf64.File
	bias     uint64
	textOff  uint64 // file offset of .text
	textAddr uint64 // link-time .text address
	text     []byte
	insts    []x86.Loc
	badBytes int
	width    int
	mode     disasm.Mode
	sstats   *disasm.SupersetStats // nil for linear mode
}

// openPipeline runs the front half of the decision pipeline: normalize
// the configuration, enforce the input-side limits, parse the ELF and
// disassemble .text. cfg is normalized in place (template and
// granularity defaults). input is only ever read — it may be an mmap
// view.
func openPipeline(ctx context.Context, input []byte, cfg *Config) (*pipelineState, error) {
	if cfg.Template == nil {
		cfg.Template = trampoline.Empty{}
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = 1
	}
	if cfg.Granularity > MaxGranularity {
		return nil, e9err.Unsupported("plan", "e9patch: granularity %d exceeds the maximum %d", cfg.Granularity, MaxGranularity)
	}
	mode, err := disasm.ParseMode(string(cfg.Disasm))
	if err != nil {
		return nil, e9err.Unsupported("plan", "e9patch: %v", err)
	}
	cfg.Disasm = mode
	lim := cfg.Limits
	if lim.MaxInputBytes > 0 && int64(len(input)) > lim.MaxInputBytes {
		return nil, e9err.Limit("parse", e9err.ReasonInputTooLarge,
			"e9patch: input is %d bytes, limit is %d", len(input), lim.MaxInputBytes)
	}

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	f, err := elf64.Parse(input)
	if err != nil {
		return nil, err
	}
	var bias uint64
	if f.IsPIE() {
		bias = PIEBase
	}

	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	text := f.Data[textOff : textOff+textSize]
	if lim.MaxTextBytes > 0 && int64(len(text)) > lim.MaxTextBytes {
		return nil, e9err.Limit("parse", e9err.ReasonTextTooLarge,
			"e9patch: .text is %d bytes, limit is %d", len(text), lim.MaxTextBytes)
	}
	if cfg.SkipPrefix > uint64(len(text)) {
		return nil, e9err.Unsupported("parse", "e9patch: SkipPrefix %d exceeds .text size %d", cfg.SkipPrefix, len(text))
	}
	width := cfg.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}

	// The frontend: sharded instruction recovery under the configured
	// mode, locations and sizes only. Linear's sharded sweep provably
	// equals the sequential one (the stitch, see disasm/linear.go) and
	// the superset decode is per-offset independent, so shard geometry
	// is free to follow width in every mode.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	dctx, dcancel := phaseDeadline(ctx, lim.PhaseTimeout)
	dres, sstats, dok := disasm.RecoverCancel(mode, text[cfg.SkipPrefix:], textAddr+bias+cfg.SkipPrefix, width, cfg.Pool, dctx.Done())
	if !dok {
		deadlined := errors.Is(dctx.Err(), context.DeadlineExceeded)
		dcancel()
		if deadlined {
			return nil, e9err.Limit("disasm", e9err.ReasonPhaseDeadline,
				"e9patch: disassembly exceeded the phase deadline %s", lim.PhaseTimeout)
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return nil, e9err.Internal("disasm", "e9patch: disassembly aborted without a cancellation cause")
	}
	dcancel()

	return &pipelineState{
		f:        f,
		bias:     bias,
		textOff:  textOff,
		textAddr: textAddr,
		text:     text,
		insts:    dres.Insts,
		badBytes: dres.BadBytes,
		width:    width,
		mode:     mode,
		sstats:   sstats,
	}, nil
}

// finishPlanPhase runs the decision phases that follow selection:
// injection preparation and validation, address-space reservation, and
// the S1 reverse-order patch loop with trampoline allocation. selected
// holds instruction indices in ascending order. recordPlan keeps the
// rewriter's per-location plan record (the plan terminal); Finish
// materializes straight from the live rewriter and drops it.
func finishPlanPhase(ctx context.Context, st *pipelineState, cfg *Config, selected []int, recordPlan bool) (*patch.Rewriter, []plan.Injection, error) {
	lim := cfg.Limits

	// Injection phase: copy the configured injections, give Preparer
	// templates (the call trampoline's argument tables) their
	// whole-selection pass with an allocator that appends further
	// injections, then validate the lot against the binary's segments.
	inject := make([]plan.Injection, 0, len(cfg.Inject))
	for _, inj := range cfg.Inject {
		d := make(plan.Bytes, len(inj.Data))
		copy(d, inj.Data)
		inject = append(inject, plan.Injection{Addr: inj.Addr, Data: d})
	}
	if prep, ok := cfg.Template.(trampoline.Preparer); ok {
		alloc := func(data []byte) (uint64, error) {
			base := injectionTop(inject)
			d := make(plan.Bytes, len(data))
			copy(d, data)
			inject = append(inject, plan.Injection{Addr: base, Data: d})
			return base, nil
		}
		if err := prep.Prepare(st.insts, selected, alloc); err != nil {
			return nil, nil, e9err.Wrap(e9err.ErrUnsupported, "plan", err)
		}
	}
	if err := validateInjections(inject, st.f, st.bias, "plan"); err != nil {
		return nil, nil, err
	}

	// Address-space model: all loaded segments are off limits
	// (page-rounded, since the loader maps whole pages), as are any
	// caller-reserved ranges.
	space := va.NewDefault()
	for _, p := range st.f.Progs {
		if p.Type != elf64.PTLoad || p.Memsz == 0 {
			continue
		}
		lo := (p.Vaddr + st.bias) &^ (elf64.PageSize - 1)
		hi := (p.Vaddr + st.bias + p.Memsz + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		if err := reserveMerged(space, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	for _, iv := range cfg.ReserveVA {
		if err := reserveMerged(space, iv[0], iv[1]); err != nil {
			return nil, nil, err
		}
	}
	for _, inj := range inject {
		lo := inj.Addr &^ (elf64.PageSize - 1)
		hi := (inj.Addr + uint64(len(inj.Data)) + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		if err := reserveMerged(space, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	_, loadHi := st.f.LoadBounds()
	poolHint := (loadHi + st.bias + 2*elf64.PageSize) &^ (elf64.PageSize - 1)

	// Patch phase: the heavy loop also polls ctx between locations.
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	popts := cfg.Patch
	popts.Template = cfg.Template
	if lim.MaxTrampolineBytes > 0 {
		popts.TrampolineBudget = lim.MaxTrampolineBytes
	}
	pctx, pcancel := phaseDeadline(ctx, lim.PhaseTimeout)
	popts.Cancel = pctx.Done()
	rw := patch.New(st.text, st.textAddr+st.bias, st.insts, space, poolHint, popts)
	if !recordPlan {
		rw.DiscardPlan()
	}
	for _, inj := range inject {
		rw.Injected(inj.Addr, len(inj.Data))
	}
	rw.PatchAll(selected)
	deadlined := errors.Is(pctx.Err(), context.DeadlineExceeded)
	pcancel()
	if deadlined {
		return nil, nil, e9err.Limit("patch", e9err.ReasonPhaseDeadline,
			"e9patch: patching exceeded the phase deadline %s", lim.PhaseTimeout)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if rw.LimitExceeded() {
		return nil, nil, e9err.Limit("patch", e9err.ReasonTrampolineBudget,
			"e9patch: emitted trampoline code exceeds the %d-byte budget", lim.MaxTrampolineBytes)
	}
	return rw, inject, nil
}

// parallelSelect evaluates the selector, sharding the instruction
// slice across workers when the selector is registered as
// per-instruction pure (match.Shardable); shard results are index-
// offset and concatenated, which equals the sequential evaluation
// exactly. Unregistered selectors always run sequentially.
func parallelSelect(sel Selector, insts []x86.Loc, width int, pool *work.Pool) []int {
	const minShardInsts = 4096
	nsh := len(insts) / minShardInsts
	if most := width * 4; nsh > most {
		nsh = most
	}
	if width <= 1 || nsh <= 1 || !match.Shardable(sel) {
		return sel(insts)
	}
	parts := make([][]int, nsh)
	work.ForEach(pool, width, nsh, func(i int) {
		lo := i * len(insts) / nsh
		hi := (i + 1) * len(insts) / nsh
		part := sel(insts[lo:hi])
		for j := range part {
			part[j] += lo
		}
		parts[i] = part
	})
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// diagnoseSelection explains a selection the caller found empty when
// the cause is the most common address-coordinate mix-up: an
// address-based selector (SelectAddresses or an addr= matcher) fed
// addresses in the wrong coordinate system. PIE instructions carry
// runtime addresses (file address + PIEBase), non-PIE instructions
// carry link-time addresses.
// The check is selector-agnostic: re-run the selector over a view of
// the disassembly shifted into the other coordinate system; if it now
// matches, the input addresses were in the wrong one.
func diagnoseSelection(sel Selector, insts []x86.Loc, bias uint64) []string {
	if len(insts) == 0 {
		return nil
	}
	shifted := make([]x86.Loc, len(insts))
	copy(shifted, insts)
	if bias != 0 {
		for i := range shifted {
			shifted[i].Addr -= bias
		}
		if n := len(sel(shifted)); n != 0 {
			return []string{fmt.Sprintf(
				"0 locations selected, but %d would match without the PIE load bias: "+
					"input addresses looked file-relative (< PIEBase); pass runtime "+
					"addresses (file address + e9patch.PIEBase) for PIE binaries", n)}
		}
		return nil
	}
	// Non-PIE: the converse mistake — runtime-style (PIEBase-shifted)
	// addresses fed to a binary loaded at its link address.
	for i := range shifted {
		shifted[i].Addr += PIEBase
	}
	if n := len(sel(shifted)); n != 0 {
		return []string{fmt.Sprintf(
			"0 locations selected, but %d would match with the PIE load bias "+
				"added: input addresses looked PIE-runtime-relative (>= PIEBase), "+
				"but this binary is not PIE; pass link-time addresses", n)}
	}
	return nil
}

// reserveMerged reserves [lo, hi), tolerating overlap with existing
// reservations (segments may share page-rounded boundaries; broad
// exclusion zones may span already-reserved runtime regions).
func reserveMerged(s *va.Space, lo, hi uint64) error {
	if lo < s.Min() {
		lo = s.Min()
	}
	if hi > s.Max() {
		hi = s.Max()
	}
	cursor := lo
	for cursor < hi {
		// Skip any occupied interval covering the cursor.
		if iv, ok := s.Floor(cursor); ok && iv.Hi > cursor {
			cursor = iv.Hi
			continue
		}
		gapEnd := hi
		if next, ok := s.Ceiling(cursor); ok && next.Lo < hi {
			gapEnd = next.Lo
		}
		if gapEnd > cursor {
			if err := s.Reserve(cursor, gapEnd); err != nil {
				return err
			}
		}
		cursor = gapEnd
	}
	return nil
}
