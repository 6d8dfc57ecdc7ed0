package e9patch

import (
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/plan"
)

// injectDefaultBase is where pipeline-allocated injections (the call
// template's argument tables) go when the configuration injects
// nothing of its own. It sits far above both link bases and PIEBase,
// and below the stack region.
const injectDefaultBase uint64 = 0xA_0000_0000

// injectionTop returns the page-aligned address just past the highest
// existing injection, where the pipeline allocates its own tables —
// right above the payload so the whole injected region stays compact.
// With no injections configured it falls back to injectDefaultBase.
func injectionTop(inject []plan.Injection) uint64 {
	top := injectDefaultBase
	for _, inj := range inject {
		if end := (inj.Addr + uint64(len(inj.Data)) + elf64.PageSize - 1) &^ (elf64.PageSize - 1); end > top {
			top = end
		}
	}
	return top
}

// validateInjections rejects injection lists that could corrupt the
// output: empty or address-wrapping images, images overlapping each
// other, and images overlapping the binary's own loaded segments
// (page-rounded — the loader maps whole pages, and injected pages are
// mapped before the input's segments). phase is "plan" (a
// configuration mistake, ErrUnsupported) or "apply" (a hostile plan,
// ErrMalformed).
func validateInjections(inject []plan.Injection, f *elf64.File, bias uint64, phase string) error {
	if len(inject) == 0 {
		return nil
	}
	fail := func(format string, args ...any) error {
		if phase == "apply" {
			return e9err.Malformed(phase, format, args...)
		}
		return e9err.Unsupported(phase, format, args...)
	}
	type span struct{ lo, hi uint64 }
	spans := make([]span, 0, len(inject))
	for _, inj := range inject {
		if len(inj.Data) == 0 {
			return fail("e9patch: empty injection at %#x", inj.Addr)
		}
		end := inj.Addr + uint64(len(inj.Data))
		if end < inj.Addr {
			return fail("e9patch: injection at %#x wraps the address space", inj.Addr)
		}
		if p, ok := segmentAt(f, bias, inj.Addr, end); ok {
			return fail("e9patch: injection [%#x,%#x) overlaps loaded segment [%#x,%#x)",
				inj.Addr, end, p.Vaddr+bias, p.Vaddr+bias+p.Memsz)
		}
		for _, s := range spans {
			if inj.Addr < s.hi && s.lo < end {
				return fail("e9patch: injection [%#x,%#x) overlaps another injection", inj.Addr, end)
			}
		}
		spans = append(spans, span{lo: inj.Addr, hi: end})
	}
	return nil
}

// segmentAt returns the loaded segment whose pages the non-empty range
// [lo, hi) overlaps, if any. Segments are page-rounded: the loader maps
// whole pages, so nothing else may share a page with one.
func segmentAt(f *elf64.File, bias, lo, hi uint64) (elf64.Prog, bool) {
	for _, p := range f.Progs {
		if p.Type != elf64.PTLoad || p.Memsz == 0 {
			continue
		}
		slo := (p.Vaddr + bias) &^ (elf64.PageSize - 1)
		shi := (p.Vaddr + bias + p.Memsz + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		if lo < shi && slo < hi {
			return p, true
		}
	}
	return elf64.Prog{}, false
}
