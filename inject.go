package e9patch

import (
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
// other, and images overlapping the binary's loaded segments' pages
// (loads; injected pages are mapped before the input's segments).
// phase is the injections' source, as badSetting classes it.
func validateInjections(inject []plan.Injection, loads []span, phase string) error {
	spans := make([]span, 0, len(inject))
	for _, inj := range inject {
		if len(inj.Data) == 0 {
			return badSetting(phase, "empty injection at %#x", inj.Addr)
		}
		end := inj.Addr + uint64(len(inj.Data))
		if end < inj.Addr {
			return badSetting(phase, "injection at %#x wraps the address space", inj.Addr)
		}
		if s, ok := segmentAt(loads, inj.Addr, end); ok {
			return badSetting(phase, "injection [%#x,%#x) overlaps loaded segment [%#x,%#x)", inj.Addr, end, s.lo, s.hi)
		}
		for _, s := range spans {
			if inj.Addr < s.hi && s.lo < end {
				return badSetting(phase, "injection [%#x,%#x) overlaps another injection", inj.Addr, end)
			}
		}
		spans = append(spans, span{lo: inj.Addr, hi: end})
	}
	return nil
}

// span is a [lo, hi) address range.
type span struct{ lo, hi uint64 }

// loadSpans returns the pages of f's non-empty PT_LOAD segments at the
// load bias: the loader maps whole pages, so nothing else may share a
// page with a segment.
func loadSpans(f *elf64.File, bias uint64) []span {
	var loads []span
	for _, p := range f.Progs {
		if p.Type == elf64.PTLoad && p.Memsz != 0 {
			loads = append(loads, span{
				lo: (p.Vaddr + bias) &^ (elf64.PageSize - 1),
				hi: (p.Vaddr + bias + p.Memsz + elf64.PageSize - 1) &^ (elf64.PageSize - 1),
			})
		}
	}
	return loads
}

// segmentAt returns the segment pages of loads (loadSpans) that the
// non-empty range [lo, hi) overlaps, if any.
func segmentAt(loads []span, lo, hi uint64) (span, bool) {
	for _, s := range loads {
		if lo < s.hi && s.lo < hi {
			return s, true
		}
	}
	return span{}, false
}
