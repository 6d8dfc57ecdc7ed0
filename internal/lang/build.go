package lang

import (
	"fmt"
	"sort"

	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/lowfat"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// BuildResult is a spec lowered to pipeline configuration: selector,
// trampoline template, payload injections and extra VA reservations.
// The caller copies these into an e9patch.Config.
type BuildResult struct {
	// Select is the compiled, shardable patch-location selector.
	Select func(insts []x86.Loc) []int
	// Template is the trampoline template for the patch directive.
	Template trampoline.Template
	// Inject are the payload ELF's loadable segments, in runtime
	// coordinates (empty unless the patch is a call).
	Inject []plan.Injection
	// ReserveVA are extra address ranges the rewrite must keep free
	// (the lowfat runtime tables for lowfat patches).
	ReserveVA [][2]uint64
	// FnName/FnAddr identify the resolved payload function for call
	// patches (zero otherwise).
	FnName string
	FnAddr uint64
}

// Build lowers the spec. payload is the payload ELF's bytes for call
// patches (resolved from Spec.PayloadRef by the caller — a file for
// e9tool, a request field for e9served); other patch kinds ignore it.
func (s *Spec) Build(payload []byte) (*BuildResult, error) {
	r := &BuildResult{Select: s.Selector()}
	switch s.Patch.Kind {
	case PatchEmpty:
		r.Template = trampoline.Empty{}
	case PatchCounter:
		r.Template = trampoline.Counter{Addr: s.Patch.Addr}
	case PatchContextCall:
		r.Template = trampoline.ContextCall{Fn: s.Patch.Addr}
	case PatchLowfat:
		r.Template = lowfat.CheckTemplate{}
		r.ReserveVA = lowfat.ReserveVA()
	case PatchLowfatTrap:
		r.Template = lowfat.CheckTemplate{Trap: true}
		r.ReserveVA = lowfat.ReserveVA()
	case PatchCall:
		if err := s.buildCall(payload, r); err != nil {
			return nil, err
		}
	default:
		return nil, e9err.Unsupported("spec", "unknown patch kind %d", int(s.Patch.Kind))
	}
	return r, nil
}

// buildCall resolves the payload ELF: parse, locate the patch
// function's symbol, and turn every PT_LOAD into an injection
// (file bytes zero-extended to the in-memory size).
func (s *Spec) buildCall(payload []byte, r *BuildResult) error {
	if len(payload) == 0 {
		ref := s.PayloadRef
		if ref == "" {
			ref = "(no payload reference)"
		}
		return e9err.Unsupported("spec",
			"patch %q calls %s but no payload ELF was supplied (reference: %s)",
			s.Patch.Src, s.Patch.Fn, ref)
	}
	f, err := elf64.Parse(payload)
	if err != nil {
		return fmt.Errorf("spec payload: %w", err)
	}
	if f.IsPIE() {
		return e9err.Unsupported("spec",
			"payload ELF is position independent; call patches need fixed-address payloads (link at a free base such as %#x)",
			uint64(0x9_0000_0000))
	}
	syms, err := f.Symbols()
	if err != nil {
		return fmt.Errorf("spec payload: %w", err)
	}
	var fn *elf64.Sym
	avail := make([]string, 0, len(syms))
	for i := range syms {
		avail = append(avail, syms[i].Name)
		if syms[i].Name == s.Patch.Fn {
			fn = &syms[i]
		}
	}
	if fn == nil {
		sort.Strings(avail)
		return e9err.Unsupported("spec",
			"payload ELF does not define function %q (symbols: %v)", s.Patch.Fn, avail)
	}
	for _, p := range f.Progs {
		if p.Type != elf64.PTLoad || p.Memsz == 0 {
			continue
		}
		data := make(plan.Bytes, p.Memsz)
		copy(data, payload[p.Off:p.Off+p.Filesz])
		r.Inject = append(r.Inject, plan.Injection{Addr: p.Vaddr, Data: data})
	}
	if len(r.Inject) == 0 {
		return e9err.Unsupported("spec", "payload ELF has no loadable segments")
	}
	r.FnName = fn.Name
	r.FnAddr = fn.Addr
	r.Template = &trampoline.Call{Fn: fn.Addr, Args: s.Patch.Args}
	return nil
}
