package e9patch

import (
	"io"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/group"
	"e9patch/internal/loader"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
)

// buildBlob groups trampolines and injections into merged physical
// blocks (addresses stored link-relative; Load adds the bias back) and
// encodes the loader blob. entry is the output binary's entry
// point.
func buildBlob(entry, bias uint64, trs []patch.Trampoline, sig map[uint64]uint64, gran int, inject []plan.Injection) ([]byte, *group.Result, error) {
	chunks := make([]group.Chunk, len(trs), len(trs)+len(inject))
	for i, tr := range trs {
		chunks[i] = group.Chunk{Addr: tr.Addr - bias, Data: tr.Code}
	}
	// Injections ride the same blob: addresses are stored link-relative
	// like trampoline chunks (the subtraction may wrap for a PIE bias —
	// the loader's bias addition wraps back to the absolute address).
	for _, inj := range inject {
		chunks = append(chunks, group.Chunk{Addr: inj.Addr - bias, Data: inj.Data})
	}
	naive := false
	if gran < 0 {
		gran, naive = 1, true
	}
	gres, err := group.Build(chunks, gran)
	if err != nil {
		// Grouping rejects overlapping or inconsistent trampoline
		// layouts; the plan pipeline never produces them, so reaching
		// this from Apply means the plan itself was bad.
		return nil, nil, e9err.Wrap(e9err.ErrMalformed, "emit", err)
	}
	if naive {
		gres = ungroup(gres)
	}
	shifted := make(map[uint64]uint64, len(sig))
	for k, v := range sig {
		shifted[k-bias] = v - bias
	}
	return loader.Encode(gres, gran, shifted, entry), gres, nil
}

// emitInput is what a decided rewrite hands to the emit tail, from the
// live rewriter (Finish) or a replayed plan (Apply): what to lay out,
// then the decision-side facts the Result reports unchanged.
type emitInput struct {
	input   []byte // exactly the bytes f was parsed from
	f       *elf64.File
	bias    uint64
	textOff uint64 // code overlays input here, as validated by TextRange
	code    []byte
	trs     []patch.Trampoline
	sig     map[uint64]uint64
	gran    int
	inject  []plan.Injection

	stats           patch.Stats
	locs            []patch.LocResult
	insts, badBytes int
	mode            disasm.Mode
	recovery        *disasm.SupersetStats
	warnings        []string
}

// of fills in what the emit tail reads of rw, so that in does not hold
// the rewriter.
func (in emitInput) of(rw *patch.Rewriter) emitInput {
	in.code, in.trs, in.sig, in.stats, in.locs = rw.Code(), rw.Trampolines(), rw.SigTab(), rw.Stats(), rw.Results()
	return in
}

// emit is the one emit tail: encode the loader blob, lay the output out
// as its segments — the original bytes around the patched text, then
// the blob — send them to w, never writing to the input, and assemble
// the Result. A nil w is the in-memory form: the segments concatenated
// in one allocation of exactly the output's size, as Result.Output.
func emit(in emitInput, w io.Writer) (*Result, error) {
	blob, gres, err := buildBlob(in.f.Header.Entry, in.bias, in.trs, in.sig, in.gran, in.inject)
	if err != nil {
		return nil, err
	}
	// Either way the output is elf64.Layout's segment list: concatenated
	// by Compose, or written one after the other.
	var out []byte
	size := 0
	if w == nil {
		out = elf64.Compose(in.input, in.textOff, in.code, blob)
		size = len(out)
	} else {
		n, err := elf64.Layout(in.input, in.textOff, in.code, blob).WriteTo(w)
		if err != nil {
			// The sink's failure, not the rewrite's: the caller finds its
			// own writer's error under the class.
			return nil, &e9err.Error{Class: e9err.ErrOutput, Phase: "emit", Err: err}
		}
		size = int(n)
	}
	injected := 0
	for _, inj := range in.inject {
		injected += len(inj.Data)
	}
	return &Result{
		Output:        out,
		Stats:         in.stats,
		Group:         gres.Stats,
		Mappings:      gres.Stats.Mappings,
		InputSize:     len(in.input),
		OutputSize:    size,
		Insts:         in.insts,
		BadBytes:      in.badBytes,
		Disasm:        string(in.mode),
		Recovery:      in.recovery,
		Bias:          in.bias,
		Trampolines:   len(in.trs),
		InjectedBytes: injected,
		Locations:     in.locs,
		Warnings:      in.warnings,
	}, nil
}

// ungroup expands a grouped result into the naïve one-to-one physical
// mapping (grouping disabled, for the §6.1 file-size ablation).
func ungroup(g *group.Result) *group.Result {
	out := &group.Result{Stats: g.Stats}
	for _, mp := range g.Mappings {
		out.Blocks = append(out.Blocks, g.Blocks[mp.Phys])
		out.Mappings = append(out.Mappings, group.Mapping{Vaddr: mp.Vaddr, Phys: len(out.Blocks) - 1})
	}
	out.Stats.PhysBlocks = len(out.Blocks)
	return out
}
