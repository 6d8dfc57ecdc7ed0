package main

// replay.go is the one file of the benchmark that imports the layers
// below the public API. Everything else drives e9patch, the workload
// generator, the service and the e9tool binary from outside. Values are
// threaded between layer calls by inference, never by naming a layer's
// types, so a change of representation inside a layer still compiles
// here.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/group"
	"e9patch/internal/lang"
	"e9patch/internal/loader"
	"e9patch/internal/patch"
	"e9patch/internal/va"
)

// replayCounts are the counts taken at the phase boundaries of one
// replay, the numerators and denominators of the per-layer ratios.
type replayCounts struct {
	textBytes      int
	insts          int
	decoded, kept  int // superset modes only
	sites          int
	b1, b2, t1, t2 int
	t3, failed     int
	trampolines    int
	virt, phys     int
	mappings       int
}

func (c *replayCounts) add(o replayCounts) {
	c.textBytes += o.textBytes
	c.insts += o.insts
	c.decoded += o.decoded
	c.kept += o.kept
	c.sites += o.sites
	c.b1 += o.b1
	c.b2 += o.b2
	c.t1 += o.t1
	c.t2 += o.t2
	c.t3 += o.t3
	c.failed += o.failed
	c.trampolines += o.trampolines
	c.virt += o.virt
	c.phys += o.phys
	c.mappings += o.mappings
}

// replayPhases rewrites input phase by phase, the way the pipeline
// inside e9patch.Rewrite orders them, with one span around each call
// into a layer. The bytes it composes must equal Rewrite's; the caller
// checks that, which is what licenses reading the spans as "where
// Rewrite's time goes".
func replayPhases(tr *tracer, op int, input []byte, cfg e9patch.Config) ([]byte, replayCounts, error) {
	var rc replayCounts
	root := tr.begin("replay", -1, op)
	defer tr.end(root)
	phase := func(name string) func() {
		id := tr.begin(name, root, op)
		return func() { tr.end(id) }
	}

	done := phase("elf64.parse")
	f, err := elf64.Parse(input)
	done()
	if err != nil {
		return nil, rc, err
	}
	var bias uint64
	if f.IsPIE() {
		bias = e9patch.PIEBase
	}
	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		return nil, rc, err
	}
	text := input[textOff : textOff+textSize]
	if cfg.SkipPrefix > textSize {
		return nil, rc, fmt.Errorf("replay: skip prefix %d exceeds .text size %d", cfg.SkipPrefix, textSize)
	}
	rc.textBytes = len(text) - int(cfg.SkipPrefix)
	width := cfg.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}

	done = phase("disasm.recover")
	dres, sstats, ok := disasm.RecoverCancel(cfg.Disasm, text[cfg.SkipPrefix:], textAddr+bias+cfg.SkipPrefix, width, nil, nil)
	done()
	if !ok {
		return nil, rc, errors.New("replay: disassembly aborted")
	}
	rc.insts = len(dres.Insts)
	if sstats != nil {
		rc.decoded, rc.kept = sstats.Decoded, sstats.Kept
	}

	done = phase("match.select")
	selected := cfg.Select(dres.Insts)
	done()
	rc.sites = len(selected)

	done = phase("va.reserve")
	space := va.NewDefault()
	reserve := func(lo, hi uint64) error {
		// Segments share page-rounded boundaries and exclusion zones
		// overlap them, so only the still-free gaps are reserved.
		for cur := max(lo, space.Min()); cur < min(hi, space.Max()); {
			if iv, ok := space.Floor(cur); ok && iv.Hi > cur {
				cur = iv.Hi
				continue
			}
			end := min(hi, space.Max())
			if next, ok := space.Ceiling(cur); ok && next.Lo < end {
				end = next.Lo
			}
			if err := space.Reserve(cur, end); err != nil {
				return err
			}
			cur = end
		}
		return nil
	}
	const page = elf64.PageSize
	for _, p := range f.Progs {
		if p.Type != elf64.PTLoad || p.Memsz == 0 {
			continue
		}
		if err := reserve((p.Vaddr+bias)&^(page-1), (p.Vaddr+bias+p.Memsz+page-1)&^(page-1)); err != nil {
			return nil, rc, err
		}
	}
	for _, iv := range cfg.ReserveVA {
		if err := reserve(iv[0], iv[1]); err != nil {
			return nil, rc, err
		}
	}
	_, loadHi := f.LoadBounds()
	poolHint := (loadHi + bias + 2*page) &^ (page - 1)
	done()

	done = phase("patch.patchall")
	popts := cfg.Patch
	popts.Template = cfg.Template
	popts.Workers = width
	rw := patch.New(text, textAddr+bias, dres.Insts, space, poolHint, popts)
	rw.PatchAll(selected)
	done()
	st := rw.Stats()
	rc.b1, rc.b2 = st.ByTactic[patch.TacticB1], st.ByTactic[patch.TacticB2]
	rc.t1, rc.t2, rc.t3 = st.ByTactic[patch.TacticT1], st.ByTactic[patch.TacticT2], st.ByTactic[patch.TacticT3]
	rc.failed = st.Failed
	if st.Total != rc.sites {
		return nil, rc, fmt.Errorf("replay: patched %d locations, selected %d", st.Total, rc.sites)
	}

	done = phase("group.build")
	trs := rw.Trampolines()
	chunks := make([]group.Chunk, len(trs))
	for i := range trs {
		chunks[i] = group.Chunk{Addr: trs[i].Addr - bias, Data: trs[i].Code}
	}
	gres, err := group.Build(chunks, 1)
	done()
	if err != nil {
		return nil, rc, err
	}
	rc.trampolines = len(trs)
	rc.virt, rc.phys, rc.mappings = gres.Stats.VirtBlocks, gres.Stats.PhysBlocks, gres.Stats.Mappings

	done = phase("loader.encode")
	sig := rw.SigTab()
	shifted := make(map[uint64]uint64, len(sig))
	for k, v := range sig {
		shifted[k-bias] = v - bias
	}
	blob := loader.Encode(gres, 1, shifted, f.Header.Entry)
	done()

	done = phase("elf64.compose")
	out := elf64.Compose(input, textOff, rw.Code(), blob)
	done()
	return out, rc, nil
}

// planBytes is what replayPlanPaths learned about the plan's size.
type planBytes struct{ plan, output int }

// replayPlanPaths drives the other routes to the same output — Plan,
// encode, decode, ApplyTrusted, Apply, and the Stream session — with a
// span around each, and checks that each arrives at want.
func replayPlanPaths(tr *tracer, op int, input []byte, cfg e9patch.Config, want []byte) (planBytes, error) {
	var pb planBytes
	timed := func(name string, fn func() error) error {
		runtime.GC()
		id := tr.begin(name, -1, op)
		err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	same := func(name string, res *e9patch.Result) error {
		if !bytes.Equal(res.Output, want) {
			return fmt.Errorf("%s: output differs from Rewrite's", name)
		}
		return nil
	}

	var p *e9patch.PatchPlan
	var enc []byte
	steps := []struct {
		name string
		fn   func() error
	}{
		{"plan.plan", func() (err error) { p, err = e9patch.Plan(input, cfg); return }},
		{"plan.encode", func() (err error) { enc, err = p.Encode(); return }},
		{"plan.decode", func() (err error) { p, err = e9patch.DecodePlan(enc); return }},
		{"e9patch.apply_trusted", func() error {
			res, err := e9patch.ApplyTrusted(input, p)
			if err != nil {
				return err
			}
			return same("ApplyTrusted", res)
		}},
		{"e9patch.apply", func() error {
			res, err := e9patch.Apply(input, p)
			if err != nil {
				return err
			}
			return same("Apply", res)
		}},
		{"e9patch.stream", func() error {
			ctx := context.Background()
			s, err := e9patch.NewStream(ctx, input, cfg)
			if err != nil {
				return err
			}
			res, err := s.Finish(ctx)
			if err != nil {
				return err
			}
			return same("Stream", res)
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return pb, err
		}
	}
	pb.plan, pb.output = len(enc), len(want)
	return pb, nil
}

// checkLayout verifies the two properties of a rewritten binary that
// hold whatever the patcher decides: every input byte outside .text is
// where it was, and the appended blob is one the loader accepts.
func checkLayout(input, output []byte) error {
	f, err := elf64.Parse(input)
	if err != nil {
		return err
	}
	off, _, size, err := f.TextRange()
	if err != nil {
		return err
	}
	if len(output) < len(input) {
		return fmt.Errorf("output (%d bytes) is shorter than input (%d)", len(output), len(input))
	}
	if !bytes.Equal(output[:off], input[:off]) || !bytes.Equal(output[off+size:len(input)], input[off+size:]) {
		return errors.New("input bytes outside .text changed")
	}
	blob, ok := elf64.AppendedBlob(output)
	if !ok {
		return errors.New("output carries no appended blob")
	}
	if _, err := loader.Decode(blob); err != nil {
		return fmt.Errorf("appended blob: %w", err)
	}
	return nil
}

// dataOffset finds the .data bytes of a generated binary: stamping them
// gives a binary with a fresh content address and the same code.
func dataOffset(bin []byte) (int, error) {
	f, err := elf64.Parse(bin)
	if err != nil {
		return 0, err
	}
	s, ok := f.SectionByName(".data")
	if !ok || s.Size < 8 || s.Off+8 > uint64(len(bin)) {
		return 0, errors.New("generated binary has no .data to stamp")
	}
	return int(s.Off), nil
}

// sharedReserve is the range below a shared object's load address, which
// the dynamic linker owns: negative rel32 targets are unusable (§5.1).
func sharedReserve() [2]uint64 { return [2]uint64{va.DefaultMin, e9patch.PIEBase} }

// cliConfig is the library equivalent of `e9tool -M jump -skip N`.
func cliConfig(skip uint64) (e9patch.Config, error) {
	sp, err := lang.FromParts("jump", "")
	if err != nil {
		return e9patch.Config{}, err
	}
	br, err := sp.Build(nil)
	if err != nil {
		return e9patch.Config{}, err
	}
	return e9patch.Config{
		Granularity: 1,
		SkipPrefix:  skip,
		Select:      br.Select,
		Template:    br.Template,
		Inject:      br.Inject,
		ReserveVA:   br.ReserveVA,
	}, nil
}
