package main

import (
	"fmt"

	"e9patch"
	"e9patch/internal/workload"
)

// rng is splitmix64: the benchmark's own seeded stream, for everything
// the seed decides outside the workload generator (whose PRNG is keyed
// on the profile name, hence the "#seed" suffixes below).
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// rewriteCase is one input class of an in-process workload: a generated
// binary and the configuration it is rewritten under.
type rewriteCase struct {
	name  string
	input []byte
	cfg   e9patch.Config
}

// rewriteSpec names a class before its binary is generated.
type rewriteSpec struct {
	profile string
	mode    e9patch.DisasmMode
}

// Five equal-weight classes each, an odd number on purpose: the median
// op lies inside the middle class and p90 inside the slowest one, never
// on the boundary between two classes.
var (
	// patch-dense: every instruction is a patch site, so tactic search
	// and page grouping are the op. The classes span the address-space
	// geometries that decide which tactics work.
	patchDenseSpecs = []rewriteSpec{
		{profile: "gamess"},  // exec with a 1.4 GB .bss: limitation L1, real failures
		{profile: "libc.so"}, // shared: negative rel32 reserved, T2/T3 heavy
		{profile: "vim"},     // PIE: B1/B2 nearly always succeed
		{profile: "gcc"},     // exec, C mix
		{profile: "tonto"},   // exec, Fortran mix (dense stores)
	}
	// recover-cet: sparse A2 selection under the superset frontends, so
	// instruction recovery is the op.
	recoverCETSpecs = []rewriteSpec{
		{"nginx-cet", e9patch.DisasmSupersetCET},
		{"libcrypto-cet.so", e9patch.DisasmSupersetCET},
		{"libz.so", e9patch.DisasmSuperset},
		{"nginx-cet", e9patch.DisasmSuperset},
		{"libcrypto-cet.so", e9patch.DisasmSuperset},
	}
)

// Text sizes are set so one round of five ops takes about 0.4 s on the
// 2-core reference box: a 10 s run then times >= 100 ops, the least
// that supports a p90.
const (
	patchDenseTextBytes = 100_000
	recoverCETTextBytes = 125_000
	servedTextBytes     = 450_000
)

// buildProfile generates one binary of a Table-1 profile with textBytes
// of code. tag goes into the name the generator's PRNG is keyed on, so
// the bytes are a pure function of (profile, tag, textBytes).
func buildProfile(profile, tag string, textBytes int) (workload.Profile, []byte, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return p, nil, err
	}
	scale := float64(textBytes) / (p.SizeMB * 1e6)
	p.Name += "#" + tag
	prog, err := workload.BuildStatic(p, scale)
	if err != nil {
		return p, nil, err
	}
	return p, prog.ELF, nil
}

// profileConfig is the rewrite configuration the evaluation uses for a
// profile: the runtime's addresses stay free, and a shared object cannot
// use the range below its load address.
func profileConfig(p workload.Profile, sel e9patch.Selector, mode e9patch.DisasmMode) e9patch.Config {
	cfg := e9patch.Config{Select: sel, Disasm: mode, ReserveVA: workload.ReserveVA()}
	if p.Kind == workload.KindShared {
		cfg.ReserveVA = append(cfg.ReserveVA, sharedReserve())
	}
	return cfg
}

func buildRewriteCases(specs []rewriteSpec, sel e9patch.Selector, textBytes int, seed int64) ([]rewriteCase, error) {
	cases := make([]rewriteCase, len(specs))
	for i, s := range specs {
		p, bin, err := buildProfile(s.profile, fmt.Sprintf("%d.%d", seed, i), textBytes)
		if err != nil {
			return nil, err
		}
		name := s.profile
		if s.mode != "" {
			name += "/" + string(s.mode)
		}
		cases[i] = rewriteCase{name: name, input: bin, cfg: profileConfig(p, sel, s.mode)}
	}
	return cases, nil
}

// kernelSpec is one emu-kernels class: an archetype with the dynamic
// density of a fixed SPEC row, under the paper's application A1 (jumps)
// or A2 (heap writes). The rows are fixed, not drawn by the seed: Time%
// differs by 1.5x between rows, and a seed that redrew them would move
// time_overhead_pct by more than any change to the rewriter could.
type kernelSpec struct {
	arch, row string
	a2        bool
}

var kernelSpecs = []kernelSpec{
	{"branchy", "gcc", false},
	{"memstream", "h264ref", true},
	{"matrix", "tonto", true},
	{"pointer", "omnetpp", false},
	{"callheavy", "xalancbmk", false},
}

// kernelIters is the archetypes' iteration scale (the ISSUE's 80 000
// scaled by the common factor 0.375 recorded in NOISE.json, so that a
// 10 s run still times >= 100 ops).
const kernelIters = 30_000

// buildKernelCases builds the five runnable kernels. The seed jitters
// each iteration count by up to 2 %: the immediates, the run lengths and
// the checksums the programs print differ from seed to seed, while the
// per-iteration instruction mix that Time% measures does not.
func buildKernelCases(seed int64) ([]rewriteCase, error) {
	r := newRNG(seed, "kernels")
	saved := workload.KernelIters
	defer func() { workload.KernelIters = saved }()
	cases := make([]rewriteCase, len(kernelSpecs))
	for i, k := range kernelSpecs {
		row, err := workload.ProfileByName(k.row)
		if err != nil {
			return nil, err
		}
		workload.KernelIters = kernelIters * (980 + r.intn(41)) / 1000
		prog, err := workload.BuildKernelTuned(k.arch, false, workload.TuningFor(row))
		if err != nil {
			return nil, err
		}
		sel, app := e9patch.Selector(e9patch.SelectJumps), "A1"
		if k.a2 {
			sel, app = e9patch.SelectHeapWrites, "A2"
		}
		cases[i] = rewriteCase{
			name:  k.arch + "/" + k.row + "/" + app,
			input: prog.ELF,
			cfg:   e9patch.Config{Select: sel, ReserveVA: workload.ReserveVA()},
		}
	}
	return cases, nil
}

// The served-mix request classes, as the schedule intends them. What a
// response is counted as comes from its headers (classify), not from
// this.
const (
	reqHit = iota
	reqForwarded
	reqPlan
	reqCold
)

// request is one scheduled POST: which binary, and whether to send it to
// the key's owner or to the other node.
type request struct {
	kind int
	bin  int // index into hot (hit, forwarded), ring (plan) or coldBase (cold)
	// stamp makes a cold request's binary unique; 0 otherwise.
	stamp uint64
}

const (
	hotSetSize   = 6
	planRingSize = 16
	coldBases    = 5
	// resultCacheOutputs sizes each node's result cache in outputs: fewer
	// than the plan ring plus the hot set, so a ring entry's result is
	// evicted before the ring comes round again while its plan is not.
	resultCacheOutputs = 12
	// A block of 20 requests carries the mix exactly: 60 % result-hit,
	// 15 % forwarded, 10 % plan-hit, 15 % cold.
	blockHit, blockForwarded, blockPlan, blockCold = 12, 3, 2, 3
	blockSize                                      = blockHit + blockForwarded + blockPlan + blockCold
)

// schedule is the seeded request stream, produced block by block so a
// time-bounded run can draw as many requests as it has time for and the
// class shares still hold at every block boundary.
type schedule struct {
	r               *rng
	hot, ring, cold int // round-robin cursors
	stamp           uint64
	block           []request
}

func newSchedule(seed int64) *schedule {
	return &schedule{r: newRNG(seed, "schedule")}
}

// next returns the next request of the stream.
func (s *schedule) next() request {
	if len(s.block) == 0 {
		b := make([]request, 0, blockSize)
		for i := 0; i < blockHit; i++ {
			b = append(b, request{kind: reqHit, bin: s.hot % hotSetSize})
			s.hot++
		}
		for i := 0; i < blockForwarded; i++ {
			b = append(b, request{kind: reqForwarded, bin: s.hot % hotSetSize})
			s.hot++
		}
		for i := 0; i < blockPlan; i++ {
			b = append(b, request{kind: reqPlan, bin: s.ring % planRingSize})
			s.ring++
		}
		for i := 0; i < blockCold; i++ {
			s.stamp++
			b = append(b, request{kind: reqCold, bin: s.cold % coldBases, stamp: s.stamp})
			s.cold++
		}
		s.r.shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		s.block = b
	}
	req := s.block[0]
	s.block = s.block[1:]
	return req
}

// servedProfiles are the ~0.5 MB binaries the service is sent: system
// binaries of all three kinds.
var servedProfiles = []string{"xterm", "make", "git", "pdflatex", "evince", "vim", "libc.so"}

type servedCorpus struct {
	hot, ring, cold [][]byte
	// coldData is each cold base's .data offset, where the stamp goes.
	coldData []int
}

func buildServedCorpus(seed int64) (*servedCorpus, error) {
	c := &servedCorpus{}
	n := 0
	gen := func(tag string, count int) ([][]byte, error) {
		out := make([][]byte, count)
		for i := range out {
			_, bin, err := buildProfile(servedProfiles[n%len(servedProfiles)], fmt.Sprintf("%d.%s%d", seed, tag, i), servedTextBytes)
			if err != nil {
				return nil, err
			}
			out[i] = bin
			n++
		}
		return out, nil
	}
	var err error
	if c.hot, err = gen("hot", hotSetSize); err != nil {
		return nil, err
	}
	if c.ring, err = gen("ring", planRingSize); err != nil {
		return nil, err
	}
	if c.cold, err = gen("cold", coldBases); err != nil {
		return nil, err
	}
	for _, bin := range c.cold {
		off, err := dataOffset(bin)
		if err != nil {
			return nil, err
		}
		c.coldData = append(c.coldData, off)
	}
	return c, nil
}

// body returns the bytes to POST for a request. A cold request gets a
// private copy of its base with the stamp written into .data: a binary
// the service has never seen, whose code costs what the base's costs.
func (c *servedCorpus) body(req request) []byte {
	switch req.kind {
	case reqHit, reqForwarded:
		return c.hot[req.bin]
	case reqPlan:
		return c.ring[req.bin]
	}
	bin := append([]byte(nil), c.cold[req.bin]...)
	off := c.coldData[req.bin]
	for i := 0; i < 8; i++ {
		bin[off+i] = byte(req.stamp >> (8 * i))
	}
	return bin
}
