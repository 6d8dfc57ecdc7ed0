package workload

import (
	"fmt"

	"e9patch/internal/x86"
)

// Kind classifies a binary the way Table 1 does: fixed-address
// executables, position-independent executables, and shared objects
// (whose negative rel32 range the dynamic linker occupies, §5.1).
type Kind int

// Binary kinds.
const (
	KindExec Kind = iota
	KindPIE
	KindShared
)

// Profile describes one Table 1 row: its observable geometry (size,
// kind, .bss) and the paper-reported patch-location densities and
// baseline rates the instruction mix is derived from. Deriving the mix
// from the row's published #Loc and Base%% is the calibration step; the
// measured T1/T2/T3/Succ/Size columns then come entirely out of our
// pipeline.
type Profile struct {
	Name   string
	SizeMB float64
	Kind   Kind
	// BSSMB is the static .bss allocation (gamess/zeusmp: limitation L1).
	BSSMB float64
	// LocsA1/LocsA2 are the paper's patch-location counts.
	LocsA1, LocsA2 int
	// BaseA1/BaseA2 are the paper's baseline (B1+B2) percentages.
	BaseA1, BaseA2 float64
	// DataInText marks Chrome-style mixed code/data sections.
	DataInText bool
	// Fortran marks SPECfp-style numeric code (denser stores).
	Fortran bool
	// CET marks a binary built with control-flow enforcement: every
	// function prologue carries an endbr64 landing pad, the anchors the
	// superset-cet frontend prunes from.
	CET bool
	// DSO marks a plain shared library (ET_DYN with a zero entry
	// point) rather than a PIE executable. Only meaningful for
	// KindShared rows; the paper-era KindShared rows model .so address
	// geometry but still build as PIE-shaped ELFs for compatibility.
	DSO bool
	// Kernel names the runnable kernel archetype for Time% rows.
	Kernel string
}

// IsSPEC reports whether the row is part of the SPEC2006 set (the rows
// with Time% measurements).
func (p *Profile) IsSPEC() bool { return p.Kernel != "" }

// SPECProfiles are the 28 SPEC2006 rows of Table 1 (481.wrf excluded,
// as in the paper).
var SPECProfiles = []Profile{
	{Name: "perlbench", SizeMB: 1.25, LocsA1: 36821, BaseA1: 86.88, LocsA2: 7522, BaseA2: 71.16, Kernel: "branchy"},
	{Name: "bzip2", SizeMB: 0.07, LocsA1: 1484, BaseA1: 79.85, LocsA2: 1044, BaseA2: 68.39, Kernel: "memstream"},
	{Name: "gcc", SizeMB: 3.77, LocsA1: 97901, BaseA1: 85.66, LocsA2: 14328, BaseA2: 70.60, Kernel: "branchy"},
	{Name: "bwaves", SizeMB: 0.08, Fortran: true, LocsA1: 314, BaseA1: 71.34, LocsA2: 1168, BaseA2: 92.55, Kernel: "matrix"},
	{Name: "gamess", SizeMB: 12.22, Fortran: true, BSSMB: 1400, LocsA1: 125620, BaseA1: 59.91, LocsA2: 279592, BaseA2: 87.58, Kernel: "matrix"},
	{Name: "mcf", SizeMB: 0.02, LocsA1: 295, BaseA1: 68.47, LocsA2: 220, BaseA2: 75.91, Kernel: "pointer"},
	{Name: "milc", SizeMB: 0.14, LocsA1: 1940, BaseA1: 80.62, LocsA2: 699, BaseA2: 84.84, Kernel: "matrix"},
	{Name: "zeusmp", SizeMB: 0.52, Fortran: true, BSSMB: 1100, LocsA1: 3191, BaseA1: 53.74, LocsA2: 6106, BaseA2: 82.61, Kernel: "matrix"},
	{Name: "gromacs", SizeMB: 1.20, Fortran: true, LocsA1: 12058, BaseA1: 80.19, LocsA2: 16940, BaseA2: 93.87, Kernel: "matrix"},
	{Name: "cactusADM", SizeMB: 0.91, Fortran: true, LocsA1: 12847, BaseA1: 78.94, LocsA2: 5420, BaseA2: 86.85, Kernel: "matrix"},
	{Name: "leslie3d", SizeMB: 0.18, Fortran: true, LocsA1: 2584, BaseA1: 44.43, LocsA2: 2761, BaseA2: 91.34, Kernel: "matrix"},
	{Name: "namd", SizeMB: 0.33, LocsA1: 4879, BaseA1: 73.42, LocsA2: 2498, BaseA2: 71.46, Kernel: "matrix"},
	{Name: "gobmk", SizeMB: 4.03, LocsA1: 17912, BaseA1: 75.88, LocsA2: 2777, BaseA2: 79.33, Kernel: "branchy"},
	{Name: "dealII", SizeMB: 4.20, LocsA1: 61317, BaseA1: 71.31, LocsA2: 25590, BaseA2: 80.47, Kernel: "callheavy"},
	{Name: "soplex", SizeMB: 0.49, LocsA1: 10125, BaseA1: 79.72, LocsA2: 4188, BaseA2: 83.05, Kernel: "matrix"},
	{Name: "povray", SizeMB: 1.19, LocsA1: 20520, BaseA1: 86.92, LocsA2: 9377, BaseA2: 84.50, Kernel: "callheavy"},
	{Name: "calculix", SizeMB: 2.17, Fortran: true, LocsA1: 30343, BaseA1: 70.48, LocsA2: 32197, BaseA2: 85.62, Kernel: "matrix"},
	{Name: "hmmer", SizeMB: 0.33, LocsA1: 6748, BaseA1: 77.71, LocsA2: 3061, BaseA2: 75.11, Kernel: "memstream"},
	{Name: "sjeng", SizeMB: 0.16, LocsA1: 3473, BaseA1: 83.01, LocsA2: 683, BaseA2: 84.77, Kernel: "branchy"},
	{Name: "GemsFDTD", SizeMB: 0.58, Fortran: true, LocsA1: 9120, BaseA1: 41.62, LocsA2: 10345, BaseA2: 93.23, Kernel: "matrix"},
	{Name: "libquantum", SizeMB: 0.05, LocsA1: 732, BaseA1: 75.55, LocsA2: 186, BaseA2: 76.34, Kernel: "memstream"},
	{Name: "h264ref", SizeMB: 0.58, LocsA1: 9920, BaseA1: 80.30, LocsA2: 4981, BaseA2: 81.87, Kernel: "memstream"},
	{Name: "tonto", SizeMB: 6.21, Fortran: true, LocsA1: 48247, BaseA1: 52.65, LocsA2: 164788, BaseA2: 90.05, Kernel: "matrix"},
	{Name: "lbm", SizeMB: 0.02, LocsA1: 106, BaseA1: 67.92, LocsA2: 111, BaseA2: 93.69, Kernel: "memstream"},
	{Name: "omnetpp", SizeMB: 0.79, LocsA1: 9568, BaseA1: 78.08, LocsA2: 5020, BaseA2: 74.12, Kernel: "pointer"},
	{Name: "astar", SizeMB: 0.05, LocsA1: 769, BaseA1: 78.54, LocsA2: 491, BaseA2: 72.91, Kernel: "pointer"},
	{Name: "sphinx3", SizeMB: 0.21, LocsA1: 3500, BaseA1: 79.20, LocsA2: 1159, BaseA2: 73.94, Kernel: "matrix"},
	{Name: "xalancbmk", SizeMB: 5.99, LocsA1: 81285, BaseA1: 75.66, LocsA2: 32761, BaseA2: 79.51, Kernel: "callheavy"},
}

// SystemProfiles are the Ubuntu system binary and library rows.
var SystemProfiles = []Profile{
	{Name: "inkscape", SizeMB: 15.44, Kind: KindPIE, LocsA1: 195731, BaseA1: 97.83, LocsA2: 105431, BaseA2: 99.96},
	{Name: "gimp", SizeMB: 5.75, LocsA1: 71321, BaseA1: 71.75, LocsA2: 15730, BaseA2: 84.83},
	{Name: "vim", SizeMB: 2.44, Kind: KindPIE, LocsA1: 72221, BaseA1: 99.18, LocsA2: 13279, BaseA2: 99.92},
	{Name: "git", SizeMB: 1.87, LocsA1: 44441, BaseA1: 80.06, LocsA2: 9072, BaseA2: 68.06},
	{Name: "pdflatex", SizeMB: 0.91, LocsA1: 22105, BaseA1: 82.05, LocsA2: 6060, BaseA2: 70.61},
	{Name: "xterm", SizeMB: 0.54, LocsA1: 11593, BaseA1: 79.12, LocsA2: 2681, BaseA2: 89.11},
	{Name: "evince", SizeMB: 0.42, Kind: KindPIE, LocsA1: 3636, BaseA1: 99.59, LocsA2: 716, BaseA2: 99.86},
	{Name: "make", SizeMB: 0.21, LocsA1: 4807, BaseA1: 79.34, LocsA2: 1383, BaseA2: 74.98},
	{Name: "libc.so", SizeMB: 1.87, Kind: KindShared, LocsA1: 52393, BaseA1: 81.19, LocsA2: 24686, BaseA2: 74.32},
	{Name: "libc++.so", SizeMB: 1.57, Kind: KindShared, LocsA1: 20593, BaseA1: 75.14, LocsA2: 15442, BaseA2: 67.56},
}

// BrowserProfiles are the scalability rows (>100MB binaries).
var BrowserProfiles = []Profile{
	{Name: "Chrome", SizeMB: 152.51, Kind: KindPIE, DataInText: true, LocsA1: 3800565, BaseA1: 93.20, LocsA2: 2624800, BaseA2: 99.38},
	{Name: "FireFox", SizeMB: 0.52, Kind: KindPIE, LocsA1: 13971, BaseA1: 98.02, LocsA2: 7355, BaseA2: 99.90},
	{Name: "libxul.so", SizeMB: 115.03, Kind: KindShared, LocsA1: 1463369, BaseA1: 68.55, LocsA2: 666109, BaseA2: 75.72},
}

// ModernProfiles are current-toolchain rows beyond the paper's corpus:
// CET-enabled binaries (every function prologue starts with an endbr64
// landing pad) and plain shared libraries with no entry point. They
// exercise the superset-cet recovery frontend and first-class .so
// inputs alongside the Table 1 reproduction.
var ModernProfiles = []Profile{
	{Name: "nginx-cet", SizeMB: 1.30, Kind: KindPIE, CET: true, LocsA1: 28400, BaseA1: 97.90, LocsA2: 9100, BaseA2: 99.60},
	{Name: "libcrypto-cet.so", SizeMB: 2.10, Kind: KindShared, CET: true, DSO: true, LocsA1: 30700, BaseA1: 74.80, LocsA2: 21400, BaseA2: 70.10},
	{Name: "libz.so", SizeMB: 0.12, Kind: KindShared, DSO: true, LocsA1: 2300, BaseA1: 76.20, LocsA2: 1100, BaseA2: 69.40},
}

// AllProfiles returns every Table 1 row in paper order, followed by the
// modern CET/DSO rows.
func AllProfiles() []Profile {
	var out []Profile
	out = append(out, SPECProfiles...)
	out = append(out, SystemProfiles...)
	out = append(out, BrowserProfiles...)
	out = append(out, ModernProfiles...)
	return out
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// mix is the derived instruction-mix parameters.
type mix struct {
	// jumpW/storeW are per-instruction probabilities (x1000) of
	// emitting an A1 jump or an A2 heap store.
	jumpW, storeW int
	// shortJcc is the fraction (x100) of jumps emitted in punnable
	// short form; smallStore likewise for stores shorter than 5 bytes.
	shortJcc, smallStore int
}

// aveInstLen is the approximate mean instruction length the generator
// produces; used to convert per-MB location counts into probabilities.
const aveInstLen = 4.3

// deriveMix converts a profile's published densities into generator
// weights. pBase is the probability a punned (non-B1) jump finds a
// valid window, which depends on the binary kind's address geometry.
func deriveMix(p *Profile) mix {
	instPerMB := 1e6 / aveInstLen
	var m mix
	if p.SizeMB > 0 {
		m.jumpW = clampI(int(1000*float64(p.LocsA1)/p.SizeMB/instPerMB), 2, 400)
		m.storeW = clampI(int(1000*float64(p.LocsA2)/p.SizeMB/instPerMB), 2, 400)
	}
	pBase := 0.45 // non-PIE / shared: negative rel32 unusable
	if p.Kind == KindPIE {
		pBase = 0.95
	}
	m.shortJcc = clampI(int((100-p.BaseA1)/(100*(1-pBase))*100), 3, 96)
	m.smallStore = clampI(int((100-p.BaseA2)/(100*(1-pBase))*100), 3, 97)
	return m
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mix exposes the generator's tunable encoding fractions: the share of
// jumps emitted in short (punnable) form and the share of stores
// shorter than five bytes. eval's pilot calibration adjusts these so
// the measured Base% matches the paper's geometry.
type Mix struct {
	ShortJcc   int // percent
	SmallStore int // percent
}

// MixFor returns the analytically derived mix for a profile.
func MixFor(p Profile) Mix {
	m := deriveMix(&p)
	return Mix{ShortJcc: m.shortJcc, SmallStore: m.smallStore}
}

// BuildStatic generates the static binary for a profile at the given
// scale (1.0 = the paper's full size). The output is deterministic in
// (profile name, scale).
func BuildStatic(p Profile, scale float64) (*Program, error) {
	return BuildStaticMix(p, scale, p.Kind, MixFor(p))
}

// BuildStaticMix builds with explicit encoding fractions.
func BuildStaticMix(p Profile, scale float64, kind Kind, mo Mix) (*Program, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale %v <= 0", scale)
	}
	textSize := int(p.SizeMB * scale * 1e6)
	if textSize < 4096 {
		textSize = 4096
	}
	text, err := generateText(p, textSize, kind, mo)
	if err != nil {
		return nil, err
	}
	prog, err := buildELFShared(p.Name, kind != KindExec, p.DSO && kind != KindExec, text, make([]byte, 2048), uint64(p.BSSMB*1e6))
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// generateText emits textSize bytes of the profile's instruction mix
// (including any data-in-text prefix) without wrapping them in an ELF.
func generateText(p Profile, textSize int, kind Kind, mo Mix) ([]byte, error) {
	m := deriveMix(&p)
	m.shortJcc = clampI(mo.ShortJcc, 1, 99)
	m.smallStore = clampI(mo.SmallStore, 1, 99)
	r := newRNG(p.Name)

	base := elfTextAddr(kind)
	a := x86.NewAsm(base)

	// Chrome-style data-in-text prefix (~2.5% of the section), skipped
	// by the frontend via SkipPrefix.
	if p.DataInText {
		prefix := textSize / 40
		for i := 0; i < prefix; i++ {
			a.Raw(byte(r.next()))
		}
	}

	g := &codegen{a: a, r: r, m: m, fortran: p.Fortran, cet: p.CET}
	g.funcStarts = append(g.funcStarts, a.Addr())
	if g.cet {
		a.Endbr64()
	}
	for a.Len() < textSize {
		g.emitOne()
	}
	text, err := a.Finish()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return text, nil
}

// DataPrefixBytes reports the SkipPrefix value for a profile (nonzero
// only for Chrome-style mixed sections).
func DataPrefixBytes(p Profile, scale float64) uint64 {
	if !p.DataInText {
		return 0
	}
	textSize := int(p.SizeMB * scale * 1e6)
	if textSize < 4096 {
		textSize = 4096
	}
	return uint64(textSize / 40)
}

func elfTextAddr(k Kind) uint64 {
	if k == KindExec {
		return 0x400000 + 0x1000
	}
	return 0x1000
}

// codegen emits a compiler-like instruction stream.
type codegen struct {
	a       *x86.Asm
	r       *rng
	m       mix
	fortran bool
	// cet emits an endbr64 landing pad at every function start, the
	// way -fcf-protection compilers do.
	cet bool

	// funcStarts and recent track branch-target material.
	funcStarts []uint64
	recent     []uint64
}

var gpRegs = []x86.Reg{
	x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSI, x86.RDI,
	x86.R8, x86.R9, x86.R10, x86.R11, x86.R12, x86.R13, x86.R14, x86.R15,
}

func (g *codegen) reg() x86.Reg { return gpRegs[g.r.intn(len(gpRegs))] }

// memOp builds a heap-pointer memory operand (never rsp/rip).
func (g *codegen) memOp() x86.Mem {
	base := g.reg()
	for base == x86.RSP {
		base = g.reg()
	}
	disp := int32(0)
	switch g.r.intn(4) {
	case 1, 2:
		disp = int32(g.r.intn(256) - 128) // disp8
	case 3:
		disp = int32(g.r.intn(1 << 12)) // disp32
	}
	m := x86.M(base, disp)
	if g.r.intn(5) == 0 {
		idx := g.reg()
		for idx == x86.RSP {
			idx = g.reg()
		}
		m.Index = idx
		m.Scale = []uint8{1, 2, 4, 8}[g.r.intn(4)]
	}
	return m
}

// backTarget picks a recent instruction address within short-jump
// range, or 0 if none exists.
func (g *codegen) backTarget(maxDist int) uint64 {
	here := g.a.Addr()
	for i := len(g.recent) - 1; i >= 0; i-- {
		d := here - g.recent[i]
		if d <= uint64(maxDist) && d > 0 {
			// Prefer a random one among those in range.
			lo := i
			for lo > 0 && here-g.recent[lo-1] <= uint64(maxDist) {
				lo--
			}
			return g.recent[lo+g.r.intn(i-lo+1)]
		}
		if d > uint64(maxDist) {
			break
		}
	}
	return 0
}

func (g *codegen) anyFunc() uint64 {
	return g.funcStarts[g.r.intn(len(g.funcStarts))]
}

// emitOne emits one instruction (or small idiom) according to the mix.
func (g *codegen) emitOne() {
	a, r := g.a, g.r
	g.recent = append(g.recent, a.Addr())
	if len(g.recent) > 64 {
		g.recent = g.recent[1:]
	}

	// A1 jumps.
	if r.intn(1000) < g.m.jumpW {
		g.emitJump()
		return
	}
	// A2 heap stores.
	if r.intn(1000) < g.m.storeW {
		g.emitHeapStore()
		return
	}

	// Filler mix (not patch locations for A1/A2).
	switch r.pick([]int{22, 14, 10, 8, 8, 6, 5, 4, 4, 3, 3, 2, 2}) {
	case 0: // reg-reg ALU
		ops := []func(d, s x86.Reg){a.AddRegReg64, a.SubRegReg64, a.AndRegReg64, a.OrRegReg64, a.XorRegReg64, a.CmpRegReg64, a.TestRegReg64, a.MovRegReg64}
		ops[r.intn(len(ops))](g.reg(), g.reg())
	case 1: // reg-imm ALU
		ops := []func(d x86.Reg, i int32){a.AddRegImm64, a.SubRegImm64, a.CmpRegImm64, a.AndRegImm64}
		imm := int32(r.intn(256) - 64)
		if r.intn(4) == 0 {
			imm = int32(r.next())
		}
		ops[r.intn(len(ops))](g.reg(), imm)
	case 2: // load
		a.MovRegMem64(g.reg(), g.memOp())
	case 3: // 32-bit load
		a.MovRegMem32(g.reg(), g.memOp())
	case 4: // stack traffic (excluded from A2)
		if r.intn(2) == 0 {
			a.MovMemReg64(x86.M(x86.RSP, int32(8*r.intn(16))), g.reg())
		} else {
			a.MovRegMem64(g.reg(), x86.M(x86.RSP, int32(8*r.intn(16))))
		}
	case 5: // lea
		a.Lea(g.reg(), g.memOp())
	case 6: // push/pop pair material
		if r.intn(2) == 0 {
			a.PushReg(g.reg())
		} else {
			a.PopReg(g.reg())
		}
	case 7: // mov imm
		if r.intn(3) == 0 {
			a.MovRegImm64(g.reg(), r.next())
		} else {
			a.MovRegImm32(g.reg(), uint32(r.next()))
		}
	case 8: // movzx / shifts
		if r.intn(2) == 0 {
			a.MovZXRegMem8(g.reg(), g.memOp())
		} else {
			a.ShlRegImm64(g.reg(), uint8(r.intn(32)))
		}
	case 9: // call (A1 excludes calls; byte diversity + function starts)
		a.CallRel32(g.anyFunc())
	case 10: // imul
		a.ImulRegReg64(g.reg(), g.reg())
	case 11: // rip-relative load (globals)
		a.MovRegMem64(g.reg(), x86.MRIP(int32(r.intn(1<<16))))
	case 12: // function boundary: ret + new function prologue
		a.Ret()
		if r.intn(4) != 0 {
			a.Nop()
		}
		g.funcStarts = append(g.funcStarts, a.Addr())
		if len(g.funcStarts) > 4096 {
			g.funcStarts = g.funcStarts[1:]
		}
		if g.cet {
			a.Endbr64()
		}
		a.PushReg(x86.RBP)
		a.MovRegReg64(x86.RBP, x86.RSP)
	}
}

// emitJump emits an A1 patch-location jump.
func (g *codegen) emitJump() {
	a, r := g.a, g.r
	cc := x86.Cond(r.intn(16))
	short := r.intn(100) < g.m.shortJcc
	switch {
	case short:
		// Short jcc (2 bytes) or short jmp backward.
		t := g.backTarget(120)
		if t == 0 {
			t = a.Addr() // self-loop shape; never executed
		}
		if r.intn(8) == 0 {
			a.Raw(0xEB)
			a.Raw(byte(int8(int64(t) - int64(a.Addr()) - 1)))
		} else {
			a.Raw(0x70 | byte(cc))
			a.Raw(byte(int8(int64(t) - int64(a.Addr()) - 1)))
		}
	case r.intn(10) == 0:
		// Indirect jump (jump table dispatch).
		if r.intn(2) == 0 {
			a.JmpReg(g.reg())
		} else {
			idx := g.reg()
			for idx == x86.RSP {
				idx = g.reg()
			}
			a.JmpMem(x86.MIdx(g.reg(), idx, 8, 0))
		}
		if g.cet {
			// CET compilers place an endbr64 landing pad at every
			// indirect-branch target — the join point right after a
			// jump-table dispatch is one.
			a.Endbr64()
		}
	case r.intn(5) == 0:
		a.JmpRel32(g.anyFunc())
	default:
		a.JccRel32(cc, g.anyFunc())
	}
}

// emitHeapStore emits an A2 patch-location store.
func (g *codegen) emitHeapStore() {
	a, r := g.a, g.r
	small := r.intn(100) < g.m.smallStore
	m := g.memOp()
	if small {
		// 2-4 byte stores: 32-bit mov without/with disp8.
		if m.Disp > 127 || m.Disp < -128 {
			m.Disp = int32(r.intn(200) - 100)
		}
		switch r.intn(3) {
		case 0:
			a.MovMemReg32(m, g.reg())
		case 1:
			a.MovMemReg64(m, g.reg())
		case 2:
			a.MovMemReg8(m, []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RBX}[r.intn(4)])
		}
		return
	}
	// >= 5 byte stores: imm stores, disp32 forms, RMW.
	switch r.intn(4) {
	case 0:
		a.MovMemImm32(m, uint32(r.next()))
	case 1:
		if m.Disp >= -128 && m.Disp <= 127 {
			m.Disp = int32(1<<10 + r.intn(1<<12))
		}
		a.MovMemReg64(m, g.reg())
	case 2:
		a.MovMemImm32Sx64(m, int32(r.next()))
	case 3:
		if m.Disp >= -128 && m.Disp <= 127 {
			m.Disp = int32(1<<10 + r.intn(1<<12))
		}
		a.AddMemReg64(m, g.reg())
	}
}
