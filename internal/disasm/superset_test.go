package disasm

import (
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

func textOf(t testing.TB, bin []byte) ([]byte, uint64) {
	t.Helper()
	f, err := elf64.Parse(bin)
	if err != nil {
		t.Fatal(err)
	}
	code, addr, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	return code, addr
}

// superset is supersetCancel sequential and with no cancel channel.
func superset(code []byte, addr uint64) *supersetResult {
	res, _ := supersetCancel(code, addr, 1, nil, nil)
	return res
}

// lenAt returns the length of the instruction that decodes at section
// offset off, 0 when nothing decodes there.
func (r *supersetResult) lenAt(off int) int { return int(r.lens[off]) }

// truncatedAt reports whether the decode at the given section offset
// failed only because the section ended mid-instruction.
func (r *supersetResult) truncatedAt(off int) bool { return r.flags[off]&flagTruncated != 0 }

// occupancy counts, for every section byte, the survivors (kept as for
// survivors) that cover it: what e9dump -occupancy summarises. Bytes at
// 0 are classified data or padding; above 1, overlapping candidates
// survived.
func occupancy(sup *supersetResult, kept bool) []int {
	insts, _ := sup.survivors(kept, 1, nil, nil)
	occ := make([]int, len(sup.lens))
	for _, in := range insts {
		off := int(in.Addr - sup.addr)
		for b := off; b < off+int(in.Len); b++ {
			occ[b]++
		}
	}
	return occ
}

func TestSupersetContainsLinear(t *testing.T) {
	// Every instruction linear disassembly finds must survive the
	// superset refinement (superset property).
	a := x86.NewAsm(0x401000)
	top := a.NewLabel()
	a.Bind(top)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	a.AddRegImm64(x86.RAX, 32)
	a.XorRegReg64(x86.RCX, x86.RAX)
	a.CmpMemImm8(x86.M(x86.RBX, -4), 77)
	a.JccShort(x86.CondL, top)
	a.Ret()
	code := a.MustFinish()

	lin := linear(code, 0x401000)
	sup := superset(code, 0x401000)

	for _, in := range lin.Insts {
		if off := int(in.Addr - 0x401000); !sup.validAt(off) || sup.lenAt(off) != int(in.Len) {
			t.Errorf("linear instruction at %#x pruned by superset refinement", in.Addr)
		}
	}
	decoded, valid := sup.count()
	if decoded < len(lin.Insts) || valid < len(lin.Insts) {
		t.Errorf("superset smaller than linear: %d/%d vs %d", decoded, valid, len(lin.Insts))
	}
}

func TestSupersetPrunesJunk(t *testing.T) {
	// A stream with embedded data: superset decodes mid-data offsets
	// but the refinement prunes sequences that run into invalid bytes.
	code := []byte{
		0x90,             // 0: nop
		0x48, 0x89, 0x03, // 1: mov [rbx], rax
		0xEB, 0x05, // 4: jmp +5 (over the data)
		0x06, 0x06, 0x06, 0x06, 0x06, // 6..10: invalid bytes (data)
		0xC3, // 11: ret
	}
	sup := superset(code, 0x401000)
	decoded, valid := sup.count()
	if decoded == 0 {
		t.Fatal("nothing decoded")
	}
	if valid >= decoded {
		t.Errorf("refinement pruned nothing (%d/%d)", valid, decoded)
	}
	// The real instructions survive.
	for _, off := range []int{0, 1, 4, 11} {
		if !sup.validAt(off) {
			t.Errorf("true instruction at offset %d did not survive", off)
		}
	}
	// Data offsets must be undecodable.
	if n := sup.lenAt(6); n != 0 {
		t.Errorf("data offset decoded (length %d)", n)
	}
	// An instruction that falls through into the data (e.g. a decode
	// starting at offset 3, consuming the jmp bytes differently) must
	// be pruned when it reaches an invalid decode.
	prunedSomething := false
	for off := range code {
		if sup.lenAt(off) != 0 && !sup.validAt(off) {
			prunedSomething = true
		}
	}
	if !prunedSomething {
		t.Error("no misaligned decode was pruned")
	}
}

func TestSupersetOnGeneratedProfile(t *testing.T) {
	// The superset of a realistic code section is a strict superset of
	// the linear decode, and the refinement keeps it finite.
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Extract .text via the linear path used elsewhere.
	code, addr := textOf(t, prog.ELF)
	lin := linear(code, addr)
	sup := superset(code, addr)
	decoded, valid := sup.count()
	if valid <= len(lin.Insts) {
		t.Errorf("superset (%d valid of %d decoded) not larger than linear (%d)",
			valid, decoded, len(lin.Insts))
	}
	missed := 0
	for _, in := range lin.Insts {
		if !sup.validAt(int(in.Addr - addr)) {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d linear instructions pruned", missed)
	}
}
