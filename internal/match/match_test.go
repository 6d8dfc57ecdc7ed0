package match_test

import (
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/lang"
	"e9patch/internal/match"
	"e9patch/internal/x86"
)

func program(t *testing.T) []x86.Loc {
	t.Helper()
	a := x86.NewAsm(0x401000)
	top := a.NewLabel()
	a.Bind(top)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX) // heapwrite, mov, len 3
	a.MovMemReg64(x86.M(x86.RSP, 8), x86.RAX) // memwrite (stack)
	a.MovRegReg64(x86.RCX, x86.RAX)           // mov reg-reg
	a.AddRegImm64(x86.RAX, 1000)              // add, len 6? (imm32 -> 7)
	a.JccShort(x86.CondE, top)                // jcc, short
	l := a.NewLabel()
	a.Jcc(x86.CondNE, l) // jcc, len 6
	a.Bind(l)
	a.Jmp(top)                              // jump
	a.JmpReg(x86.RAX)                       // indirect jump
	a.CallRel32(0x401000)                   // call
	a.MovMemReg32(x86.MRIP(0x100), x86.RAX) // riprel write
	a.Ret()                                 // ret, len 1
	code := a.MustFinish()
	res, _ := disasm.Recover(disasm.ModeLinear, code, 0x401000)
	return res.Insts
}

// count compiles expr with internal/lang, the grammar that replaced
// this package's own, and runs its predicate through match.Select.
func count(t *testing.T, insts []x86.Loc, expr string) int {
	t.Helper()
	p, err := lang.CompileExpr(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return len(match.Select(p.Predicate())(insts))
}

func TestTerms(t *testing.T) {
	insts := program(t)
	cases := []struct {
		expr string
		want int
	}{
		{"true", len(insts)},
		{"false", 0},
		{"jump", 2}, // jmp rel32 + jmp *rax
		{"jcc", 2},  // short + near
		{"branch", 4},
		{"call", 1},
		{"ret", 1},
		{"indirect", 1},
		{"heapwrite", 1}, // rsp and riprel excluded
		{"memwrite", 3},  // heap + stack + riprel
		{"riprel", 1},
		{"jcc & short", 1},
		{"jcc & !short", 1},
		{"jump | jcc", 4},
		{"(jump | jcc) & short", 2}, // short jcc + 2-byte indirect jmp
		{"mnemonic=mov & !memwrite", 1},
		{"mnemonic=mov", 4},
		{"len=1", 1}, // ret
		{"len>=5", 6},
		{"addr=0x401000", 1},
		{"addr>=0x401000 & addr<0x401004", 2},
		{"op=0xC3", 1},
		{"heapwrite | ret", 2},
		{"!true", 0},
	}
	for _, tc := range cases {
		if got := count(t, insts, tc.expr); got != tc.want {
			t.Errorf("%q: got %d, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestWhitespaceConjunction(t *testing.T) {
	insts := program(t)
	a := count(t, insts, "jcc short")
	b := count(t, insts, "jcc & short")
	if a != b {
		t.Errorf("whitespace conjunction %d != explicit %d", a, b)
	}
}
