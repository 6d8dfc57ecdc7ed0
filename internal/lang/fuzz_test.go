package lang

import (
	"errors"
	"testing"

	"e9patch/internal/e9err"
	"e9patch/internal/x86"
)

// FuzzMatchExpr feeds arbitrary bytes through every front-end entry
// point. The contract under fuzzing: no panic, and every failure is a
// classified ErrBadSpec (hostile text must never surface as a raw
// parse crash or an unclassified error). Accepted expressions must
// also evaluate without crashing.
func FuzzMatchExpr(f *testing.F) {
	seeds := []string{
		"jcc",
		"jcc & short",
		"call & indirect",
		"jump | jcc",
		"not (branch | ret) & addr=0x1000..0x2000",
		`asm="mov.*" & memwrite`,
		"mnemonic=nop | base=rdi index!=none",
		"addr!=0x0..0x1000 width>=4 imm=0x42",
		"match jcc\nexclude short\npatch call f(addr, asm) @p.elf\n",
		"patch counter=0x300000000",
		"call probe(addr, size, target, imm, next, 42) @x",
		"((((jcc))))",
		"jcc &",
		"\"unterminated",
		"addr=0x2..0x1",
		"# only a comment\n",
		// The retired internal/match grammar's test strings.
		"jcc short",
		"(jump | jcc) & short",
		"mnemonic=mov & !memwrite",
		"addr>=0x401000 & addr<0x401004",
		"op=0xC3",
		"heapwrite | ret",
		"len>=5",
		"!true",
		"bogus",
		"(jcc",
		"jcc)",
		"len=x",
		"addr>=",
		"op<0x10",
		"mnemonic<mov",
		"!",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	classified := func(t *testing.T, err error, what string, src string) {
		if err != nil && !errors.Is(err, e9err.ErrBadSpec) {
			t.Errorf("%s(%q): unclassified error %v", what, src, err)
		}
	}
	// One decoded instruction to evaluate accepted programs against.
	a := x86.NewAsm(0x1000)
	a.MovMemImm8(x86.M(x86.RDI, 8), 7)
	code, err := a.Finish()
	if err != nil {
		f.Fatal(err)
	}
	full, err := x86.Decode(code, 0x1000)
	if err != nil {
		f.Fatal(err)
	}
	inst := full.Loc()

	f.Fuzz(func(t *testing.T, src string) {
		p, err := CompileExpr(src)
		classified(t, err, "CompileExpr", src)
		if err == nil {
			p.evalLoc(&inst)
		}
		_, err = ParsePatch(src)
		classified(t, err, "ParsePatch", src)
		sp, err := ParseSpec(src)
		classified(t, err, "ParseSpec", src)
		if err == nil {
			sp.Program().evalLoc(&inst)
			sp.Dump()
		}
	})
}
