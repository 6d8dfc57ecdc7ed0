package lang

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/match"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// testInsts assembles a small program covering every attribute class:
//
//	0  nop                      addr 0x1000, len 1
//	1  movabs rax, 0x42         long immediate
//	2  mov byte [rdi+8], 7      memory write, base rdi
//	3  je 0x1000                short conditional jump, direct
//	4  jmp r11                  indirect jump
//	5  call 0x1000              direct call
//	6  ret
func testInsts(t *testing.T) []x86.Loc {
	t.Helper()
	a := x86.NewAsm(0x1000)
	top := a.NewLabel()
	a.Bind(top)
	a.Nop()
	a.MovRegImm64(x86.RAX, 0x42)
	a.MovMemImm8(x86.M(x86.RDI, 8), 7)
	a.JccShort(x86.CondE, top)
	a.JmpReg(x86.R11)
	a.CallRel32(0x1000)
	a.Ret()
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := disasm.Recover(disasm.ModeLinear, code, 0x1000)
	if res.BadBytes != 0 {
		t.Fatalf("test program has %d undecodable bytes", res.BadBytes)
	}
	if len(res.Insts) != 7 {
		t.Fatalf("test program decoded to %d instructions, want 7", len(res.Insts))
	}
	return res.Insts
}

// legacyInsts is the program internal/match's tests run on:
// heap, stack and RIP-relative writes, short and near jcc, direct and
// indirect jmp.
//
//	0  mov [rbx], rax           addr 0x401000, heapwrite
//	1  mov [rsp+8], rax         stack write
//	2  mov rcx, rax
//	3  add rax, 1000
//	4  je 0x401000              short
//	5  jne .+6                  near, len 6
//	6  jmp 0x401000
//	7  jmp rax                  indirect
//	8  call 0x401000
//	9  mov [rip+0x100], eax     RIP-relative write
//	10 ret                      len 1
func legacyInsts(t *testing.T) []x86.Loc {
	t.Helper()
	a := x86.NewAsm(0x401000)
	top := a.NewLabel()
	a.Bind(top)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	a.MovMemReg64(x86.M(x86.RSP, 8), x86.RAX)
	a.MovRegReg64(x86.RCX, x86.RAX)
	a.AddRegImm64(x86.RAX, 1000)
	a.JccShort(x86.CondE, top)
	l := a.NewLabel()
	a.Jcc(x86.CondNE, l)
	a.Bind(l)
	a.Jmp(top)
	a.JmpReg(x86.RAX)
	a.CallRel32(0x401000)
	a.MovMemReg32(x86.MRIP(0x100), x86.RAX)
	a.Ret()
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := disasm.Recover(disasm.ModeLinear, code, 0x401000)
	if res.BadBytes != 0 || len(res.Insts) != 11 {
		t.Fatalf("legacy program: %d instructions, %d undecodable bytes; want 11, 0", len(res.Insts), res.BadBytes)
	}
	return res.Insts
}

// decoded is the full decode of one of testInsts' records: what the
// hand-written reference predicates and the failure messages read.
func decoded(l *x86.Loc) *x86.Inst {
	in := new(x86.Inst)
	l.DecodeInto(in)
	return in
}

// TestEvalAgainstHandPredicates compiles expressions and checks them
// instruction by instruction against hand-written predicates, on both
// fixtures; want is the expected match count so no case passes
// vacuously. The legacyInsts rows are internal/match's TestTerms
// table, counts unchanged.
func TestEvalAgainstHandPredicates(t *testing.T) {
	asmRe := regexp.MustCompile(`^(?:j.*)$`)
	branch := func(i *x86.Inst) bool { return i.IsJmp() || i.IsJcc() }
	short := func(i *x86.Inst) bool { return i.Len < 5 }
	isMov := func(i *x86.Inst) bool { return i.Mnemonic() == "mov" }
	type evalCase struct {
		expr string
		want int
		fn   func(i *x86.Inst) bool
	}
	for _, fx := range []struct {
		name  string
		insts []x86.Loc
		cases []evalCase
	}{
		{"testInsts", testInsts(t), []evalCase{
			{"true", 7, func(i *x86.Inst) bool { return true }},
			{"false", 0, func(i *x86.Inst) bool { return false }},
			{"jcc", 1, (*x86.Inst).IsJcc},
			{"jump", 1, (*x86.Inst).IsJmp},
			{"branch", 2, branch},
			{"call", 1, (*x86.Inst).IsCall},
			{"ret", 1, (*x86.Inst).IsRet},
			{"indirect", 1, func(i *x86.Inst) bool { return (i.IsJmp() || i.IsCall()) && i.RelSize == 0 }},
			{"call & indirect", 0, func(i *x86.Inst) bool { return i.IsCall() && i.RelSize == 0 }},
			{"direct", 2, func(i *x86.Inst) bool { return i.RelSize != 0 }},
			{"memwrite", 1, (*x86.Inst).WritesMem},
			{"mem", 1, (*x86.Inst).HasMem},
			{"short", 5, short},
			{"addr=0x1000", 1, func(i *x86.Inst) bool { return i.Addr == 0x1000 }},
			{"addr!=0x1000", 6, func(i *x86.Inst) bool { return i.Addr != 0x1000 }},
			{"addr=0x1000..0x100b", 2, func(i *x86.Inst) bool { return i.Addr >= 0x1000 && i.Addr < 0x100b }},
			{"addr!=0x1000..0x100b", 5, func(i *x86.Inst) bool { return i.Addr < 0x1000 || i.Addr >= 0x100b }},
			{"len>5", 1, func(i *x86.Inst) bool { return i.Len > 5 }},
			{"size<=2", 3, func(i *x86.Inst) bool { return i.Len <= 2 }},
			{"target=0x1000", 2, func(i *x86.Inst) bool { return i.RelSize != 0 && i.Target() == 0x1000 }},
			{"imm=0x42", 1, func(i *x86.Inst) bool { return uint64(i.Imm()) == 0x42 }},
			{"base=rdi", 1, func(i *x86.Inst) bool { return i.MemBase == x86.RDI }},
			{"base!=none", 1, func(i *x86.Inst) bool { return i.MemBase != x86.NoReg }},
			{"index=none", 7, func(i *x86.Inst) bool { return i.MemIndex == x86.NoReg }},
			{`asm="j.*"`, 2, func(i *x86.Inst) bool { return asmRe.MatchString(i.String()) }},
			{"mnemonic=ret", 1, func(i *x86.Inst) bool { return i.Mnemonic() == "ret" }},
			{"not branch", 5, func(i *x86.Inst) bool { return !branch(i) }},
			{"jcc | ret", 2, func(i *x86.Inst) bool { return i.IsJcc() || i.IsRet() }},
			// Implied and: adjacency binds like '&'.
			{"branch short", 2, func(i *x86.Inst) bool { return branch(i) && short(i) }},
			// Precedence: or is weaker than and.
			{"ret | call direct", 2, func(i *x86.Inst) bool { return i.IsRet() || (i.IsCall() && i.RelSize != 0) }},
			{"(ret | call) direct", 1, func(i *x86.Inst) bool { return (i.IsRet() || i.IsCall()) && i.RelSize != 0 }},
		}},
		{"legacyInsts", legacyInsts(t), []evalCase{
			{"true", 11, func(i *x86.Inst) bool { return true }},
			{"false", 0, func(i *x86.Inst) bool { return false }},
			{"jump", 2, (*x86.Inst).IsJmp}, // jmp rel32 + jmp *rax
			{"jcc", 2, (*x86.Inst).IsJcc},  // short + near
			{"branch", 4, branch},
			{"call", 1, (*x86.Inst).IsCall},
			{"ret", 1, (*x86.Inst).IsRet},
			{"indirect", 1, func(i *x86.Inst) bool { return (i.IsJmp() || i.IsCall()) && i.RelSize == 0 }},
			{"heapwrite", 1, (*x86.Inst).IsHeapWrite}, // rsp and riprel excluded
			{"memwrite", 3, (*x86.Inst).WritesMem},    // heap + stack + riprel
			{"riprel", 1, func(i *x86.Inst) bool { return i.RIPRel }},
			{"jcc & short", 1, func(i *x86.Inst) bool { return i.IsJcc() && short(i) }},
			{"jcc short", 1, func(i *x86.Inst) bool { return i.IsJcc() && short(i) }}, // whitespace conjunction
			{"jcc & !short", 1, func(i *x86.Inst) bool { return i.IsJcc() && !short(i) }},
			{"jump | jcc", 4, branch},
			{"(jump | jcc) & short", 2, func(i *x86.Inst) bool { return branch(i) && short(i) }}, // short jcc + 2-byte indirect jmp
			{"mnemonic=mov & !memwrite", 1, func(i *x86.Inst) bool { return isMov(i) && !i.WritesMem() }},
			{"mnemonic=mov", 4, isMov},
			{"len=1", 1, func(i *x86.Inst) bool { return i.Len == 1 }}, // ret
			{"len>=5", 6, func(i *x86.Inst) bool { return i.Len >= 5 }},
			{"addr=0x401000", 1, func(i *x86.Inst) bool { return i.Addr == 0x401000 }},
			{"addr>=0x401000 & addr<0x401004", 2, func(i *x86.Inst) bool { return i.Addr >= 0x401000 && i.Addr < 0x401004 }},
			// op= reads the primary opcode byte in either map; the retired
			// grammar's one-byte-map-only op= is op=N & !twobyte.
			{"op=0xC3", 1, func(i *x86.Inst) bool { return i.Opcode == 0xC3 }},
			{"op=0xC3 & !twobyte", 1, func(i *x86.Inst) bool { return !i.TwoByte && i.Opcode == 0xC3 }},
			{"heapwrite | ret", 2, func(i *x86.Inst) bool { return i.IsHeapWrite() || i.IsRet() }},
			{"!true", 0, func(i *x86.Inst) bool { return false }},
		}},
	} {
		for _, c := range fx.cases {
			p, err := CompileExpr(c.expr)
			if err != nil {
				t.Errorf("%s: compile %q: %v", fx.name, c.expr, err)
				continue
			}
			got := 0
			for i := range fx.insts {
				ev, want := p.evalLoc(&fx.insts[i]), c.fn(decoded(&fx.insts[i]))
				if ev != want {
					t.Errorf("%s: %q on %s: eval=%t hand=%t", fx.name, c.expr, decoded(&fx.insts[i]), ev, want)
				}
				if ev {
					got++
				}
			}
			if got != c.want {
				t.Errorf("%s: %q matched %d instructions, want %d", fx.name, c.expr, got, c.want)
			}
			if !match.Shardable(p.Selector()) {
				t.Errorf("%q selector not registered shardable", c.expr)
			}
		}
	}
}

// TestCompileErrors: what the retired internal/match grammar rejected
// is rejected here too, as ErrBadSpec. The exception is op<0x10, which
// it refused because its op= was equality only; here op is an integer
// attribute like len and takes every comparison, by design.
func TestCompileErrors(t *testing.T) {
	for _, expr := range []string{
		"", "bogus", "jcc &", "(jcc", "jcc)", "len=x", "addr>=", "mnemonic<mov", "!",
	} {
		if _, err := CompileExpr(expr); !errors.Is(err, e9err.ErrBadSpec) {
			t.Errorf("expression %q: %v, want ErrBadSpec", expr, err)
		}
	}
	if _, err := CompileExpr("op<0x10"); err != nil {
		t.Errorf("op<0x10: %v", err)
	}
}

// TestBadExprPositions checks that parse and typecheck failures carry
// ErrBadSpec with 1-based line:column positions in both the reason and
// the message.
func TestBadExprPositions(t *testing.T) {
	cases := []struct {
		expr   string
		reason string // expected Reason (class:line:col)
		substr string // expected message fragment
	}{
		{"", "bad-spec:1:1", "expected a term"},
		{"jcc &", "bad-spec:1:6", ""},
		{"bogus", "bad-spec:1:1", "unknown term"},
		{"jcc bogus", "bad-spec:1:5", "unknown term"},
		{"addr", "bad-spec:1:1", "needs a comparison"},
		{"jcc=1", "bad-spec:1:1", "takes no comparison"},
		{"addr=jcc", "bad-spec:1:6", "against numbers"},
		{"addr<0x1..0x2", "bad-spec:1:6", "ranges compare only with = or !="},
		{"addr=0x2..0x2", "bad-spec:1:6", "empty range"},
		{"mnemonic<mov", "bad-spec:1:1", "only with = or !="},
		{`asm="("`, "bad-spec:1:5", "bad asm regex"},
		{"base=bogus", "bad-spec:1:6", "unknown register"},
		{"wut=1", "bad-spec:1:1", "unknown attribute"},
		{"(jcc", "bad-spec:1:5", ""},
		{"jcc)", "bad-spec:1:4", ""},
		{"addr=99999999999999999999", "bad-spec:1:6", ""},
	}
	for _, c := range cases {
		_, err := ParseExpr(c.expr)
		if err == nil {
			t.Errorf("ParseExpr(%q): no error", c.expr)
			continue
		}
		if !errors.Is(err, e9err.ErrBadSpec) {
			t.Errorf("ParseExpr(%q): not ErrBadSpec: %v", c.expr, err)
		}
		var ee *e9err.Error
		if !errors.As(err, &ee) {
			t.Errorf("ParseExpr(%q): not an *e9err.Error: %v", c.expr, err)
			continue
		}
		if ee.Reason != c.reason {
			t.Errorf("ParseExpr(%q): reason %q, want %q (msg: %s)", c.expr, ee.Reason, c.reason, ee.Msg)
		}
		if c.substr != "" && !strings.Contains(ee.Msg, c.substr) {
			t.Errorf("ParseExpr(%q): msg %q missing %q", c.expr, ee.Msg, c.substr)
		}
	}
}

// TestSpecFilePositions checks that spec-file errors point at the
// offending line and column of the file, not of the sub-expression.
func TestSpecFilePositions(t *testing.T) {
	cases := []struct {
		text   string
		reason string
		substr string
	}{
		{"match jcc\n\nexclude bogus\n", "bad-spec:3:9", "unknown term"},
		{"# c\nmatch jcc &\n", "bad-spec:2:12", ""},
		{"match jcc\nmatch ret\n", "bad-spec:2:1", "duplicate match"},
		{"match jcc\npatch empty\npatch empty\n", "bad-spec:3:1", "duplicate patch"},
		{"match jcc\npayload a\npayload b\n", "bad-spec:3:1", "duplicate payload"},
		{"match jcc\npayload\n", "bad-spec:2:8", "needs a reference"},
		{"frobnicate jcc\n", "bad-spec:1:1", "unknown directive"},
		{"patch empty\n", "bad-spec:1:1", "no match directive"},
		{"match jcc\npatch call f(x)\n", "bad-spec:2:14", "unknown call argument"},
		{"match jcc\npatch call f(addr) @a\npayload b\n", "bad-spec:1:1", "conflicting payload references"},
		{"  match  jcc bogus\n", "bad-spec:1:14", "unknown term"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.text)
		if err == nil {
			t.Errorf("ParseSpec(%q): no error", c.text)
			continue
		}
		var ee *e9err.Error
		if !errors.As(err, &ee) || !errors.Is(err, e9err.ErrBadSpec) {
			t.Errorf("ParseSpec(%q): not a classified bad-spec error: %v", c.text, err)
			continue
		}
		if ee.Reason != c.reason {
			t.Errorf("ParseSpec(%q): reason %q, want %q (msg: %s)", c.text, ee.Reason, c.reason, ee.Msg)
		}
		if c.substr != "" && !strings.Contains(ee.Msg, c.substr) {
			t.Errorf("ParseSpec(%q): msg %q missing %q", c.text, ee.Msg, c.substr)
		}
	}
}

// TestSpecExcludeComposition checks that exclusions subtract from the
// match set at the compiled-program level.
func TestSpecExcludeComposition(t *testing.T) {
	insts := testInsts(t)
	sp, err := ParseSpec("match branch\nexclude jcc\n")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := range insts {
		if sp.Program().evalLoc(&insts[i]) {
			if !insts[i].IsJmp() || insts[i].IsJcc() {
				t.Errorf("effective program matched %s", decoded(&insts[i]))
			}
			got++
		}
	}
	if got != 1 {
		t.Errorf("matched %d, want 1 (the indirect jmp)", got)
	}
	if !match.Shardable(sp.Selector()) {
		t.Error("composed selector not shardable")
	}

	// Two exclusions leave nothing.
	sp2, err := ParseSpec("match branch\nexclude jcc\nexclude jump\n")
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if sp2.Program().evalLoc(&insts[i]) {
			t.Errorf("doubly excluded program matched %s", decoded(&insts[i]))
		}
	}
}

func TestParsePatch(t *testing.T) {
	cases := []struct {
		src  string
		want PatchSpec
	}{
		{"", PatchSpec{Kind: PatchEmpty}},
		{"empty", PatchSpec{Kind: PatchEmpty}},
		{"counter=0x300000000", PatchSpec{Kind: PatchCounter, Addr: 0x3_0000_0000}},
		{"contextcall=0x1234", PatchSpec{Kind: PatchContextCall, Addr: 0x1234}},
		{"lowfat", PatchSpec{Kind: PatchLowfat}},
		{"lowfat-trap", PatchSpec{Kind: PatchLowfatTrap}},
		{"call f()", PatchSpec{Kind: PatchCall, Fn: "f"}},
		{"call trace(addr) @payload.elf", PatchSpec{
			Kind: PatchCall, Fn: "trace",
			Args:       []trampoline.Arg{{Kind: trampoline.ArgAddr}},
			PayloadRef: "payload.elf",
		}},
		{"call probe(addr, size, target, imm, next, 42)", PatchSpec{
			Kind: PatchCall, Fn: "probe",
			Args: []trampoline.Arg{
				{Kind: trampoline.ArgAddr}, {Kind: trampoline.ArgSize},
				{Kind: trampoline.ArgTarget}, {Kind: trampoline.ArgImm},
				{Kind: trampoline.ArgNext}, {Kind: trampoline.ArgStatic, Value: 42},
			},
		}},
		{"call f(len, asm)", PatchSpec{
			Kind: PatchCall, Fn: "f",
			Args: []trampoline.Arg{{Kind: trampoline.ArgSize}, {Kind: trampoline.ArgAsm}},
		}},
	}
	for _, c := range cases {
		ps, err := ParsePatch(c.src)
		if err != nil {
			t.Errorf("ParsePatch(%q): %v", c.src, err)
			continue
		}
		if ps.Kind != c.want.Kind || ps.Addr != c.want.Addr || ps.Fn != c.want.Fn || ps.PayloadRef != c.want.PayloadRef {
			t.Errorf("ParsePatch(%q) = %+v, want %+v", c.src, ps, c.want)
		}
		if len(ps.Args) != len(c.want.Args) {
			t.Errorf("ParsePatch(%q): %d args, want %d", c.src, len(ps.Args), len(c.want.Args))
			continue
		}
		for i := range ps.Args {
			if ps.Args[i] != c.want.Args[i] {
				t.Errorf("ParsePatch(%q): arg %d = %v, want %v", c.src, i, ps.Args[i], c.want.Args[i])
			}
		}
	}

	bad := []string{
		"bogus",
		"counter",
		"counter=",
		"counter=x",
		"call",
		"call f",
		"call f(",
		"call f(addr,)",
		"call f(addr addr)",
		"call f(a, b, c, d, e, f, g)",
		"call f(addr, addr, addr, addr, addr, addr, addr)",
		"call f() @",
		"empty trailing",
	}
	for _, src := range bad {
		if _, err := ParsePatch(src); err == nil {
			t.Errorf("ParsePatch(%q): no error", src)
		} else if !errors.Is(err, e9err.ErrBadSpec) {
			t.Errorf("ParsePatch(%q): not ErrBadSpec: %v", src, err)
		}
	}
}

// TestHostileInputLimits checks the resource caps on untrusted specs.
func TestHostileInputLimits(t *testing.T) {
	if _, err := ParseExpr("jcc | " + strings.Repeat("x", maxExprBytes)); err == nil {
		t.Error("oversized expression accepted")
	}
	if _, err := ParseSpec("match jcc\n# " + strings.Repeat("y", maxSpecBytes)); err == nil {
		t.Error("oversized spec accepted")
	}
	// Deep nesting must fail with a bounded error, not a stack overflow.
	deep := strings.Repeat("(", maxDepth+10) + "jcc" + strings.Repeat(")", maxDepth+10)
	if _, err := ParseExpr(deep); err == nil {
		t.Error("over-deep expression accepted")
	} else if !errors.Is(err, e9err.ErrBadSpec) {
		t.Errorf("over-deep expression: %v", err)
	}
	// Node-count cap: a long flat disjunction.
	wide := "jcc" + strings.Repeat(" | jcc", maxNodes)
	if _, err := ParseExpr(wide); err == nil {
		t.Error("over-wide expression accepted")
	}
	// At the legal edge both still work.
	ok := strings.Repeat("(", 50) + "jcc" + strings.Repeat(")", 50)
	if _, err := ParseExpr(ok); err != nil {
		t.Errorf("50-deep expression rejected: %v", err)
	}
}

func TestFromParts(t *testing.T) {
	sp, err := FromParts("call & indirect", "call trace(addr) @p.elf")
	if err != nil {
		t.Fatal(err)
	}
	if sp.PayloadRef != "p.elf" || sp.Patch.Kind != PatchCall {
		t.Errorf("FromParts: %+v", sp)
	}
	if sp.MatchSrc != "call & indirect" {
		t.Errorf("MatchSrc = %q", sp.MatchSrc)
	}
	if _, err := FromParts("bogus", ""); err == nil {
		t.Error("bad match accepted")
	}
	if _, err := FromParts("jcc", "bogus"); err == nil {
		t.Error("bad patch accepted")
	}
}

// TestDump spot-checks the e9dump -spec rendering.
func TestDump(t *testing.T) {
	sp, err := ParseSpec("match jcc & addr=0x0..0x1000\nexclude short\npatch counter=0x300000000\n")
	if err != nil {
		t.Fatal(err)
	}
	dump := sp.Dump()
	for _, want := range []string{
		"match jcc & addr=0x0..0x1000",
		"term jcc :bool",
		"cmp addr = ",
		"exclude short",
		"patch counter=0x300000000",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
