package lang

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// Reference semantics of every atom: a function of the fully decoded
// instruction, as the atoms were defined before the universe became a
// slice of x86.Loc. TestSelectorsMatchFullDecode holds the lazy view to
// them.
var (
	refBool = map[string]func(*x86.Inst) bool{
		"true":      func(*x86.Inst) bool { return true },
		"false":     func(*x86.Inst) bool { return false },
		"jump":      (*x86.Inst).IsJmp,
		"jcc":       (*x86.Inst).IsJcc,
		"branch":    func(i *x86.Inst) bool { return i.IsJmp() || i.IsJcc() },
		"call":      (*x86.Inst).IsCall,
		"ret":       (*x86.Inst).IsRet,
		"indirect":  func(i *x86.Inst) bool { return (i.IsJmp() || i.IsCall()) && i.RelSize == 0 },
		"direct":    func(i *x86.Inst) bool { return i.RelSize != 0 },
		"memwrite":  (*x86.Inst).WritesMem,
		"heapwrite": (*x86.Inst).IsHeapWrite,
		"riprel":    func(i *x86.Inst) bool { return i.RIPRel },
		"mem":       (*x86.Inst).HasMem,
		"short":     func(i *x86.Inst) bool { return i.Len < 5 },
		"twobyte":   func(i *x86.Inst) bool { return i.TwoByte },
	}
	refInt = map[string]func(*x86.Inst) uint64{
		"addr": func(i *x86.Inst) uint64 { return i.Addr },
		"len":  func(i *x86.Inst) uint64 { return uint64(i.Len) },
		"size": func(i *x86.Inst) uint64 { return uint64(i.Len) },
		"op":   func(i *x86.Inst) uint64 { return uint64(i.Opcode) },
		"target": func(i *x86.Inst) uint64 {
			if i.RelSize == 0 {
				return 0
			}
			return i.Target()
		},
		"imm":   func(i *x86.Inst) uint64 { return uint64(i.Imm()) },
		"disp":  func(i *x86.Inst) uint64 { return uint64(i.Disp()) },
		"width": func(i *x86.Inst) uint64 { return uint64(i.OpWidth()) },
	}
	refStr = map[string]func(*x86.Inst) string{
		"mnemonic": (*x86.Inst).Mnemonic,
		"asm":      (*x86.Inst).String,
	}
	refReg = map[string]func(*x86.Inst) x86.Reg{
		"base":  func(i *x86.Inst) x86.Reg { return i.MemBase },
		"index": func(i *x86.Inst) x86.Reg { return i.MemIndex },
	}
)

// selectorCase is one selector and the predicate over a full decode it
// must agree with.
type selectorCase struct {
	name string
	sel  func([]x86.Loc) []int
	ref  func(*x86.Inst) bool
}

// selectorCases lists every atom of this package's tables (each in an
// expression whose constant comes from the instruction at the middle of
// the universe, so that it selects something) and the comparisons the
// retired internal/match grammar had. The root package's built-in
// selectors are held to the "branch", "heapwrite" and "true" programs
// by its TestMatchEquivalence.
func selectorCases(t *testing.T, mid *x86.Inst) []selectorCase {
	t.Helper()
	for name, have := range map[string]int{"bool": len(refBool) - len(boolTerms), "int": len(refInt) - len(intAttrs),
		"str": len(refStr) - len(strAttrs), "reg": len(refReg) - len(regAttrs)} {
		if have != 0 {
			t.Fatalf("the %s atom table and its reference differ in size: give every atom a reference", name)
		}
	}
	var cases []selectorCase
	langCase := func(expr string, ref func(*x86.Inst) bool) {
		p, err := CompileExpr(expr)
		if err != nil {
			t.Fatalf("lang %q: %v", expr, err)
		}
		cases = append(cases, selectorCase{"lang " + expr, p.Selector(), ref})
	}

	for name, ref := range refBool {
		if _, ok := boolTerms[name]; !ok {
			t.Fatalf("reference for %q, which is not an atom", name)
		}
		langCase(name, ref)
	}
	for name, get := range refInt {
		get, v := get, get(mid)
		langCase(fmt.Sprintf("%s=%#x", name, v), func(i *x86.Inst) bool { return get(i) == v })
		langCase(fmt.Sprintf("%s>=%#x", name, v), func(i *x86.Inst) bool { return get(i) >= v })
		if v+3 > v { // a range must not wrap
			langCase(fmt.Sprintf("%s!=%#x..%#x", name, v, v+3), func(i *x86.Inst) bool { return get(i) < v || get(i) >= v+3 })
		}
	}
	mnemonic := mid.Mnemonic()
	langCase(fmt.Sprintf("mnemonic=%q", mnemonic), func(i *x86.Inst) bool { return i.Mnemonic() == mnemonic })
	movRe := regexp.MustCompile(`^(?:mov.*)$`)
	langCase(`asm="mov.*"`, func(i *x86.Inst) bool { return movRe.MatchString(i.String()) })
	for name, get := range refReg {
		get := get
		langCase(name+"=rsp", func(i *x86.Inst) bool { return get(i) == x86.RSP })
		langCase(name+"!=none", func(i *x86.Inst) bool { return get(i) != x86.NoReg })
	}
	langCase("jcc & short | memwrite & base!=rsp", func(i *x86.Inst) bool {
		return i.IsJcc() && i.Len < 5 || i.WritesMem() && i.MemBase != x86.RSP
	})

	n := uint64(mid.Len)
	for op, cmp := range map[string]func(a, b uint64) bool{
		"=":  func(a, b uint64) bool { return a == b },
		"<":  func(a, b uint64) bool { return a < b },
		">":  func(a, b uint64) bool { return a > b },
		"<=": func(a, b uint64) bool { return a <= b },
		">=": func(a, b uint64) bool { return a >= b },
	} {
		cmp := cmp
		langCase(fmt.Sprintf("len%s%d", op, n), func(i *x86.Inst) bool { return cmp(uint64(i.Len), n) })
		langCase(fmt.Sprintf("addr%s%#x", op, mid.Addr), func(i *x86.Inst) bool { return cmp(i.Addr, mid.Addr) })
	}
	// The retired grammar's op= read the one-byte map only.
	langCase(fmt.Sprintf("op=%#x & !twobyte", mid.Opcode), func(i *x86.Inst) bool { return !i.TwoByte && i.Opcode == mid.Opcode })
	langCase("mnemonic=mov", func(i *x86.Inst) bool { return i.Mnemonic() == "mov" })
	langCase("mnemonic=mov & !memwrite", func(i *x86.Inst) bool { return i.Mnemonic() == "mov" && !i.WritesMem() })
	return cases
}

// TestSelectorsMatchFullDecode: selectors run over the compact universe
// and decode an instruction only where an atom reads an operand. Every
// one of them must select exactly what "decode every instruction, then
// apply the predicate" selects, on every workload profile under every
// recovery mode.
func TestSelectorsMatchFullDecode(t *testing.T) {
	const textBytes = 16e3
	for _, p := range workload.AllProfiles() {
		scale := min(1, textBytes/(p.SizeMB*1e6))
		prog, err := workload.BuildStatic(p, scale)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		f, err := elf64.Parse(prog.ELF)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		text, addr, err := f.Text()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Past the data-in-text prefix, where the rewriter's SkipPrefix
		// starts: nothing in it is reachable from a CET anchor.
		skip := workload.DataPrefixBytes(p, scale)
		text, addr = text[skip:], addr+skip
		for _, mode := range disasm.Modes() {
			res, _ := disasm.Recover(mode, text, addr)
			if len(res.Insts) == 0 {
				t.Fatalf("%s/%s: nothing recovered", p.Name, mode)
			}
			full := make([]x86.Inst, len(res.Insts))
			for i := range full {
				res.Insts[i].DecodeInto(&full[i])
			}
			for _, c := range selectorCases(t, &full[len(full)/2]) {
				var want []int
				for i := range full {
					if c.ref(&full[i]) {
						want = append(want, i)
					}
				}
				if got := c.sel(res.Insts); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("%s/%s: %s selects %d instructions, full decode %d", p.Name, mode, c.name, len(got), len(want))
				}
			}
		}
	}
}
