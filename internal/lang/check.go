package lang

import (
	"regexp"
	"sort"
	"strings"

	"e9patch/internal/e9err"
	"e9patch/internal/match"
	"e9patch/internal/x86"
)

// Attribute tables. Every accessor is a pure function of the single
// instruction it is handed — the property that makes compiled
// selectors shard-safe (see compile.go). An accessor over the class,
// the length or the address reads the universe record; one over the
// opcode or an operand goes through full, which decodes the
// instruction the first time the view is asked.

// full lifts an accessor over the decoded instruction to the view.
func full[T any](fn func(*x86.Inst) T) func(*match.View) T {
	return func(v *match.View) T { return fn(v.Inst()) }
}

var boolTerms = map[string]func(*match.View) bool{
	"true":      func(*match.View) bool { return true },
	"false":     func(*match.View) bool { return false },
	"jump":      func(v *match.View) bool { return v.IsJmp() },
	"jcc":       func(v *match.View) bool { return v.IsJcc() },
	"branch":    func(v *match.View) bool { return v.IsJmp() || v.IsJcc() },
	"call":      func(v *match.View) bool { return v.IsCall() },
	"ret":       func(v *match.View) bool { return v.IsRet() },
	"indirect":  func(v *match.View) bool { return (v.IsJmp() || v.IsCall()) && v.RelSize() == 0 },
	"direct":    func(v *match.View) bool { return v.RelSize() != 0 },
	"memwrite":  func(v *match.View) bool { return v.MayWriteMem() && v.Inst().WritesMem() },
	"heapwrite": func(v *match.View) bool { return v.MayWriteMem() && v.Inst().IsHeapWrite() },
	"riprel":    full(func(i *x86.Inst) bool { return i.RIPRel }),
	"mem":       full((*x86.Inst).HasMem),
	"short":     func(v *match.View) bool { return v.Len < 5 },
	"twobyte":   full(func(i *x86.Inst) bool { return i.TwoByte }),
}

var intAttrs = map[string]func(*match.View) uint64{
	"addr": func(v *match.View) uint64 { return v.Addr },
	"len":  func(v *match.View) uint64 { return uint64(v.Len) },
	"size": func(v *match.View) uint64 { return uint64(v.Len) },
	"op":   full(func(i *x86.Inst) uint64 { return uint64(i.Opcode) }),
	"target": func(v *match.View) uint64 {
		if v.RelSize() == 0 {
			return 0
		}
		return v.Inst().Target()
	},
	// imm and disp compare as the unsigned two's-complement image of
	// the sign-extended operand.
	"imm":   full(func(i *x86.Inst) uint64 { return uint64(i.Imm()) }),
	"disp":  full(func(i *x86.Inst) uint64 { return uint64(i.Disp()) }),
	"width": full(func(i *x86.Inst) uint64 { return uint64(i.OpWidth()) }),
}

var strAttrs = map[string]func(*match.View) string{
	"mnemonic": full((*x86.Inst).Mnemonic),
	"asm":      full((*x86.Inst).String),
}

var regAttrs = map[string]func(*match.View) x86.Reg{
	"base":  full(func(i *x86.Inst) x86.Reg { return i.MemBase }),
	"index": full(func(i *x86.Inst) x86.Reg { return i.MemIndex }),
}

var regByName = func() map[string]x86.Reg {
	m := map[string]x86.Reg{"none": x86.NoReg}
	for r := x86.RAX; r <= x86.RIP; r++ {
		m[r.String()] = r
	}
	return m
}()

func names[V any](m map[string]V) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// check typechecks the AST in place, binding attribute accessors and
// compiling asm= regexes. Every failure is an e9err.ErrBadSpec with
// the offending node's position.
func check(n Node, phase string) error {
	bad := func(p Pos, format string, args ...any) error {
		return e9err.BadSpec(phase, p.Line, p.Col, format, args...)
	}
	switch n := n.(type) {
	case *Not:
		return check(n.X, phase)
	case *And:
		if err := check(n.X, phase); err != nil {
			return err
		}
		return check(n.Y, phase)
	case *Or:
		if err := check(n.X, phase); err != nil {
			return err
		}
		return check(n.Y, phase)

	case *Term:
		fn, ok := boolTerms[n.Name]
		if !ok {
			if _, isAttr := intAttrs[n.Name]; isAttr {
				return bad(n.At, "attribute %q needs a comparison (e.g. %s=0x1000)", n.Name, n.Name)
			}
			if _, isAttr := strAttrs[n.Name]; isAttr {
				return bad(n.At, "attribute %q needs a comparison (e.g. %s=mov)", n.Name, n.Name)
			}
			if _, isAttr := regAttrs[n.Name]; isAttr {
				return bad(n.At, "attribute %q needs a comparison (e.g. %s=rsp)", n.Name, n.Name)
			}
			return bad(n.At, "unknown term %q (boolean terms: %s)", n.Name, names(boolTerms))
		}
		n.fn = fn
		return nil

	case *Rel:
		if _, isBool := boolTerms[n.Attr]; isBool {
			return bad(n.At, "term %q takes no comparison", n.Attr)
		}
		if fn, ok := intAttrs[n.Attr]; ok {
			switch n.Val.Kind {
			case ValInt:
			case ValRange:
				if n.Op != "=" && n.Op != "!=" {
					return bad(n.Val.At, "ranges compare only with = or != (got %s)", n.Op)
				}
			default:
				return bad(n.Val.At, "attribute %q compares against numbers", n.Attr)
			}
			n.intFn = fn
			return nil
		}
		if fn, ok := strAttrs[n.Attr]; ok {
			if n.Op != "=" && n.Op != "!=" {
				return bad(n.At, "attribute %q compares only with = or != (got %s)", n.Attr, n.Op)
			}
			if n.Val.Kind != ValWord && n.Val.Kind != ValQuoted {
				return bad(n.Val.At, "attribute %q compares against a name or string", n.Attr)
			}
			n.strFn = fn
			if n.Attr == "asm" {
				// Anchored over the full AT&T rendering, matching
				// E9Tool's asm= semantics.
				re, err := regexp.Compile("^(?:" + n.Val.Str + ")$")
				if err != nil {
					return bad(n.Val.At, "bad asm regex: %v", err)
				}
				n.re = re
			}
			return nil
		}
		if fn, ok := regAttrs[n.Attr]; ok {
			if n.Op != "=" && n.Op != "!=" {
				return bad(n.At, "attribute %q compares only with = or != (got %s)", n.Attr, n.Op)
			}
			if n.Val.Kind != ValWord {
				return bad(n.Val.At, "attribute %q compares against a register name", n.Attr)
			}
			reg, ok := regByName[n.Val.Str]
			if !ok {
				return bad(n.Val.At, "unknown register %q (want %s)", n.Val.Str, names(regByName))
			}
			n.regFn = fn
			n.reg = reg
			return nil
		}
		return bad(n.At, "unknown attribute %q (int: %s; str: %s; reg: %s)",
			n.Attr, names(intAttrs), names(strAttrs), names(regAttrs))
	}
	return bad(n.Pos(), "internal: unknown node type")
}
