// Package match implements a small instruction-matching language in
// the spirit of E9Tool, the front-end shipped with E9Patch: users
// select patch points with predicates over decoded instructions rather
// than writing selector code.
//
// Grammar:
//
//	expr  := or
//	or    := and ('|' and)*
//	and   := unary (('&' | whitespace) unary)*
//	unary := '!' unary | '(' expr ')' | term
//
// Terms:
//
//	true | false        always / never
//	jump                unconditional jumps (direct or indirect)
//	jcc                 conditional jumps
//	branch              jump | jcc
//	call | ret          calls / returns
//	indirect            indirect jump or call
//	memwrite            writes memory through a ModRM operand
//	heapwrite           the paper's A2 predicate (memwrite, not rsp/rip)
//	riprel              has a RIP-relative operand
//	short               encoded length < 5 (needs punning)
//	len=N len<N len>N len<=N len>=N
//	op=0xNN             primary opcode byte
//	mnemonic=S          formatter mnemonic equals S (e.g. mnemonic=mov)
//	addr=0xA addr<0xA addr>=0xA …
//
// Examples:
//
//	"jcc & short"               conditional jumps needing punning
//	"heapwrite | call"          stores and calls
//	"mnemonic=mov & !memwrite"  register-to-register moves
package match

import (
	"fmt"
	"strconv"
	"strings"

	"e9patch/internal/x86"
)

// View is the instruction a predicate is testing: its universe record,
// and the full decode the first time a term asks for one. Terms over
// the class, the length and the address (jump, call, short, len>=5,
// addr=…) read the record and never decode; terms over the opcode or
// an operand (heapwrite, riprel, op=, mnemonic=) decode that one
// instruction.
type View struct {
	*x86.Loc
	inst    x86.Inst
	decoded bool
}

// Reset points the view at another instruction, which must stay
// unchanged while the view is on it.
func (v *View) Reset(l *x86.Loc) { v.Loc, v.decoded = l, false }

// Inst returns the full decode of the instruction under test.
func (v *View) Inst() *x86.Inst {
	if !v.decoded {
		v.Loc.DecodeInto(&v.inst)
		v.decoded = true
	}
	return &v.inst
}

// Predicate tests one instruction.
type Predicate func(v *View) bool

// Compile parses a matcher expression.
func Compile(expr string) (Predicate, error) {
	p := &parser{input: expr}
	p.next()
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("match: unexpected %q at end of expression", p.lit)
	}
	return pred, nil
}

// Select converts a predicate into a patch-location selector. The
// selector tests one instruction at a time, so it is registered as
// shard-safe for parallel matching (predicates compiled from matcher
// expressions are pure by construction; callers passing hand-written
// predicates must keep them stateless too).
func Select(pred Predicate) func(insts []x86.Loc) []int {
	sel := func(insts []x86.Loc) []int {
		var out []int
		var v View
		for i := range insts {
			if v.Reset(&insts[i]); pred(&v) {
				out = append(out, i)
			}
		}
		return out
	}
	RegisterShardable(sel)
	return sel
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokTerm
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
)

type parser struct {
	input string
	pos   int
	tok   tokKind
	lit   string
}

func (p *parser) next() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.input) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.input[p.pos]
	switch c {
	case '&':
		p.pos++
		p.tok, p.lit = tokAnd, "&"
	case '|':
		p.pos++
		p.tok, p.lit = tokOr, "|"
	case '!':
		p.pos++
		p.tok, p.lit = tokNot, "!"
	case '(':
		p.pos++
		p.tok, p.lit = tokLParen, "("
	case ')':
		p.pos++
		p.tok, p.lit = tokRParen, ")"
	default:
		start := p.pos
		for p.pos < len(p.input) && !strings.ContainsRune(" \t&|!()", rune(p.input[p.pos])) {
			p.pos++
		}
		p.tok, p.lit = tokTerm, p.input[start:p.pos]
	}
}

func (p *parser) parseOr() (Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(v *View) bool { return l(v) || r(v) }
	}
	return left, nil
}

func (p *parser) parseAnd() (Predicate, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok == tokAnd {
			p.next()
		} else if p.tok != tokTerm && p.tok != tokNot && p.tok != tokLParen {
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(v *View) bool { return l(v) && r(v) }
	}
}

func (p *parser) parseUnary() (Predicate, error) {
	switch p.tok {
	case tokNot:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return func(v *View) bool { return !inner(v) }, nil
	case tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("match: missing ')'")
		}
		p.next()
		return inner, nil
	case tokTerm:
		lit := p.lit
		p.next()
		return compileTerm(lit)
	}
	return nil, fmt.Errorf("match: unexpected token %q", p.lit)
}

func compileTerm(lit string) (Predicate, error) {
	// Relational terms: name OP value.
	for _, op := range []string{"<=", ">=", "=", "<", ">"} {
		if i := strings.Index(lit, op); i > 0 {
			return compileRel(lit[:i], op, lit[i+len(op):])
		}
	}
	switch lit {
	case "true":
		return func(*View) bool { return true }, nil
	case "false":
		return func(*View) bool { return false }, nil
	case "jump":
		return func(v *View) bool { return v.IsJmp() }, nil
	case "jcc":
		return func(v *View) bool { return v.IsJcc() }, nil
	case "branch":
		return func(v *View) bool { return v.IsJmp() || v.IsJcc() }, nil
	case "call":
		return func(v *View) bool { return v.IsCall() }, nil
	case "ret":
		return func(v *View) bool { return v.IsRet() }, nil
	case "indirect":
		return func(v *View) bool {
			return (v.IsJmp() || v.IsCall()) && v.RelSize() == 0
		}, nil
	case "memwrite":
		return func(v *View) bool { return v.MayWriteMem() && v.Inst().WritesMem() }, nil
	case "heapwrite":
		return func(v *View) bool { return v.MayWriteMem() && v.Inst().IsHeapWrite() }, nil
	case "riprel":
		return func(v *View) bool { return v.Inst().RIPRel }, nil
	case "short":
		return func(v *View) bool { return v.Len < 5 }, nil
	}
	return nil, fmt.Errorf("match: unknown term %q", lit)
}

func compileRel(name, op, val string) (Predicate, error) {
	cmpU := func(get func(*View) uint64, want uint64) Predicate {
		switch op {
		case "=":
			return func(v *View) bool { return get(v) == want }
		case "<":
			return func(v *View) bool { return get(v) < want }
		case ">":
			return func(v *View) bool { return get(v) > want }
		case "<=":
			return func(v *View) bool { return get(v) <= want }
		default: // ">="
			return func(v *View) bool { return get(v) >= want }
		}
	}
	switch name {
	case "len":
		n, err := strconv.ParseUint(val, 0, 8)
		if err != nil {
			return nil, fmt.Errorf("match: bad length %q", val)
		}
		return cmpU(func(v *View) uint64 { return uint64(v.Len) }, n), nil
	case "addr":
		n, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("match: bad address %q", val)
		}
		return cmpU(func(v *View) uint64 { return v.Addr }, n), nil
	case "op":
		n, err := strconv.ParseUint(val, 0, 8)
		if err != nil {
			return nil, fmt.Errorf("match: bad opcode %q", val)
		}
		if op != "=" {
			return nil, fmt.Errorf("match: op only supports '='")
		}
		return func(v *View) bool { in := v.Inst(); return !in.TwoByte && uint64(in.Opcode) == n }, nil
	case "mnemonic":
		if op != "=" {
			return nil, fmt.Errorf("match: mnemonic only supports '='")
		}
		return func(v *View) bool { return v.Inst().Mnemonic() == val }, nil
	}
	return nil, fmt.Errorf("match: unknown field %q", name)
}
