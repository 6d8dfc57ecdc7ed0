package lang

import (
	"fmt"
	"strings"

	"e9patch/internal/match"
	"e9patch/internal/x86"
)

// The compiler lowers a typechecked AST to a tree of closures (the
// evaluator — no per-call state, so one compiled program is safe to
// run from every matching shard concurrently) plus a flat postfix op
// listing used by the shardability audit and e9dump. Every op is pure:
// it reads the single instruction it is handed and nothing else, which
// is exactly the contract match.RegisterShardable documents. Selector()
// therefore registers the compiled predicate shardable by construction.

// opInfo is one postfix op in the compiled program's listing.
type opInfo struct {
	name string // e.g. "term jcc", "cmp addr >= 0x1000", "and"
	pure bool   // reads only the instruction under test
}

// Program is a compiled match expression.
type Program struct {
	src  string
	eval func(*match.View) bool
	ops  []opInfo
}

// Src returns the source text the program was compiled from.
func (p *Program) Src() string { return p.src }

// Eval tests one instruction.
func (p *Program) Eval(l *x86.Loc) bool {
	var v match.View
	v.Reset(l)
	return p.eval(&v)
}

// Predicate adapts the program to the match package's predicate type.
func (p *Program) Predicate() match.Predicate { return p.eval }

// Selector compiles the program into a patch-location selector
// registered as match.Shardable (every op is pure, audited by
// ShardSafe).
func (p *Program) Selector() func(insts []x86.Loc) []int {
	return match.Select(p.Predicate())
}

// ShardSafe audits the compiled ops: a program may shard exactly when
// every op is pure. Compiled programs always are — the audit exists so
// e9dump can *show* the property rather than assert it.
func (p *Program) ShardSafe() bool {
	for _, op := range p.ops {
		if !op.pure {
			return false
		}
	}
	return true
}

// Ops returns the postfix op listing, one string per op.
func (p *Program) Ops() []string {
	out := make([]string, len(p.ops))
	for i, op := range p.ops {
		out[i] = op.name
	}
	return out
}

// Disasm renders the op listing for debugging.
func (p *Program) Disasm() string {
	var b strings.Builder
	for i, op := range p.ops {
		fmt.Fprintf(&b, "%3d  %s\n", i, op.name)
	}
	return b.String()
}

// lower compiles one checked node, appending its postfix ops.
func lower(n Node, ops *[]opInfo) func(*match.View) bool {
	switch n := n.(type) {
	case *Term:
		fn := n.fn
		*ops = append(*ops, opInfo{name: "term " + n.Name, pure: true})
		return fn

	case *Rel:
		ev := lowerRel(n)
		*ops = append(*ops, opInfo{
			name: fmt.Sprintf("cmp %s %s %s", n.Attr, n.Op, n.Val),
			pure: true,
		})
		return ev

	case *Not:
		x := lower(n.X, ops)
		*ops = append(*ops, opInfo{name: "not", pure: true})
		return func(i *match.View) bool { return !x(i) }

	case *And:
		x := lower(n.X, ops)
		y := lower(n.Y, ops)
		*ops = append(*ops, opInfo{name: "and", pure: true})
		return func(i *match.View) bool { return x(i) && y(i) }

	case *Or:
		x := lower(n.X, ops)
		y := lower(n.Y, ops)
		*ops = append(*ops, opInfo{name: "or", pure: true})
		return func(i *match.View) bool { return x(i) || y(i) }
	}
	panic("lang: lower: unchecked node")
}

func lowerRel(n *Rel) func(*match.View) bool {
	switch {
	case n.intFn != nil:
		fn := n.intFn
		if n.Val.Kind == ValRange {
			lo, hi := n.Val.Int, n.Val.Hi
			in := func(i *match.View) bool { v := fn(i); return lo <= v && v < hi }
			if n.Op == "!=" {
				return func(i *match.View) bool { return !in(i) }
			}
			return in
		}
		v := n.Val.Int
		switch n.Op {
		case "=":
			return func(i *match.View) bool { return fn(i) == v }
		case "!=":
			return func(i *match.View) bool { return fn(i) != v }
		case "<":
			return func(i *match.View) bool { return fn(i) < v }
		case ">":
			return func(i *match.View) bool { return fn(i) > v }
		case "<=":
			return func(i *match.View) bool { return fn(i) <= v }
		case ">=":
			return func(i *match.View) bool { return fn(i) >= v }
		}

	case n.re != nil:
		fn, re := n.strFn, n.re
		if n.Op == "!=" {
			return func(i *match.View) bool { return !re.MatchString(fn(i)) }
		}
		return func(i *match.View) bool { return re.MatchString(fn(i)) }

	case n.strFn != nil:
		fn, s := n.strFn, n.Val.Str
		if n.Op == "!=" {
			return func(i *match.View) bool { return fn(i) != s }
		}
		return func(i *match.View) bool { return fn(i) == s }

	case n.regFn != nil:
		fn, r := n.regFn, n.reg
		if n.Op == "!=" {
			return func(i *match.View) bool { return fn(i) != r }
		}
		return func(i *match.View) bool { return fn(i) == r }
	}
	panic("lang: lowerRel: unchecked comparison")
}

// compileChecked lowers an already-typechecked AST.
func compileChecked(n Node, src string) *Program {
	var ops []opInfo
	eval := lower(n, &ops)
	return &Program{src: src, eval: eval, ops: ops}
}

// CompileExpr parses, typechecks and compiles a match expression.
func CompileExpr(src string) (*Program, error) {
	n, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return compileChecked(n, src), nil
}

// compose builds the effective program for a spec: the match
// expression with every exclusion conjoined negatively
// (match && !ex1 && !ex2 ...).
func compose(m *Program, excludes []*Program) *Program {
	if len(excludes) == 0 {
		return m
	}
	eval := m.eval
	ops := append([]opInfo(nil), m.ops...)
	src := m.src
	for _, ex := range excludes {
		me, xe := eval, ex.eval
		eval = func(i *match.View) bool { return me(i) && !xe(i) }
		ops = append(ops, ex.ops...)
		ops = append(ops, opInfo{name: "not", pure: true}, opInfo{name: "and", pure: true})
		src = fmt.Sprintf("(%s) & !(%s)", src, ex.src)
	}
	return &Program{src: src, eval: eval, ops: ops}
}
