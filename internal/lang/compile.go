package lang

import (
	"e9patch/internal/match"
	"e9patch/internal/x86"
)

// The compiler lowers a typechecked AST to a tree of closures with no
// per-call state, so one compiled program is safe to run from every
// matching shard concurrently. Every closure reads the single
// instruction it is handed and nothing else, which is exactly the
// contract match.RegisterShardable documents; Selector() therefore
// registers the compiled predicate shardable by construction.

// Program is a compiled match expression.
type Program struct {
	eval func(*match.View) bool
}

// evalLoc tests one instruction.
func (p *Program) evalLoc(l *x86.Loc) bool {
	var v match.View
	v.Reset(l)
	return p.eval(&v)
}

// Predicate adapts the program to the match package's predicate type.
func (p *Program) Predicate() match.Predicate { return p.eval }

// Selector compiles the program into a patch-location selector
// registered as match.Shardable.
func (p *Program) Selector() func(insts []x86.Loc) []int {
	return match.Select(p.Predicate())
}

// lower compiles one checked node.
func lower(n Node) func(*match.View) bool {
	switch n := n.(type) {
	case *Term:
		return n.fn

	case *Rel:
		return lowerRel(n)

	case *Not:
		x := lower(n.X)
		return func(i *match.View) bool { return !x(i) }

	case *And:
		x, y := lower(n.X), lower(n.Y)
		return func(i *match.View) bool { return x(i) && y(i) }

	case *Or:
		x, y := lower(n.X), lower(n.Y)
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
func compileChecked(n Node) *Program {
	return &Program{eval: lower(n)}
}

// CompileExpr parses, typechecks and compiles a match expression.
func CompileExpr(src string) (*Program, error) {
	n, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return compileChecked(n), nil
}

// compose builds the effective program for a spec: the match
// expression with every exclusion conjoined negatively
// (match && !ex1 && !ex2 ...).
func compose(m *Program, excludes []*Program) *Program {
	if len(excludes) == 0 {
		return m
	}
	eval := m.eval
	for _, ex := range excludes {
		me, xe := eval, ex.eval
		eval = func(i *match.View) bool { return me(i) && !xe(i) }
	}
	return &Program{eval: eval}
}
