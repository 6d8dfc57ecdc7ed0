package lang

import "e9patch/internal/e9err"

// parser is a recursive-descent parser with hard bounds on input
// size, node count and nesting depth so hostile expressions (fuzzing,
// the network API) cannot exhaust memory or the goroutine stack.
type parser struct {
	lx    *lexer
	tok   token
	nodes int
	depth int
}

func newParser(src string, base Pos, phase string) (*parser, error) {
	if len(src) > maxExprBytes {
		return nil, e9err.BadSpec(phase, base.Line, base.Col,
			"expression too large (%d bytes, limit %d)", len(src), maxExprBytes)
	}
	p := &parser{lx: newLexer(src, base, phase)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) errf(pos Pos, format string, args ...any) error {
	return p.lx.errf(pos, format, args...)
}

func (p *parser) countNode() error {
	p.nodes++
	if p.nodes > maxNodes {
		return p.errf(p.tok.pos, "expression too complex (more than %d terms)", maxNodes)
	}
	return nil
}

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errf(p.tok.pos, "expression nested too deeply (limit %d)", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// parseExprString parses and typechecks a complete expression,
// requiring the whole input to be consumed.
func parseExprString(src string, base Pos, phase string) (Node, error) {
	p, err := newParser(src, base, phase)
	if err != nil {
		return nil, err
	}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errf(p.tok.pos, "unexpected %s %q after expression", p.tok.kind, p.tok.text)
	}
	if err := check(n, phase); err != nil {
		return nil, err
	}
	return n, nil
}

// ParseExpr parses and typechecks a match expression into a typed
// AST. Most callers want CompileExpr; ParseExpr is the inspection
// entry point (e9dump -spec).
func ParseExpr(src string) (Node, error) {
	return parseExprString(src, Pos{Line: 1, Col: 1}, "match")
}

func (p *parser) parseOr() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tOr {
		at := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if err := p.countNode(); err != nil {
			return nil, err
		}
		x = &Or{At: at, X: x, Y: y}
	}
	return x, nil
}

// startsUnary reports whether the current token can begin a unary
// operand: adjacency is conjunction ("jcc short" ≡ "jcc & short"), for
// spec-file brevity.
func (p *parser) startsUnary() bool {
	switch p.tok.kind {
	case tNot, tLParen, tIdent:
		return true
	}
	return false
}

func (p *parser) parseAnd() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tAnd || p.startsUnary() {
		at := p.tok.pos
		if p.tok.kind == tAnd {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if err := p.countNode(); err != nil {
			return nil, err
		}
		x = &And{At: at, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.tok.kind {
	case tNot:
		at := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if err := p.countNode(); err != nil {
			return nil, err
		}
		return &Not{At: at, X: x}, nil

	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, p.errf(p.tok.pos, "expected ')', got %s", p.tok.kind)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return x, nil

	case tIdent:
		return p.parseTerm()
	}
	return nil, p.errf(p.tok.pos, "expected a term, got %s", p.tok.kind)
}

func relOpText(k tokKind) (string, bool) {
	switch k {
	case tEq:
		return "=", true
	case tNe:
		return "!=", true
	case tLt:
		return "<", true
	case tGt:
		return ">", true
	case tLe:
		return "<=", true
	case tGe:
		return ">=", true
	}
	return "", false
}

func (p *parser) parseTerm() (Node, error) {
	name := p.tok
	if err := p.advance(); err != nil {
		return nil, err
	}
	op, isRel := relOpText(p.tok.kind)
	if !isRel {
		if err := p.countNode(); err != nil {
			return nil, err
		}
		return &Term{At: name.pos, Name: name.text}, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	val, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	if err := p.countNode(); err != nil {
		return nil, err
	}
	return &Rel{At: name.pos, Attr: name.text, Op: op, Val: val}, nil
}

func (p *parser) parseValue() (Value, error) {
	at := p.tok.pos
	switch p.tok.kind {
	case tNumber:
		lo := p.tok.num
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		if p.tok.kind != tDotDot {
			return Value{At: at, Kind: ValInt, Int: lo}, nil
		}
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		if p.tok.kind != tNumber {
			return Value{}, p.errf(p.tok.pos, "expected range upper bound, got %s", p.tok.kind)
		}
		hi := p.tok.num
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		if hi <= lo {
			return Value{}, p.errf(at, "empty range %#x..%#x (upper bound is exclusive)", lo, hi)
		}
		return Value{At: at, Kind: ValRange, Int: lo, Hi: hi}, nil

	case tIdent:
		v := Value{At: at, Kind: ValWord, Str: p.tok.text}
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		return v, nil

	case tString:
		v := Value{At: at, Kind: ValQuoted, Str: p.tok.text}
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		return v, nil
	}
	return Value{}, p.errf(at, "expected a number, name or string after the operator, got %s", p.tok.kind)
}
