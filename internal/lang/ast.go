package lang

import (
	"fmt"
	"regexp"
	"strings"

	"e9patch/internal/match"
	"e9patch/internal/x86"
)

// Node is a typed match-expression AST node. Position survives
// parsing so the typechecker and compiler report file-accurate
// diagnostics.
type Node interface {
	Pos() Pos
	dump(b *strings.Builder, indent int)
}

// ValKind discriminates comparison values.
type ValKind int

const (
	// ValInt is a single integer literal.
	ValInt ValKind = iota
	// ValRange is a half-open integer range lo..hi.
	ValRange
	// ValWord is a bare identifier (mnemonic or register name).
	ValWord
	// ValQuoted is a quoted string (regex source for asm=).
	ValQuoted
)

// Value is the right-hand side of a comparison.
type Value struct {
	At   Pos
	Kind ValKind
	Int  uint64 // ValInt / ValRange low bound
	Hi   uint64 // ValRange high bound (exclusive)
	Str  string // ValWord / ValQuoted
}

func (v Value) String() string {
	switch v.Kind {
	case ValInt:
		return fmt.Sprintf("%#x", v.Int)
	case ValRange:
		return fmt.Sprintf("%#x..%#x", v.Int, v.Hi)
	case ValQuoted:
		return fmt.Sprintf("%q", v.Str)
	}
	return v.Str
}

// Term is a bare boolean attribute ("jcc", "heapwrite", ...).
type Term struct {
	At   Pos
	Name string

	fn func(*match.View) bool // bound by the typechecker
}

// Rel is an attribute comparison ("addr>=0x1000", `asm="mov.*"`).
type Rel struct {
	At   Pos
	Attr string
	Op   string // "=", "!=", "<", ">", "<=", ">="
	Val  Value

	// Typechecker annotations: exactly one accessor is set, matching
	// the attribute's kind.
	intFn func(*match.View) uint64
	strFn func(*match.View) string
	regFn func(*match.View) x86.Reg
	re    *regexp.Regexp // compiled anchored regex for asm=
	reg   x86.Reg        // resolved register for base=/index=
}

// Not negates its operand.
type Not struct {
	At Pos
	X  Node
}

// And is conjunction.
type And struct {
	At   Pos
	X, Y Node
}

// Or is disjunction.
type Or struct {
	At   Pos
	X, Y Node
}

func (n *Term) Pos() Pos { return n.At }
func (n *Rel) Pos() Pos  { return n.At }
func (n *Not) Pos() Pos  { return n.At }
func (n *And) Pos() Pos  { return n.At }
func (n *Or) Pos() Pos   { return n.At }

func pad(b *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
}

func (n *Term) dump(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "term %s :bool\n", n.Name)
}

func (n *Rel) dump(b *strings.Builder, indent int) {
	pad(b, indent)
	switch {
	case n.intFn != nil:
		fmt.Fprintf(b, "cmp %s %s %s :int\n", n.Attr, n.Op, n.Val)
	case n.re != nil:
		fmt.Fprintf(b, "cmp %s %s %s :str(regex)\n", n.Attr, n.Op, n.Val)
	case n.strFn != nil:
		fmt.Fprintf(b, "cmp %s %s %s :str\n", n.Attr, n.Op, n.Val)
	case n.regFn != nil:
		fmt.Fprintf(b, "cmp %s %s %s :reg\n", n.Attr, n.Op, n.Val)
	default:
		fmt.Fprintf(b, "cmp %s %s %s :unchecked\n", n.Attr, n.Op, n.Val)
	}
}

func (n *Not) dump(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("not :bool\n")
	n.X.dump(b, indent+1)
}

func (n *And) dump(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("and :bool\n")
	n.X.dump(b, indent+1)
	n.Y.dump(b, indent+1)
}

func (n *Or) dump(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("or :bool\n")
	n.X.dump(b, indent+1)
	n.Y.dump(b, indent+1)
}

// DumpNode renders the typed AST, one node per line, children
// indented — the e9dump -spec format.
func DumpNode(n Node) string {
	var b strings.Builder
	n.dump(&b, 0)
	return b.String()
}
