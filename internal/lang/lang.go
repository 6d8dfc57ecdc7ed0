// Package lang implements the spec language: the compiled front-end
// that turns E9Tool-style match expressions and patch specifications
// into selectors, trampoline templates and payload injections for the
// rewriting pipeline. It is the data-file counterpart of the hardcoded
// Go selectors — syscall tracing, coverage instrumentation and CVE
// recipes become spec files instead of code changes (DESIGN.md §10).
//
// The compilation pipeline is conventional:
//
//	lexer → parser → typechecker → closure compiler
//
// Match expressions are boolean formulas over decoded instruction
// attributes:
//
//	expr   := or
//	or     := and (('|' | 'or') and)*
//	and    := unary (('&' | 'and') unary)*
//	unary  := ('!' | 'not') unary | '(' expr ')' | term
//	term   := NAME | NAME relop value
//	relop  := '=' | '==' | '!=' | '<' | '>' | '<=' | '>='
//	value  := NUMBER | NUMBER '..' NUMBER | NAME | STRING
//
// Boolean terms (true, jump, jcc, branch, call, ret, indirect,
// memwrite, heapwrite, riprel, short, mem, direct, twobyte) need no
// comparison; integer attributes (addr, len/size, op, target, imm,
// disp, width) compare against numbers or half-open ranges `lo..hi`;
// string attributes compare mnemonics exactly and `asm=` against an
// anchored regular expression over the formatter's AT&T rendering;
// register attributes (base, index) compare against register names.
// `#` starts a comment.
//
// Patch specifications name a trampoline:
//
//	patch  := 'empty' | 'counter' '=' ADDR | 'contextcall' '=' ADDR
//	        | 'lowfat' | 'lowfat-trap'
//	        | 'call' NAME '(' args ')' ('@' PAYLOAD)?
//	args   := (arg (',' arg)*)?  — at most 6 (SysV integer registers)
//	arg    := 'addr' | 'size' | 'len' | 'target' | 'imm' | 'next'
//	        | 'asm' | NUMBER
//
// Spec files combine both, one directive per line:
//
//	match EXPR        required, exactly once
//	exclude EXPR      optional, repeatable; removes matches
//	patch PATCH       optional, at most once (default: empty)
//	payload REF       optional; payload ELF reference for call patches
//
// Compiled expressions evaluate one instruction at a time with no
// internal state, so their selectors register as match.Shardable by
// construction and compose with the parallel pipeline and the
// PatchPlan IR unchanged. All parse and typecheck failures are
// classified e9err.ErrBadSpec with the 1-based line:column of the
// offending token.
package lang

import "fmt"

// Pos is a 1-based source position inside an expression or spec file.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Input-size guards. Expressions beyond these bounds are rejected as
// bad specs before any quadratic work happens; the limits are far
// above anything a hand-written recipe needs.
const (
	maxExprBytes = 64 << 10
	maxSpecBytes = 256 << 10
	maxNodes     = 4096
	maxDepth     = 200
)
