// Package verify checks a rewritten binary against the input it was
// rewritten from, with no knowledge of how the rewrite was decided: it
// reads the two files and the input's instruction universe, decodes the
// appended table with the loader codec, and asks whether the output
// keeps the paper's invariant (§2–§3) — every original instruction is
// kept, or replaced by a jump to code the table maps.
//
// It shares nothing with the patcher. It recovers the universe itself,
// with the rewriter's own decoder, so a phantom instruction that
// decoder reports passes here too. The four checks are (Report.Partial
// says which are made on a universe whose instructions overlap):
//
//   - (a) every changed text byte lies inside a patched or evicted
//     instruction;
//   - (b) every original boundary decodes to the original instruction;
//     to a jmp rel32, possibly prefixed, out of the input's segments;
//     to a jmp short onto such a jump; or to int3;
//   - (d) the table maps exactly the pages those jumps reach, and the
//     pages the trampoline code they reach runs through and jumps to;
//     no mapped byte of it lies in a page-rounded input segment, and
//     the rows merged onto one physical block are disjoint at every
//     offset;
//   - (e) every byte outside .text and the appended tail equals the
//     input's, and the pad before the tail is zero.
//
// Check (c), the trampolines' contents, is not made here.
package verify

import (
	"bytes"
	"fmt"
	"strings"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/x86"
)

// Config says how the rewrite recovered its universe, and what else it
// mapped.
type Config struct {
	// Disasm and SkipPrefix are the rewrite's recovery mode and the
	// bytes of .text it skipped; the zero value is linear recovery of
	// the whole of .text.
	Disasm     disasm.Mode
	SkipPrefix uint64
	// Images are the [lo, hi) link-address ranges of memory images the
	// rewrite injected: the table maps their pages though no patch
	// jump reaches them, and code in them is not decoded.
	Images [][2]uint64
}

// Failure is one violated check.
type Failure struct {
	// Check is 'a', 'b', 'd' or 'e'.
	Check byte
	Msg   string
}

func (f Failure) String() string { return fmt.Sprintf("(%c) %s", f.Check, f.Msg) }

// Report is the verdict on one output.
type Report struct {
	// Boundaries is the size of the input's universe; Patched how many
	// of its instructions the output replaces by a patch jump or int3.
	Boundaries, Patched int
	// Rows is the number of table rows; Reached the trampoline bytes the
	// patch jumps reach.
	Rows, Reached int
	// Partial reports a universe whose instructions overlap, as a
	// superset universe's candidates do. A patch rewrites the bytes of
	// every candidate it overlaps, which may then decode to anything,
	// a jump included, so which changed candidate is a patch cannot be
	// read off the output: checks (a) and (b), and the part of (d) that
	// follows the patch jumps, are not made, and (e) and the table's
	// own rows are checked alone.
	Partial bool
	// Failures lists the violations, at most maxPerCheck per check.
	Failures []Failure
	dropped  [4]int
}

// maxPerCheck bounds the failures a report lists per check.
const maxPerCheck = 8

// checks are the check letters in report order.
const checks = "abde"

// Failed reports whether check c failed.
func (r *Report) Failed(c byte) bool {
	for _, f := range r.Failures {
		if f.Check == c {
			return true
		}
	}
	return false
}

// Err summarises the failures as one error, nil when there are none.
func (r *Report) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d failure(s)", len(r.Failures))
	for _, f := range r.Failures {
		b.WriteString("\n  " + f.String())
	}
	for i, n := range r.dropped {
		if n > 0 {
			fmt.Fprintf(&b, "\n  (%c) ... and %d more", checks[i], n)
		}
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) fail(c byte, format string, args ...any) {
	n := 0
	for _, f := range r.Failures {
		if f.Check == c {
			n++
		}
	}
	if n >= maxPerCheck {
		r.dropped[strings.IndexByte(checks, c)]++
		return
	}
	r.Failures = append(r.Failures, Failure{c, fmt.Sprintf(format, args...)})
}

// Check verifies output as a rewrite of input. The error reports an
// input it cannot read; a wrong output is a Report with failures.
func Check(input, output []byte, cfg Config) (*Report, error) {
	f, err := elf64.Parse(input)
	if err != nil {
		return nil, fmt.Errorf("verify: input: %w", err)
	}
	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		return nil, fmt.Errorf("verify: input: %w", err)
	}
	if cfg.SkipPrefix > textSize {
		return nil, fmt.Errorf("verify: skip prefix %d exceeds .text size %d", cfg.SkipPrefix, textSize)
	}
	mode, err := disasm.ParseMode(string(cfg.Disasm))
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	text := input[textOff : textOff+textSize]
	univ, _ := disasm.Recover(mode, text[cfg.SkipPrefix:], textAddr+cfg.SkipPrefix)

	v := &verifier{
		r:        &Report{Boundaries: len(univ.Insts)},
		cfg:      cfg,
		text:     text,
		textAddr: textAddr,
		univ:     univ.Insts,
	}
	for _, p := range f.Progs {
		if p.Type == elf64.PTLoad {
			v.segs = append(v.segs, [2]uint64{p.Vaddr &^ (elf64.PageSize - 1), alignUp(p.Vaddr+p.Memsz, elf64.PageSize)})
		}
	}
	if !v.preserved(input, output, textOff) {
		return v.r, nil
	}
	v.out = output[textOff : textOff+textSize]
	v.int3s = map[uint64]bool{}
	m := v.table(output)
	for i := 1; i < len(v.univ); i++ {
		if v.univ[i-1].Addr+uint64(v.univ[i-1].Len) > v.univ[i].Addr {
			v.r.Partial = true
			return v.r, nil
		}
	}
	if m == nil {
		// With no table, no int3 patch has a dispatch entry.
		v.boundaries(nil)
		return v.r, nil
	}
	v.boundaries(m.blob.SigTab)
	v.trace(m)
	return v.r, nil
}

type verifier struct {
	r         *Report
	cfg       Config
	text, out []byte // the input's .text and the output's
	textAddr  uint64
	univ      []x86.Loc
	segs      [][2]uint64 // page-rounded PT_LOAD ranges

	// patched marks the text bytes of patched or evicted instructions.
	patched []bool
	// roots are the trampoline addresses the text's patch jumps reach;
	// int3s the addresses of int3 patches.
	roots []uint64
	int3s map[uint64]bool
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func inRanges(rs [][2]uint64, a uint64) bool {
	for _, r := range rs {
		if a >= r[0] && a < r[1] {
			return true
		}
	}
	return false
}

// preserved is check (e). It reports false when the output is too
// short to hold the input's text, so nothing else can be checked.
func (v *verifier) preserved(input, output []byte, textOff uint64) bool {
	if len(output) < len(input) {
		v.r.fail('e', "output is %d bytes, shorter than the input's %d", len(output), len(input))
		return false
	}
	textEnd := textOff + uint64(len(v.text))
	for _, span := range [][2]uint64{{0, textOff}, {textEnd, uint64(len(input))}} {
		a, b := input[span[0]:span[1]], output[span[0]:span[1]]
		if i := firstDiff(a, b); i >= 0 {
			v.r.fail('e', "file offset %#x outside .text changed: %#02x, input %#02x", span[0]+uint64(i), b[i], a[i])
		}
	}
	tail := len(output)
	if blob, ok := elf64.AppendedBlob(output); ok {
		tail = len(output) - 24 - len(blob)
	}
	if tail < len(input) {
		v.r.fail('e', "the appended tail starts at file offset %#x, inside the input's %d bytes", tail, len(input))
		return true
	}
	for i, c := range output[len(input):tail] {
		if c != 0 {
			v.r.fail('e', "file offset %#x between the input and the appended tail is %#02x, not zero", len(input)+i, c)
			break
		}
	}
	return true
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// boundaries is checks (a) and (b) over the universe, collecting the
// patch jumps' targets for (d); sigTab holds the table's int3 patches.
func (v *verifier) boundaries(sigTab map[uint64]uint64) {
	v.patched = make([]bool, len(v.text))
	for i := range v.univ {
		l := &v.univ[i]
		off := int(l.Addr - v.textAddr)
		if bytes.Equal(v.out[off:off+int(l.Len)], v.text[off:off+int(l.Len)]) {
			continue
		}
		n, t := v.patchForm(l.Addr, sigTab)
		if n == 0 {
			var inst x86.Inst
			what := "no instruction"
			if x86.DecodeInto(&inst, v.out[off:], l.Addr) == nil {
				what = fmt.Sprintf("% x", inst.Bytes)
			}
			v.r.fail('b', "boundary %#x (% x) decodes to %s: not the original, a patch jump or int3", l.Addr, l.Bytes(), what)
			continue
		}
		v.roots = append(v.roots, t)
		if n == 1 && v.out[off] == 0xCC {
			v.int3s[l.Addr] = true
		}
		v.r.Patched++
		for b := off; b < off+int(l.Len); b++ {
			v.patched[b] = true
		}
	}
	for off := range v.text {
		if v.out[off] != v.text[off] && !v.patched[off] {
			v.r.fail('a', "text byte %#x changed (%#02x, input %#02x) outside every patched instruction", v.textAddr+uint64(off), v.out[off], v.text[off])
		}
	}
}

// patchForm returns the length of the patch the output holds at addr
// and the trampoline address it reaches, a zero length when it holds
// none: a jmp rel32, possibly prefixed, out of the input's segments; a
// jmp short onto one; or an int3 that the dispatch table sigTab knows.
func (v *verifier) patchForm(addr uint64, sigTab map[uint64]uint64) (n int, target uint64) {
	off := int(addr - v.textAddr)
	if v.out[off] == 0xCC {
		t, ok := sigTab[addr]
		if !ok {
			return 0, 0
		}
		return 1, t
	}
	var inst x86.Inst
	if x86.DecodeInto(&inst, v.out[off:], addr) != nil || !inst.IsJmp() {
		return 0, 0
	}
	n = inst.Len
	if inst.RelSize == 1 {
		t := inst.Target()
		if t < v.textAddr || t-v.textAddr >= uint64(len(v.text)) {
			return 0, 0
		}
		if x86.DecodeInto(&inst, v.out[t-v.textAddr:], t) != nil || !inst.IsJmp() {
			return 0, 0
		}
	}
	if inst.RelSize != 4 || inRanges(v.segs, inst.Target()) {
		return 0, 0
	}
	return n, inst.Target()
}
