package eval

import (
	"fmt"
	"io"
	"time"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/lang"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// MatchLangRow is one expression's cost in the match-language
// benchmark. HardNs is the per-instruction cost of the hardcoded Go
// selector the expression replaces (0 when there is no hardcoded
// counterpart); LangNs is the compiled spec-language program's cost.
// Slowdown is LangNs/HardNs, the abstraction tax of expressing the
// same selection in the language. Identical reports whether the two
// selectors chose exactly the same instruction indices — a false
// value is a bug, not a measurement artefact.
type MatchLangRow struct {
	Name      string
	Expr      string
	Matched   int
	HardNs    float64
	LangNs    float64
	Slowdown  float64
	Identical bool
}

// MatchLangBench is the compiled-matcher measurement recorded in
// BENCH_match.json: what the spec language costs per instruction
// relative to the hardcoded selectors it subsumes, over a realistic
// static-binary instruction stream.
type MatchLangBench struct {
	Profile string
	Insts   int
	Rows    []MatchLangRow
}

// matchLangCases pairs each benchmarked expression with the hardcoded
// selector it must reproduce (nil for language-only expressions that
// have no hand-written counterpart).
var matchLangCases = []struct {
	name, expr string
	hard       func([]x86.Loc) []int
}{
	{"A1", "jump | jcc", e9patch.SelectJumps},
	{"A1-sugar", "branch", e9patch.SelectJumps},
	{"A2", "heapwrite", e9patch.SelectHeapWrites},
	{"mixed", `jcc & short | memwrite & base!=rsp`, nil},
}

// MeasureMatchLang disassembles a profile's static binary once, checks
// each compiled expression selects exactly the same indices as its
// hardcoded counterpart, and times both (best of N) over the full
// instruction stream.
func MeasureMatchLang(opt Options, progress io.Writer) (*MatchLangBench, error) {
	opt = opt.withDefaults()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		return nil, err
	}
	prog, err := workload.BuildStatic(p, opt.Scale)
	if err != nil {
		return nil, err
	}
	f, err := elf64.Parse(prog.ELF)
	if err != nil {
		return nil, err
	}
	text, textAddr, err := f.Text()
	if err != nil {
		return nil, err
	}
	insts := disasm.Linear(text, textAddr).Insts
	if len(insts) == 0 {
		return nil, fmt.Errorf("matchlang: %s disassembled to zero instructions", p.Name)
	}

	const reps = 3
	bestNs := func(sel func([]x86.Loc) []int) float64 {
		best := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			sel(insts)
			if sec := time.Since(start).Seconds(); best == 0 || sec < best {
				best = sec
			}
		}
		return best * 1e9 / float64(len(insts))
	}

	out := &MatchLangBench{Profile: p.Name, Insts: len(insts)}
	for _, c := range matchLangCases {
		if progress != nil {
			fmt.Fprintf(progress, "# matchlang: %s %q\n", c.name, c.expr)
		}
		prg, err := lang.CompileExpr(c.expr)
		if err != nil {
			return nil, fmt.Errorf("matchlang %s: %w", c.name, err)
		}
		sel := prg.Selector()
		row := MatchLangRow{Name: c.name, Expr: c.expr, Identical: true}
		langIdx := sel(insts)
		row.Matched = len(langIdx)
		if c.hard != nil {
			hardIdx := c.hard(insts)
			if len(hardIdx) != len(langIdx) {
				row.Identical = false
			} else {
				for i := range hardIdx {
					if hardIdx[i] != langIdx[i] {
						row.Identical = false
						break
					}
				}
			}
			if !row.Identical {
				return nil, fmt.Errorf("matchlang %s: compiled %q selects %d instructions, hardcoded selector %d — selections diverge",
					c.name, c.expr, len(langIdx), len(hardIdx))
			}
			row.HardNs = bestNs(c.hard)
		}
		row.LangNs = bestNs(sel)
		if row.HardNs > 0 {
			row.Slowdown = row.LangNs / row.HardNs
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
