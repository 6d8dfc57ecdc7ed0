package e9patch

import (
	"reflect"
	"runtime"
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestRewriteMemoryGate is the cli-120mb memory claim at tier-1 size:
// the stream profile at 2 MB of text under the CLI's own selection
// (`-M jump`) and two workers. What a rewrite allocates per text byte is
// dominated by the recovered universe, so the budget holds only while
// that stays a compact record per instruction: an x86.Inst per
// instruction, appended shard by shard and copied, allocated 185 bytes
// per text byte here; the per-offset table and the x86.Loc universe
// allocate 18.
func TestRewriteMemoryGate(t *testing.T) {
	if size := reflect.TypeOf(x86.Loc{}).Size(); size > 40 {
		t.Errorf("x86.Loc is %d bytes, want <= 40: it is held once per recovered instruction", size)
	}

	const textMB, budget = 2, 40 // bytes allocated per text byte
	prog, err := workload.BuildStream(2*textMB, textMB)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectMatch("jump")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: sel, SkipPrefix: workload.StreamSkipPrefix(textMB), Parallelism: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Rewrite(prog.ELF, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total == 0 {
		t.Fatal("nothing was selected")
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(textMB<<20)
	t.Logf("%d instructions, %d sites: %.1f bytes allocated per text byte", res.Insts, res.Stats.Total, perByte)
	if perByte > budget {
		t.Errorf("Rewrite allocated %.1f bytes per text byte, budget %d", perByte, budget)
	}
}
