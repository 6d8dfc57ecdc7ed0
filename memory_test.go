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

// TestRewriteDenseAllocGate is the patch-dense allocation claim at its
// own size: every instruction of the 100 KB gcc profile selected. The
// dense path allocates per rewrite, not per site: trampoline code goes
// into a slab, outputs are sized from the selection, a reservation that
// extends a neighbour allocates nothing, and grouping keeps bitmaps for
// the merged blocks only. Before that, each site cost 9.7 objects and
// about 1 020 bytes (an Asm buffer, a relocation temporary and two
// slice growths per emitted or merely measured trampoline, a treap node
// per reservation, a bitmap per virtual block); now a rewrite allocates
// about 600 objects in all, 0.03 per site, and 400 bytes per site.
func TestRewriteDenseAllocGate(t *testing.T) {
	const maxObjects, maxBytes = 0.25, 520 // per selected site
	bin, cfg := denseCase(t, "gcc")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Rewrite(bin, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sites := float64(res.Stats.Total)
	if sites == 0 {
		t.Fatal("nothing was selected")
	}
	objects := float64(after.Mallocs-before.Mallocs) / sites
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / sites
	t.Logf("%d sites: %.3f objects and %.0f bytes allocated per site", res.Stats.Total, objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("Rewrite allocated %.3f objects and %.0f bytes per site, gate %.2f and %d", objects, bytes, maxObjects, maxBytes)
	}
}
