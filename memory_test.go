package e9patch

import (
	"context"
	"io"
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
// allocate 18. The patcher adds one mutable copy of the text and a lock
// bit per byte (a pristine copy for redo and a lock byte per byte, kept
// twice, were 2.9 more), and Rewrite the output image, two bytes per
// text byte on this input: 11.7 in all.
//
// The streaming row is e9tool's path: RewriteTo writes the output from
// the input, the patched text and the blob as they are, so it allocates
// a whole output less than Rewrite.
func TestRewriteMemoryGate(t *testing.T) {
	if size := reflect.TypeOf(x86.Loc{}).Size(); size > 40 {
		t.Errorf("x86.Loc is %d bytes, want <= 40: it is held once per recovered instruction", size)
	}

	const textMB, budget = 2, 13 // bytes allocated per text byte
	prog, err := workload.BuildStream(2*textMB, textMB)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectMatch("jump")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: sel, SkipPrefix: workload.StreamSkipPrefix(textMB), Parallelism: 2}
	allocated := func(w io.Writer) (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RewriteTo(context.Background(), w, prog.ELF, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Total == 0 {
			t.Fatal("nothing was selected")
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	res, inMemory := allocated(nil) // Rewrite
	perByte := float64(inMemory) / float64(textMB<<20)
	t.Logf("%d instructions, %d sites: %.1f bytes allocated per text byte", res.Insts, res.Stats.Total, perByte)
	if perByte > budget {
		t.Errorf("Rewrite allocated %.1f bytes per text byte, budget %d", perByte, budget)
	}

	sres, streamed := allocated(io.Discard)
	t.Logf("RewriteTo allocated %d bytes, Rewrite %d, the output is %d", streamed, inMemory, res.OutputSize)
	if sres.Output != nil || sres.OutputSize != res.OutputSize {
		t.Errorf("RewriteTo built %d bytes of output and reports %d written, want none and %d", len(sres.Output), sres.OutputSize, res.OutputSize)
	}
	// Two runs of the same rewrite differ by a few KB (worker scheduling);
	// the output is 4.4 MB.
	const noise = 64 << 10
	if streamed+uint64(res.OutputSize) > inMemory+noise {
		t.Errorf("RewriteTo allocated %d bytes: not an output (%d bytes) less than Rewrite's %d", streamed, res.OutputSize, inMemory)
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
