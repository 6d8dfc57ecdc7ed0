package e9patch

import (
	"fmt"
	"testing"

	"e9patch/internal/group"
	"e9patch/internal/va"
	"e9patch/internal/workload"
)

// denseProfiles are the five address-space geometries of the
// patch-dense workload (bench/corpus.go), and denseTextBytes its text
// size.
var denseProfiles = []string{"gamess", "libc.so", "vim", "gcc", "tonto"}

const denseTextBytes = 100_000

// denseCase builds one patch-dense input: the profile at 100 KB of
// text with every instruction selected, under the configuration the
// evaluation rewrites that profile with.
func denseCase(tb testing.TB, profile string) ([]byte, Config) {
	tb.Helper()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, denseTextBytes/(p.SizeMB*1e6))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Select: SelectAll, ReserveVA: workload.ReserveVA()}
	if p.Kind == workload.KindShared {
		cfg.ReserveVA = append(cfg.ReserveVA, [2]uint64{va.DefaultMin, PIEBase})
	}
	return prog.ELF, cfg
}

// BenchmarkRewriteDense is the patch-dense op as a go-test benchmark:
// tactic search, trampoline emission and page grouping over every
// instruction of each geometry. Profile this path with
//
//	go test -run xxx -bench RewriteDense -cpuprofile cpu.out .
func BenchmarkRewriteDense(b *testing.B) {
	for _, profile := range denseProfiles {
		b.Run(profile, func(b *testing.B) {
			bin, cfg := denseCase(b, profile)
			b.ReportAllocs()
			b.SetBytes(denseTextBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Rewrite(bin, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Total == 0 {
					b.Fatal("nothing was selected")
				}
			}
		})
	}
}

// BenchmarkGroupBuild measures physical page grouping alone over the
// trampoline set of one dense rewrite (libc.so: the punned, scattered
// geometry), at the most aggressive granularity and at 16 pages a
// block.
func BenchmarkGroupBuild(b *testing.B) {
	bin, cfg := denseCase(b, "libc.so")
	p, err := Plan(bin, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var chunks []group.Chunk
	for _, s := range p.Sites {
		for _, tr := range s.Trampolines {
			chunks = append(chunks, group.Chunk{Addr: tr.Addr - p.Bias, Data: tr.Code})
		}
	}
	for _, gran := range []int{1, 16} {
		b.Run(fmt.Sprintf("gran=%d", gran), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := group.Build(chunks, gran)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.PhysBlocks == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
}
