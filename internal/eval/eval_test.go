package eval

import (
	"io"
	"math"
	"strings"
	"testing"

	"e9patch/internal/workload"
)

func init() { workload.KernelIters = 1200 }

var fastOpt = Options{Scale: 1.0} // small binaries: full scale is tiny

func smallProfiles(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	var out []workload.Profile
	for _, n := range names {
		p, err := workload.ProfileByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestTable1Small(t *testing.T) {
	rows, err := Table1(fastOpt, smallProfiles(t, "mcf", "lbm", "astar"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, st := range []AppStats{r.A1, r.A2} {
			if st.Locs == 0 {
				t.Errorf("%s: no locations", r.Profile.Name)
			}
			if st.Succ < st.Base {
				t.Errorf("%s: Succ %.2f < Base %.2f", r.Profile.Name, st.Succ, st.Base)
			}
			sum := st.Base + st.T1 + st.T2 + st.T3
			if math.Abs(sum-st.Succ) > 0.01 {
				t.Errorf("%s: tactic sum %.2f != Succ %.2f", r.Profile.Name, sum, st.Succ)
			}
			if st.SizePct < 100 {
				t.Errorf("%s: output smaller than input (%.1f%%)", r.Profile.Name, st.SizePct)
			}
			if st.TimePct <= 100 {
				t.Errorf("%s: Time%% = %.1f, expected > 100", r.Profile.Name, st.TimePct)
			}
		}
	}
	var sb strings.Builder
	PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "mcf") || !strings.Contains(sb.String(), "Total/Avg%") {
		t.Error("table rendering incomplete")
	}
}

func TestTable1NonSPECRowsSkipTime(t *testing.T) {
	rows, err := Table1(fastOpt, smallProfiles(t, "evince"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].A1.TimePct != 0 {
		t.Error("non-SPEC row measured Time%")
	}
	// evince is PIE: the baseline should dominate.
	if rows[0].A1.Base < 85 {
		t.Errorf("PIE base%% = %.2f", rows[0].A1.Base)
	}
}

func TestSharedObjectGeometry(t *testing.T) {
	// Shared objects cannot use negative offsets; their baseline must
	// be well below a PIE executable of the same mix.
	shared, err := RewriteProfile(mustProfile(t, "libc.so"), A1, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pie, err := RewriteProfile(mustProfile(t, "vim"), A1, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Stats.BasePercent() >= pie.Stats.BasePercent() {
		t.Errorf("shared base %.2f >= PIE base %.2f", shared.Stats.BasePercent(), pie.Stats.BasePercent())
	}
}

// TestGamessA1NoFailedSites: gamess is the huge-.bss row (limitation
// L1), where every pun window near the text matters. Under A1 at scale
// 0.05 all of its sites patch, so no reservation the patcher makes for
// itself may take a window away from a site.
func TestGamessA1NoFailedSites(t *testing.T) {
	res, err := RewriteProfile(mustProfile(t, "gamess"), A1, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Total < 5000 || st.Failed != 0 {
		t.Errorf("%d of %d sites failed, want none of at least 5000", st.Failed, st.Total)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure4Shape(t *testing.T) {
	pts, err := Figure4(Options{Scale: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(workload.DromaeoSuites) {
		t.Fatalf("%d points", len(pts))
	}
	chromeWins := 0
	var modify, query Fig4Point
	for _, p := range pts {
		if p.Chrome > p.FireFox {
			chromeWins++
		}
		if p.Suite == "Modify" {
			modify = p
		}
		if p.Suite == "Query" {
			query = p
		}
	}
	// Chrome (less JIT dilution) must be the more sensitive browser.
	if chromeWins < len(pts)*3/4 {
		t.Errorf("Chrome more overhead in only %d/%d suites", chromeWins, len(pts))
	}
	// Write-heavy suites hurt more than read-heavy ones.
	if modify.Chrome <= query.Chrome {
		t.Errorf("Modify (%.1f) <= Query (%.1f) for Chrome", modify.Chrome, query.Chrome)
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(Options{Scale: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var specMean, chromeMean, ffMean *Fig5Row
	for i := range rows {
		r := &rows[i]
		if r.LowFat < r.Empty-1 {
			t.Errorf("%s: LowFat %.1f < empty %.1f", r.Name, r.LowFat, r.Empty)
		}
		switch r.Name {
		case "SPEC Mean":
			specMean = r
		case "Chrome Mean":
			chromeMean = r
		case "FireFox Mean":
			ffMean = r
		}
	}
	if specMean == nil || chromeMean == nil || ffMean == nil {
		t.Fatal("mean rows missing")
	}
	if ffMean.LowFat >= chromeMean.LowFat {
		t.Errorf("FireFox LowFat %.1f >= Chrome %.1f", ffMean.LowFat, chromeMean.LowFat)
	}
}

func TestAblationGroupingShape(t *testing.T) {
	// Run on a subset via a scaled-down option: patch the profile list
	// indirectly by using small scale.
	out, err := AblationGrouping(Options{Scale: 0.02}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range out {
		if g.NaiveSizePct <= g.GroupedSizePct {
			t.Errorf("%s: naive %.1f <= grouped %.1f", g.App, g.NaiveSizePct, g.GroupedSizePct)
		}
		// Grouping must cut bloat by a large factor.
		naiveBloat := g.NaiveSizePct - 100
		groupedBloat := g.GroupedSizePct - 100
		if groupedBloat <= 0 || naiveBloat/groupedBloat < 3 {
			t.Errorf("%s: bloat reduction only %.1fx (naive %.1f%%, grouped %.1f%%)",
				g.App, naiveBloat/groupedBloat, naiveBloat, groupedBloat)
		}
	}
}

func TestAblationGranularityShape(t *testing.T) {
	pts, err := AblationGranularity(Options{Scale: 0.01}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Mappings > pts[i-1].Mappings {
			t.Errorf("M=%d mappings %d > M=%d mappings %d",
				pts[i].M, pts[i].Mappings, pts[i-1].M, pts[i-1].Mappings)
		}
		if pts[i].PhysMB < pts[i-1].PhysMB-0.001 {
			t.Errorf("physical bytes decreased with coarser M")
		}
	}
	if !pts[len(pts)-1].UnderLimit {
		t.Errorf("M=64 extrapolated mappings %d still above limit",
			pts[len(pts)-1].MappingsFullScale)
	}
}

func TestAblationPIEShape(t *testing.T) {
	out, err := AblationPIE(Options{Scale: 0.02}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out {
		if c.PIEBase <= c.NativeBase {
			t.Errorf("%s/%s: PIE base %.2f <= native %.2f", c.Name, c.App, c.PIEBase, c.NativeBase)
		}
		if c.PIESucc < c.NativeSucc {
			t.Errorf("%s/%s: PIE success %.2f < native %.2f", c.Name, c.App, c.PIESucc, c.NativeSucc)
		}
	}
}

func TestAblationB0Shape(t *testing.T) {
	c, err := AblationB0(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Factor < 5 {
		t.Errorf("signal/jump factor %.1f, want orders of magnitude", c.Factor)
	}
}

func TestMotivationAccuracy(t *testing.T) {
	pts := MotivationAccuracy()
	get := func(n int) float64 {
		for _, p := range pts {
			if p.Jumps == n {
				return p.Effective
			}
		}
		t.Fatalf("missing point %d", n)
		return 0
	}
	if v := get(1000); math.Abs(v-36.77) > 0.1 {
		t.Errorf("0.999^1000 = %.2f%%, want ~36.77%%", v)
	}
	if v := get(10000); v > 0.01 {
		t.Errorf("0.999^10000 = %f%%, want ~0", v)
	}
}
