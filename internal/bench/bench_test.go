package bench

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// microScale keeps runner tests fast while still exercising every code
// path end to end.
var microScale = Scale{
	Name: "micro", OSMKeys: 20_000, UserIDs: 20_000, Emails: 10_000,
	ConsecU64: 20_000, OpsPerPhase: 60_000, Interval: 20_000, Threads: 2,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Fatalf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "bb") {
		t.Fatalf("render output wrong:\n%s", out)
	}
}

func TestFig2Shape(t *testing.T) {
	rows, tbl := RunFig2(microScale)
	if len(rows) != 10 || len(tbl.Rows) != 10 {
		t.Fatalf("rows=%d", len(rows))
	}
	// |S| must grow as eps shrinks, per k.
	for k := 0; k < 2; k++ {
		base := k * 5
		for i := 1; i < 5; i++ {
			if rows[base+i].SampleSize >= rows[base+i-1].SampleSize {
				t.Fatalf("sample size not decreasing with eps: %+v", rows[base:base+5])
			}
		}
	}
	// Sampled top-k should recover most of the true top-k mass. At micro
	// scale per-item counts are tiny (heavy noise), so the bound is loose;
	// precision must also improve as eps shrinks.
	for _, r := range rows {
		if r.SampledTop < 0.55*r.TrueTopK {
			t.Fatalf("sampled top-k too imprecise: %+v", r)
		}
		if r.SampledTop > r.TrueTopK*1.001 {
			t.Fatalf("sampled top-k exceeds true optimum: %+v", r)
		}
	}
	for k := 0; k < 2; k++ {
		base := k * 5
		if rows[base].SampledTop+0.001 < rows[base+4].SampledTop {
			t.Fatalf("precision should not degrade as eps shrinks: %+v", rows[base:base+5])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, _ := RunFig3(microScale)
	if len(rows) != 8 {
		t.Fatalf("rows=%d", len(rows))
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		key := r.Device
		if r.Compressed {
			key += "+c"
		}
		byKey[key] = r
	}
	// Compressed images must be smaller; DRAM must beat SATA.
	if byKey["DRAM+c"].Bytes >= byKey["DRAM"].Bytes {
		t.Fatal("compression did not shrink")
	}
	if byKey["DRAM"].ReadNs >= byKey["Samsung 870 SSD"].ReadNs {
		t.Fatal("device ordering violated")
	}
	// The figure's argument: compressed-in-DRAM beats uncompressed SATA IO.
	// Race instrumentation slows the measured decompression ~10x, so the
	// CPU-time assertion only holds on uninstrumented builds.
	if !raceEnabled && byKey["DRAM+c"].ReadNs >= byKey["Samsung 870 SSD"].ReadNs {
		t.Fatal("compressed DRAM should beat SATA")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive: unreliable under -short/-race/contended CPUs")
	}
	rows, _ := RunFig5(microScale)
	if len(rows) != 9 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Overhead must fall with growing skip. Compare the two densest
	// configurations against the two sparsest (averaged) with slack:
	// single-point comparisons are timer-noise roulette on shared CPUs.
	dense := (rows[0].NoFilterPct + rows[1].NoFilterPct) / 2
	sparse := (rows[len(rows)-2].NoFilterPct + rows[len(rows)-1].NoFilterPct) / 2
	if dense <= sparse+0.5 {
		t.Fatalf("sampling overhead should fall with skip: dense=%.2f%% sparse=%.2f%%", dense, sparse)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, _ := RunFig6(microScale)
	if len(rows) != 20 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.PerSample <= 0 || r.PerSample > 100_000 {
			t.Fatalf("implausible per-sample cost: %+v", r)
		}
		if r.MapBytes <= 0 {
			t.Fatal("map bytes missing")
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows, _ := RunTable1(microScale)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	byEnc := map[string]Table1Row{}
	for _, r := range rows {
		byEnc[r.Encoding] = r
	}
	if !(byEnc["succinct"].AvgBytes < byEnc["packed"].AvgBytes &&
		byEnc["packed"].AvgBytes < byEnc["gapped"].AvgBytes) {
		t.Fatalf("size ordering broken: %+v", rows)
	}
	// The paper's latency ordering (succinct slower than gapped) holds
	// when the index exceeds the last-level cache; at this micro scale all
	// three trees are cache-resident and the ordering is hardware-
	// dependent, so only sanity-bound the latencies here (EXPERIMENTS.md
	// discusses the regimes).
	for _, r := range rows {
		if r.LatencyNs <= 0 || r.LatencyNs > 100_000 {
			t.Fatalf("implausible latency: %+v", r)
		}
	}
	if byEnc["succinct"].LatencyNs > 5*byEnc["gapped"].LatencyNs {
		t.Fatalf("succinct latency out of family: %+v", rows)
	}
}

func TestFig9Shape(t *testing.T) {
	// One sweep times each cell over ~80 leaves, so a single scheduler or
	// GC pause can swap two cells. Each cell is judged once, on its median
	// over five sweeps, and each sweep starts from a collected heap so the
	// previous sweep's garbage does not trigger a collection inside this
	// one's timed windows.
	const sweeps = 5
	samples := map[string][]float64{}
	for i := 0; i < sweeps; i++ {
		runtime.GC()
		rows, _ := RunFig9(microScale)
		if len(rows) != 12 { // 6 directions x 2 sizes
			t.Fatalf("rows=%d", len(rows))
		}
		for _, r := range rows {
			if r.PerNodeNs <= 0 {
				t.Fatalf("non-positive migration cost: %+v", r)
			}
			if r.IndexSize == "large" {
				key := r.From + ">" + r.To
				samples[key] = append(samples[key], r.PerNodeNs)
			}
		}
	}
	cost := map[string]float64{}
	for key, s := range samples {
		slices.Sort(s)
		cost[key] = s[sweeps/2]
	}
	// Succinct-involving migrations re-encode the payload and must cost
	// more than the packed<->gapped memcpy pair.
	if cost["succinct>gapped"] <= cost["packed>gapped"] {
		t.Fatalf("migration cost shape off: %+v", cost)
	}
	if cost["gapped>succinct"] <= cost["gapped>packed"] {
		t.Fatalf("migration cost shape off: %+v", cost)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, _ := RunTable2(microScale)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	by := map[string]Table2Row{}
	for _, r := range rows {
		by[r.Index] = r
	}
	// ART is the largest and fastest; the succinct encodings are smaller.
	if !(by["ART"].Bytes > by["FST-sparse"].Bytes) {
		t.Fatalf("ART should dominate size: %+v", rows)
	}
	if !(by["ART"].LatencyNs < by["FST-sparse"].LatencyNs) {
		t.Fatalf("ART should be fastest: %+v", rows)
	}
}

func TestFig12Shape(t *testing.T) {
	res, _ := RunFig12(microScale)
	if len(res.Series) == 0 {
		t.Fatal("no adaptive series")
	}
	// The gapped tree is the largest; the adaptive tree must be smaller
	// than gapped and the sampling framework far smaller than the index.
	if res.FinalBytes[VariantAHI] >= res.FinalBytes[VariantGapped] {
		t.Fatalf("AHI (%d) not smaller than gapped (%d)",
			res.FinalBytes[VariantAHI], res.FinalBytes[VariantGapped])
	}
	if res.FinalBytes[VariantSuccinct] > res.FinalBytes[VariantAHI] {
		t.Fatalf("succinct should be the floor: %+v", res.FinalBytes)
	}
	if res.SamplingBytes <= 0 || res.SamplingBytes > res.FinalBytes[VariantAHI]/4 {
		t.Fatalf("sampling framework bytes implausible: %d", res.SamplingBytes)
	}
	for v, m := range res.PhaseMeans {
		for p, ns := range m {
			if ns <= 0 {
				t.Fatalf("%s phase %d latency missing", v, p)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	rows, _ := RunFig15(microScale)
	if len(rows) != 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Larger budgets => more expanded leaves and not-larger latency trend
	// (allow noise: compare the extremes).
	if rows[0].GappedFrac > rows[len(rows)-1].GappedFrac {
		t.Fatalf("gapped fraction should grow with budget: %+v", rows)
	}
	for _, r := range rows {
		if r.Bytes > r.BudgetBytes+r.BudgetBytes/10 {
			t.Fatalf("budget exceeded: %+v", r)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	rows, _ := RunFig17(microScale)
	if len(rows) != 12 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.LatencyNs <= 0 || r.Bytes <= 0 {
			t.Fatalf("empty cell: %+v", r)
		}
	}
}

func TestFig19Shape(t *testing.T) {
	rows, _ := RunFig19(microScale)
	if len(rows) != 8 {
		t.Fatalf("rows=%d", len(rows))
	}
	by := map[string]Fig19Row{}
	for _, r := range rows {
		if strings.HasPrefix(r.Workload, "point") {
			by[r.Index] = r
		}
	}
	if !(by["FST"].Bytes < by["ART"].Bytes) {
		t.Fatalf("FST should be smaller than ART: %+v", rows)
	}
	if !(by["AHI-Trie"].Bytes < by["ART"].Bytes) {
		t.Fatalf("hybrid should be smaller than ART: %+v", rows)
	}
	if !(by["ART"].LatencyNs < by["FST"].LatencyNs) {
		t.Fatalf("ART should be faster than FST: %+v", rows)
	}
}

func TestFig20Shape(t *testing.T) {
	res, _ := RunFig20(microScale)
	if len(res.Series["AHI-Trie"]) == 0 || len(res.Series["ART"]) == 0 {
		t.Fatal("series missing")
	}
	if len(res.Adaptations) == 0 {
		t.Fatal("no adaptations recorded")
	}
	if res.Expansions == 0 {
		t.Fatal("no expansions on a 95%-hot prefix workload")
	}
}

func TestTable3Renders(t *testing.T) {
	tbl := RunTable3()
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
}

func TestTable4CountsLoC(t *testing.T) {
	rows, _, err := RunTable4("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Logic <= 0 {
			t.Fatalf("zero logic LoC: %+v", r)
		}
	}
	// Adaptive variants carry tracking lines; plain ones do not.
	for _, r := range rows {
		if strings.HasPrefix(r.Index, "AHI") && r.Tracking == 0 {
			t.Fatalf("adaptive path without tracking lines: %+v", r)
		}
		if (r.Index == "ART" || r.Index == "B+-tree (plain)") && r.Tracking != 0 {
			t.Fatalf("plain path counted tracking lines: %+v", r)
		}
	}
}

func TestRegistryRunsEverythingTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run is slow")
	}
	reg := Registry("../..", false)
	if len(reg) != 27 {
		t.Fatalf("registry size %d", len(reg))
	}
	// Smoke-run the cheap experiments through the registry interface.
	var buf bytes.Buffer
	for _, id := range []string{"tbl3", "tbl4", "fig3", "fig6"} {
		if err := reg[id].Run(microScale, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("output missing")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if rows, _ := RunAblationBloom(microScale); len(rows) != 2 {
		t.Fatal("bloom ablation rows")
	}
	if rows, _ := RunAblationEagerExpand(microScale); len(rows) != 2 {
		t.Fatal("eager ablation rows")
	}
}

func TestPagingExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, _ := RunPaging(microScale)
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	by := map[string]PagingRow{}
	for _, r := range rows {
		by[r.Index] = r
	}
	if by["Succinct"].ResidentPct < 99.9 {
		t.Fatalf("succinct must fit the ceiling: %+v", by["Succinct"])
	}
	if by["Gapped"].ResidentPct > 90 {
		t.Fatalf("gapped must exceed the ceiling: %+v", by["Gapped"])
	}
	// The motivating claim: once paging is charged, gapped loses to the
	// resident variants.
	if by["Gapped"].EffectiveNs <= by["AHI-BTree"].EffectiveNs {
		t.Fatalf("paging should sink gapped: %+v vs %+v", by["Gapped"], by["AHI-BTree"])
	}
}

func TestYCSBExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: 7 workloads x 3 variants")
	}
	sc := microScale
	sc.OpsPerPhase = 40_000
	rows, _ := RunYCSB(sc)
	if len(rows) != 21 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.LatencyNs <= 0 || r.Bytes <= 0 {
			t.Fatalf("empty cell: %+v", r)
		}
	}
}

func TestAblationDecentralized(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, _ := RunAblationDecentralized(microScale)
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	// The decentralized scheme pays tracking space on every leaf; the
	// centralized one only on sampled, re-seen ones.
	if rows[0].LatencyNs <= 0 || rows[1].LatencyNs <= 0 {
		t.Fatalf("latencies missing: %+v", rows)
	}
}

func TestFig2Appendix(t *testing.T) {
	rows, _ := RunFig2Appendix(microScale)
	if len(rows) != 20 {
		t.Fatalf("rows=%d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Dist] = true
		if r.SampledTop > r.TrueTopK*1.001 {
			t.Fatalf("sampled exceeds optimum: %+v", r)
		}
	}
	if !seen["Zipfian"] || !seen["Normal"] {
		t.Fatal("distributions missing")
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: 8 alphas x 5 variants")
	}
	sc := microScale
	sc.OpsPerPhase = 30_000
	rows, _ := RunFig14(sc)
	if len(rows) != 40 {
		t.Fatalf("rows=%d", len(rows))
	}
	// At high skew the adaptive tree must be far smaller than gapped.
	var ahiB, gapB int64
	for _, r := range rows {
		if r.Alpha == 1.6 {
			switch r.Variant {
			case VariantAHI:
				ahiB = r.Bytes
			case VariantGapped:
				gapB = r.Bytes
			}
		}
	}
	if ahiB == 0 || gapB == 0 || ahiB >= gapB {
		t.Fatalf("alpha=1.6 sizes: ahi=%d gapped=%d", ahiB, gapB)
	}
}

func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, _ := RunFig16(microScale)
	if res.Expansions == 0 {
		t.Fatal("write phase expanded nothing")
	}
	if res.Compactions == 0 {
		t.Fatal("scan phase compacted nothing")
	}
	if len(res.Series[VariantAHI]) == 0 {
		t.Fatal("AHI series missing")
	}
}

func TestFig18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: thread sweep")
	}
	sc := microScale
	sc.Threads = 2
	rows, _ := RunFig18(sc)
	if len(rows) != 8 { // 2 workloads x 2 strategies x {1,2} threads
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.MopsPerS <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
	}
}
