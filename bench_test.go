// One testing.B benchmark per table and figure of the paper (DESIGN.md §2).
// Each benchmark executes the corresponding experiment runner at a reduced
// scale and reports headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. For full tables use cmd/ahibench.
package ahi_test

import (
	"testing"

	"ahi/internal/bench"
)

// benchScale keeps each experiment's single iteration within seconds.
var benchScale = bench.Scale{
	Name: "bench", OSMKeys: 200_000, UserIDs: 200_000, Emails: 60_000,
	ConsecU64: 200_000, OpsPerPhase: 400_000, Interval: 100_000, Threads: 4,
}

func BenchmarkFig2SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig2(benchScale)
		b.ReportMetric(float64(rows[0].SampleSize), "sample-size-eps2%")
	}
}

func BenchmarkFig3StorageLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig3(benchScale)
		for _, r := range rows {
			if r.Device == "DRAM" && r.Compressed {
				b.ReportMetric(r.ReadNs, "dram-compressed-read-ns")
			}
		}
	}
}

func BenchmarkFig5SamplingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig5(benchScale)
		b.ReportMetric(rows[0].NoFilterPct, "skip0-overhead-%")
		b.ReportMetric(rows[len(rows)-1].NoFilterPct, "skip20-overhead-%")
	}
}

func BenchmarkFig6Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig6(benchScale)
		b.ReportMetric(rows[0].PerSample, "ns-per-sample")
	}
}

func BenchmarkTable1LeafEncodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunTable1(benchScale)
		for _, r := range rows {
			b.ReportMetric(r.LatencyNs, r.Encoding+"-lookup-ns")
		}
	}
}

func BenchmarkFig9MigrationCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig9(benchScale)
		for _, r := range rows {
			if r.IndexSize == "large" && r.From == "succinct" && r.To == "gapped" {
				b.ReportMetric(r.PerNodeNs, "succinct-to-gapped-ns")
			}
		}
	}
}

func BenchmarkTable2TrieEncodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunTable2(benchScale)
		for _, r := range rows {
			b.ReportMetric(r.LatencyNs, r.Index+"-lookup-ns")
		}
	}
}

func BenchmarkFig12Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := bench.RunFig12(benchScale)
		b.ReportMetric(res.PhaseMeans[bench.VariantAHI][0], "ahi-w11-ns")
		b.ReportMetric(res.PhaseMeans[bench.VariantGapped][0], "gapped-w11-ns")
		b.ReportMetric(float64(res.FinalBytes[bench.VariantAHI]), "ahi-bytes")
		b.ReportMetric(float64(res.FinalBytes[bench.VariantGapped]), "gapped-bytes")
	}
}

func BenchmarkFig13CostFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig13(benchScale)
		for _, r := range rows {
			if r.Workload == "W1.3" && r.Variant == bench.VariantAHI {
				b.ReportMetric(r.Cost, "ahi-w13-cost")
			}
		}
	}
}

func BenchmarkFig14SkewSweep(b *testing.B) {
	sc := benchScale
	sc.OpsPerPhase /= 2 // 8 alphas x 5 variants
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig14(sc)
		for _, r := range rows {
			if r.Alpha == 1.0 && r.Variant == bench.VariantAHI {
				b.ReportMetric(r.LatencyNs, "ahi-alpha1-ns")
				b.ReportMetric(float64(r.Bytes), "ahi-alpha1-bytes")
			}
		}
	}
}

func BenchmarkFig15MemoryBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig15(benchScale)
		b.ReportMetric(rows[0].LatencyNs, "min-budget-ns")
		b.ReportMetric(rows[len(rows)-1].LatencyNs, "max-budget-ns")
	}
}

func BenchmarkFig16WritePhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := bench.RunFig16(benchScale)
		b.ReportMetric(float64(res.Expansions), "expansions")
		b.ReportMetric(float64(res.Compactions), "compactions")
	}
}

func BenchmarkFig17DualStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig17(benchScale)
		for _, r := range rows {
			if r.Workload == "W4" && (r.Index == "AHI-BTree" || r.Index == "DualStage-Succinct") {
				b.ReportMetric(r.LatencyNs, r.Index+"-w4-ns")
			}
		}
	}
}

func BenchmarkFig18Concurrency(b *testing.B) {
	sc := benchScale
	sc.OpsPerPhase /= 2
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig18(sc)
		for _, r := range rows {
			if r.Threads == sc.Threads && r.Workload == "W5.2" {
				b.ReportMetric(r.MopsPerS, r.Strategy+"-mops")
			}
		}
	}
}

func BenchmarkFig19Emails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig19(benchScale)
		for _, r := range rows {
			if r.Index == "AHI-Trie" {
				b.ReportMetric(r.LatencyNs, "ahi-trie-ns")
			}
			if r.Index == "ART" {
				b.ReportMetric(float64(r.Bytes), "art-bytes")
			}
		}
	}
}

func BenchmarkFig20PrefixRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := bench.RunFig20(benchScale)
		b.ReportMetric(float64(res.Expansions), "expansions")
		b.ReportMetric(float64(len(res.Adaptations)), "adaptations")
	}
}

func BenchmarkTable4LoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RunTable4(".")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Index == "AHI-BTree" && r.Function == "Lookup" {
				b.ReportMetric(float64(r.Tracking), "tracking-loc")
			}
		}
	}
}

// Ablation benches (DESIGN.md §5).

func BenchmarkAblationBloomFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunAblationBloom(benchScale)
		b.ReportMetric(rows[0].LatencyNs, "with-filter-ns")
		b.ReportMetric(rows[1].LatencyNs, "without-filter-ns")
	}
}

func BenchmarkAblationAdaptiveSkip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunAblationAdaptiveSkip(benchScale)
		b.ReportMetric(rows[0].LatencyNs, "adaptive-ns")
	}
}

func BenchmarkAblationEagerExpand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunAblationEagerExpand(benchScale)
		b.ReportMetric(rows[0].LatencyNs, "eager-ns")
		b.ReportMetric(rows[1].LatencyNs, "in-place-ns")
	}
}

func BenchmarkAblationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunAblationHistory(benchScale)
		b.ReportMetric(rows[0].LatencyNs, "confirmed-ns")
		b.ReportMetric(rows[1].LatencyNs, "impatient-ns")
	}
}
