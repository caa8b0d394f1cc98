package bench

import "testing"

// TestCacheShape runs the skew x fraction sweep plus the working-set
// replay at micro scale and checks structure. Matched by the CI smoke job
// (go test -run Cache). Timing ratios are informational at this scale;
// the real numbers come from `ahibench -exp cache` at small scale or above.
func TestCacheShape(t *testing.T) {
	sc := microScale
	sc.OpsPerPhase = 32_000
	res, tbl := RunCache(sc)

	want := len(cacheSkews) * len(cacheOpBatches) * len(cacheFractions)
	if len(res.Rows) != want || len(tbl.Rows) != want {
		t.Fatalf("rows=%d want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r.MeanNs <= 0 || r.MopsPerS <= 0 || r.Speedup <= 0 {
			t.Fatalf("empty cell: %+v", r)
		}
		if r.Fraction == 0 {
			if r.CacheBytes != 0 || r.HitRate != 0 {
				t.Fatalf("fraction=0 cell has cache state: %+v", r)
			}
			if r.Speedup != 1 {
				t.Fatalf("baseline cell speedup %v != 1: %+v", r.Speedup, r)
			}
			continue
		}
		if r.CacheBytes <= 0 {
			t.Fatalf("cache cell without cache bytes: %+v", r)
		}
		// The budget share may round below the nominal fraction (power-of-
		// two bucket count) but must never exceed it.
		if r.BudgetShare > r.Fraction {
			t.Fatalf("cache overshoots its budget slice: %+v", r)
		}
		if r.HitRate <= 0 {
			t.Fatalf("cache cell saw no hits: %+v", r)
		}
	}

	if len(res.ReplayRows) != 4 {
		t.Fatalf("replay rows=%d want 4", len(res.ReplayRows))
	}
	for _, r := range res.ReplayRows {
		if r.MeanNs <= 0 || r.MopsPerS <= 0 || r.Speedup <= 0 {
			t.Fatalf("empty replay cell: %+v", r)
		}
		if r.Fraction == 0 {
			if r.Speedup != 1 || r.HitRate != 0 {
				t.Fatalf("replay baseline cell has cache state: %+v", r)
			}
		} else if r.HitRate <= 0 {
			t.Fatalf("replay cache cell saw no hits: %+v", r)
		}
	}

	c := cellCache(t, res, 0.99, 1, 0.10)
	t.Logf("zipf0.99 b1 frac10%% speedup %.2f hit%% %.1f", c.Speedup, 100*c.HitRate)
}

func cellCache(t *testing.T, res CacheResult, skew float64, batch int, frac float64) CacheRow {
	t.Helper()
	for _, r := range res.Rows {
		if r.Skew == skew && r.Batch == batch && r.Fraction == frac {
			return r
		}
	}
	t.Fatalf("missing cell zipf%.2f/b%d/frac%.2f", skew, batch, frac)
	return CacheRow{}
}
