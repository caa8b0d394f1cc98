package bench

import "testing"

// TestScalingShape runs the procs x shards x clients sweep at micro
// scale and checks the grid is complete and every cell non-empty.
// Matched by the CI smoke job (go test -run Scaling).
func TestScalingShape(t *testing.T) {
	sc := microScale
	sc.OpsPerPhase = 32_000
	res, tbl := RunScaling(sc)

	want := len(scalingProcs) * len(scalingShards) * len(scalingClients)
	if len(res.Rows) != want || len(tbl.Rows) != want {
		t.Fatalf("rows=%d want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r.MopsPerS <= 0 || r.Speedup <= 0 {
			t.Fatalf("empty cell: %+v", r)
		}
		if r.Clients == scalingClients[0] && r.Speedup != 1 {
			t.Fatalf("clients=1 cell speedup %v != 1: %+v", r.Speedup, r)
		}
	}
	// Absolute speedup thresholds are not asserted: on a 1-core host the
	// client axis cannot add parallelism.
}
