package bench

import "testing"

// durTestScale keeps the sweep small enough for CI: a few hundred fsyncs
// on the always row, thousands of buffered commits elsewhere.
func durTestScale() Scale {
	sc := Tiny
	sc.OpsPerPhase = 40_000
	return sc
}

func TestRunDurability(t *testing.T) {
	res, tbl := RunDurability(durTestScale())
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Policy == "off" {
			continue
		}
		if r.Replayed == 0 && !r.WarmStart {
			t.Fatalf("%s: recovery saw neither checkpoint nor log (%+v)", r.Policy, r)
		}
		if !r.WarmStart {
			t.Fatalf("%s: auto checkpoint never fired", r.Policy)
		}
	}
	// The always row must actually have fsynced on the commit path.
	for _, r := range res.Rows {
		if r.Policy == "always" && r.Fsyncs == 0 {
			t.Fatal("always policy recorded zero fsyncs")
		}
	}
	if len(res.Devices) != 4 {
		t.Fatalf("device rows: %d", len(res.Devices))
	}
	for _, d := range res.Devices {
		// Group commit must strictly amortize the modeled barrier.
		if !(d.PerRecUs[0] > d.PerRecUs[1] && d.PerRecUs[1] > d.PerRecUs[2]) {
			t.Fatalf("%s: per-record cost not monotone over group size: %v", d.Device, d.PerRecUs)
		}
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows: %d", len(tbl.Rows))
	}
}
