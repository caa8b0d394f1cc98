package dataset

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func assertSortedUniqueU64(t *testing.T, keys []uint64) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly increasing at %d: %d <= %d", i, keys[i], keys[i-1])
		}
	}
}

func TestOSMProperties(t *testing.T) {
	keys := OSM(50000, 1)
	if len(keys) != 50000 {
		t.Fatalf("len=%d", len(keys))
	}
	assertSortedUniqueU64(t, keys)
	// Determinism.
	again := OSM(50000, 1)
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatal("OSM not deterministic")
		}
	}
	// Different seed differs.
	other := OSM(50000, 2)
	same := 0
	for i := range keys {
		if keys[i] == other[i] {
			same++
		}
	}
	if same > len(keys)/10 {
		t.Fatalf("seeds too similar: %d identical", same)
	}
	// Clustering: median gap must be far below the mean gap.
	gaps := make([]uint64, len(keys)-1)
	var sum float64
	for i := 1; i < len(keys); i++ {
		gaps[i-1] = keys[i] - keys[i-1]
		sum += float64(gaps[i-1])
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	median := float64(gaps[len(gaps)/2])
	mean := sum / float64(len(gaps))
	if median*10 > mean {
		t.Fatalf("no clustering: median gap %.0f vs mean %.0f", median, mean)
	}
}

func TestConsecutive(t *testing.T) {
	keys := ConsecutiveU64(100, 5)
	if keys[0] != 5 || keys[99] != 104 {
		t.Fatalf("range [%d,%d]", keys[0], keys[99])
	}
	assertSortedUniqueU64(t, keys)
}

func TestUserIDs(t *testing.T) {
	keys := UserIDs(30000, 3)
	if len(keys) != 30000 {
		t.Fatalf("len=%d", len(keys))
	}
	assertSortedUniqueU64(t, keys)
}

func TestEmails(t *testing.T) {
	emails := Emails(20000, 4)
	if len(emails) != 20000 {
		t.Fatalf("len=%d", len(emails))
	}
	var total int
	for i, e := range emails {
		if i > 0 && emails[i] <= emails[i-1] {
			t.Fatalf("emails not strictly sorted at %d: %q <= %q", i, emails[i], emails[i-1])
		}
		if !strings.Contains(e, "@") {
			t.Fatalf("malformed email %q", e)
		}
		if strings.IndexByte(e, 0) >= 0 {
			t.Fatalf("email contains NUL: %q", e)
		}
		total += len(e)
	}
	avg := float64(total) / float64(len(emails))
	if avg < 15 || avg > 30 {
		t.Fatalf("average length %.1f outside plausible range around 22", avg)
	}
	// Host reversal: many emails share a leading domain prefix.
	gmail := 0
	for _, e := range emails {
		if strings.HasPrefix(e, "gmail.com@") {
			gmail++
		}
	}
	if gmail < len(emails)/100 {
		t.Fatalf("domain clustering missing: %d gmail prefixes", gmail)
	}
}

func TestYCSBKeys(t *testing.T) {
	keys := YCSBKeys(10000, 9)
	if len(keys) != 10000 {
		t.Fatalf("len=%d", len(keys))
	}
	assertSortedUniqueU64(t, keys)
}

// refDedupSorted is dedupSorted with its original top-up loop, which
// inserts each fresh key in place with an O(n) copy. It is the reference
// the current function must match key for key; toppedUp reports whether
// the top-up loop ran.
func refDedupSorted(keys []uint64, n int, rng *rand.Rand) (out []uint64, toppedUp bool) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out = keys[:0]
	var prev uint64
	for i, k := range keys {
		if i == 0 || k != prev {
			out = append(out, k)
			prev = k
		}
	}
	for len(out) < n {
		toppedUp = true
		k := rng.Uint64() >> 1
		pos := sort.Search(len(out), func(i int) bool { return out[i] >= k })
		if pos < len(out) && out[pos] == k {
			continue
		}
		out = append(out, 0)
		copy(out[pos+1:], out[pos:])
		out[pos] = k
	}
	return out[:n], toppedUp
}

// narrowSource is a rand.Source64 whose Uint64 draws, halved as
// dedupSorted halves them, fall in [0, span): top-up draws keep hitting
// keys already present, both in the sorted prefix and among earlier draws.
type narrowSource struct{ x, span uint64 }

func (s *narrowSource) Uint64() uint64 {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return (s.x >> 33) % s.span << 1
}
func (s *narrowSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *narrowSource) Seed(int64)   {}

func TestDedupSortedMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		gen    func(int, int64) []uint64
		draws  func(int, *rand.Rand) []uint64
		n      int
		seed   int64
		topsUp bool
	}{
		{"OSM", OSM, osmDraws, 20_000, 1, true},
		{"OSM", OSM, osmDraws, 200_000, 11, true},
		{"UserIDs", UserIDs, userIDDraws, 200_000, 6, true},
		{"UserIDs", UserIDs, userIDDraws, 300_000, 8, true},
		// n+n/8 uniform 64-bit draws leave no shortfall to top up.
		{"YCSBKeys", YCSBKeys, ycsbDraws, 200_000, 5, false},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		want, toppedUp := refDedupSorted(c.draws(c.n, rng), c.n, rng)
		if toppedUp != c.topsUp {
			t.Fatalf("%s(%d, %d): top-up ran = %v, want %v", c.name, c.n, c.seed, toppedUp, c.topsUp)
		}
		if got := c.gen(c.n, c.seed); !slices.Equal(got, want) {
			t.Fatalf("%s(%d, %d) differs from the reference", c.name, c.n, c.seed)
		}
	}

	// 1000 distinct keys topped up to 2000 from draws in [0, span).
	for _, span := range []uint64{2500, 4000} {
		keys := make([]uint64, 4000)
		for i := range keys {
			keys[i] = uint64(i%1000) * 3
		}
		want, toppedUp := refDedupSorted(slices.Clone(keys), 2000, rand.New(&narrowSource{x: span, span: span}))
		got := dedupSorted(keys, 2000, rand.New(&narrowSource{x: span, span: span}))
		if !toppedUp || !slices.Equal(got, want) {
			t.Fatalf("span %d: top-up ran = %v; output matches the reference = %v", span, toppedUp, slices.Equal(got, want))
		}
	}
}

func TestKeyBytesOrderPreserving(t *testing.T) {
	pairs := [][2]uint64{{0, 1}, {255, 256}, {1 << 32, 1<<32 + 1}, {1<<64 - 2, 1<<64 - 1}}
	for _, p := range pairs {
		a, b := KeyBytes(p[0]), KeyBytes(p[1])
		if string(a) >= string(b) {
			t.Fatalf("order not preserved for %d < %d", p[0], p[1])
		}
		if len(a) != 8 {
			t.Fatal("key bytes must be 8 long")
		}
	}
	if string(AppendKeyBytes(nil, 77)) != string(KeyBytes(77)) {
		t.Fatal("AppendKeyBytes mismatch")
	}
}
