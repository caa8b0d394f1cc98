package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ahi/internal/workload"
)

// RunTable3 renders the workload definitions of Table 3 from the
// declarative specs in internal/workload.
func RunTable3() Table {
	tbl := Table{
		Title:  "Table 3: workload definitions",
		Header: []string{"workload", "reads", "scans", "inserts", "scan len", "zipf a"},
	}
	order := []string{"W1.1", "W1.2", "W1.3", "W2", "W3", "W4", "W5.1", "W5.2", "W6.1", "W6.2"}
	distName := map[workload.DistKind]string{
		workload.DistUniform: "Uniform", workload.DistZipfian: "Zipfian",
		workload.DistNormal: "Normal", workload.DistLognormal: "Lognormal",
		workload.DistPrefixRandom: "prefix-rand.", workload.DistHotSet: "HotSet",
	}
	for _, name := range order {
		spec := workload.Specs[name]
		cell := map[workload.OpKind]string{}
		total := 0.0
		for _, m := range spec.Mix {
			total += m.Frac
		}
		for _, m := range spec.Mix {
			cell[m.Kind] = fmt.Sprintf("%.0f%% %s", 100*m.Frac/total, distName[m.Dist])
		}
		scanLen := ""
		if spec.ScanMax > 0 {
			scanLen = fmt.Sprintf("[%d,%d]", spec.ScanMin, spec.ScanMax)
		}
		zipf := ""
		if spec.ZipfAlpha > 0 {
			zipf = f1(spec.ZipfAlpha)
		}
		tbl.Rows = append(tbl.Rows, []string{
			name, cell[workload.OpRead], cell[workload.OpScan], cell[workload.OpInsert], scanLen, zipf,
		})
	}
	return tbl
}

// Table4Row is one function's LoC accounting.
type Table4Row struct {
	Index    string
	Function string
	Logic    int
	Tracking int
}

// RunTable4 reproduces Table 4: lines of code of the lookup/insert paths
// split into index logic and workload-tracking hooks, counted from this
// repository's own sources (comments, blank lines, and brace-only lines
// excluded, as in the paper). A path is the functions named for it, added
// up. Tracking is what the adaptation framework adds to a path — the
// sampler lines. The flight recorder's lines (beginOp, finishOp, stores
// into ev) count as logic: they are on the plain tree's path as much as on
// the adaptive one's, and the paper's column has no place for them.
func RunTable4(repoRoot string) ([]Table4Row, Table, error) {
	type span struct {
		index, function, file string
		fns                   []string
		trackMarkers          []string
	}
	const btreeGo = "internal/btree/btree.go"
	spans := []span{
		{"B+-tree (plain)", "Lookup", btreeGo, []string{"func (t *Tree) Lookup", "func (t *Tree) lookupLeaf", "func (t *Tree) descend", "func moveRightLeaf"}, nil},
		{"B+-tree (plain)", "Insert", btreeGo, []string{"func (t *Tree) insertTracked", "func (t *Tree) lockLeaf", "func (t *Tree) putLocked"}, nil},
		{"AHI-BTree", "Lookup", "internal/btree/adaptive.go", []string{"func (s *Session) Lookup"}, []string{"sampler", "Track"}},
		{"AHI-BTree", "Insert", "internal/btree/adaptive.go", []string{"func (s *Session) Insert"}, []string{"sampler", "Track"}},
		{"ART", "Lookup", "internal/art/art.go", []string{"func (t *Tree) Lookup"}, nil},
		{"FST", "Lookup", "internal/fst/fst.go", []string{"func (f *FST) LookupFrom"}, nil},
		{"Hybrid Trie", "Lookup", "internal/hybridtrie/hybridtrie.go", []string{"func (t *Trie) lookup"}, []string{"visit"}},
		{"AHI-Trie", "Lookup", "internal/hybridtrie/adaptive.go", []string{"func (s *Session) Lookup"}, []string{"sampler", "track"}},
	}
	var rows []Table4Row
	for _, sp := range spans {
		row := Table4Row{Index: sp.index, Function: sp.function}
		for _, fn := range sp.fns {
			logic, tracking, err := countFunctionLoC(filepath.Join(repoRoot, sp.file), fn, sp.trackMarkers)
			if err != nil {
				return nil, Table{}, fmt.Errorf("%s %s: %w", sp.index, sp.function, err)
			}
			row.Logic += logic
			row.Tracking += tracking
		}
		rows = append(rows, row)
	}
	tbl := Table{
		Title:  "Table 4: lines of code of lookup/insert paths (logic vs tracking; flight-recorder lines are logic)",
		Header: []string{"index", "function", "logic LoC", "tracking LoC"},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{r.Index, r.Function, fmt.Sprint(r.Logic), fmt.Sprint(r.Tracking)})
	}
	return rows, tbl, nil
}

// countFunctionLoC counts the non-comment, non-blank, non-brace-only lines
// of the function starting at the given signature prefix; lines containing
// any tracking marker count as tracking instead of logic.
func countFunctionLoC(path, signature string, trackMarkers []string) (logic, tracking int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	inFn := false
	depth := 0
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if !inFn {
			if strings.HasPrefix(line, signature) {
				inFn = true
				depth = strings.Count(line, "{") - strings.Count(line, "}")
			}
			continue
		}
		depth += strings.Count(line, "{") - strings.Count(line, "}")
		if depth <= 0 {
			break
		}
		if trimmed == "" || trimmed == "{" || trimmed == "}" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		isTracking := false
		for _, m := range trackMarkers {
			if strings.Contains(trimmed, m) {
				isTracking = true
				break
			}
		}
		if isTracking {
			tracking++
		} else {
			logic++
		}
	}
	if !inFn {
		return 0, 0, fmt.Errorf("function %q not found in %s", signature, path)
	}
	return logic, tracking, sc.Err()
}
