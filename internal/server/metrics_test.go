package server

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"lccs/internal/obs"
)

// TestMetricFamiliesDeclaredOnce checks the family table three ways: its
// names are unique and every row is complete; a scrape of the surface
// fixture declares each family once — exactly the table's families, with
// HELP and TYPE lines byte-identical to the golden captured before
// /metrics became a loop over the table; and the table in
// docs/OBSERVABILITY.md lists the same families with the same type and
// scope, in the same order.
func TestMetricFamiliesDeclaredOnce(t *testing.T) {
	kinds := map[obs.Kind]bool{obs.Counter: true, obs.Gauge: true, obs.Histogram: true}
	seen := map[string]bool{}
	for _, f := range families {
		if seen[f.name] {
			t.Errorf("family %s is declared twice in the table", f.name)
		}
		seen[f.name] = true
		if f.help == "" || !kinds[f.kind] || f.emit == nil {
			t.Errorf("family %s: incomplete row (help %q, kind %q, emit set: %v)", f.name, f.help, f.kind, f.emit != nil)
		}
	}

	fx := newSurfaceFixture(t)
	fx.driveMix(t)
	m := scrapeMetrics(t, fx.ts)
	declared := map[string]int{}
	for _, line := range m.meta {
		if parts := strings.SplitN(line, " ", 4); parts[1] == "TYPE" {
			declared[parts[2]]++
		}
	}
	for _, f := range families {
		if declared[f.name] != 1 {
			t.Errorf("family %s: %d TYPE lines in a scrape of the full fixture, want 1", f.name, declared[f.name])
		}
		delete(declared, f.name)
	}
	for name := range declared {
		t.Errorf("scrape declares %s, which the table does not", name)
	}
	checkGolden(t, "metrics_families.golden", m.familyLines())

	// docs/OBSERVABILITY.md, "Metrics": | `name` | type | scope | ...
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `(lccs_[a-z_]+)` \\| (counter|gauge|histogram) \\| (server|collection) \\|").
		FindAllStringSubmatch(string(doc), -1)
	if len(rows) != len(families) {
		t.Fatalf("docs/OBSERVABILITY.md lists %d families, the table declares %d", len(rows), len(families))
	}
	for i, f := range families {
		// A family's scope is in its name, and the scrape must bear the
		// name out: lccs_collection_* has one series per loaded collection,
		// labelled with it, and nothing else carries that label — except
		// lccs_requests_total, on the requests that resolved to one.
		scope, labelled := "server", 0
		if strings.HasPrefix(f.name, "lccs_collection_") {
			scope = "collection"
		}
		for _, s := range m.series(f.name) {
			if _, ok := s.labels["collection"]; ok {
				labelled++
			}
		}
		if n := len(m.series(f.name)); (scope == "collection" && labelled != n) ||
			(scope == "server" && labelled != 0 && f.name != "lccs_requests_total") {
			t.Errorf("family %s (%s scope): %d of %d series carry a collection label", f.name, scope, labelled, n)
		}
		if got, want := strings.Join(rows[i][1:], " "), f.name+" "+string(f.kind)+" "+scope; got != want {
			t.Errorf("docs/OBSERVABILITY.md row %d is %q, the table has %q", i+1, got, want)
		}
	}
}
