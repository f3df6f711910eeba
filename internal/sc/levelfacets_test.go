package sc_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/affine"
	"repro/internal/chromatic"
	"repro/internal/sc"
	"repro/internal/tasks"
)

// TestLevelFacetsMatchVertexScan pins the cover pass to the vertex-scan
// oracle, order included, on the complexes census solve mode indexes:
// the level-1 complexes of R_A over the standard input for three fair
// n=4 orbit representatives of the solve benchmark's windows.
func TestLevelFacetsMatchVertexScan(t *testing.T) {
	u := chromatic.NewUniverse(4)
	for _, c := range []struct {
		index  uint64
		facets int
	}{
		{13396, 2167},
		{13790, 4042},
		{16245, 3980},
	} {
		a := adversary.AdversaryAt(4, c.index)
		ra, err := affine.BuildRAForAdversary(u, a, affine.DefaultVariant)
		if err != nil {
			t.Fatal(err)
		}
		tower, err := ra.IterateWorkers(tasks.StandardInput(4), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		level := tower.LevelComplex(1)
		want := sc.FacetsByVertexScan(level)
		got := level.Facets()
		if len(got) != c.facets || len(want) != c.facets {
			t.Fatalf("index %d: %d facets, vertex scan %d, want %d", c.index, len(got), len(want), c.facets)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("index %d: Facets[%d] = %v, vertex scan %v", c.index, i, got[i], want[i])
			}
		}
	}
}
