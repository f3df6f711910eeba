package affine

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
)

// TestBuildRAParallelMatchesSerial: the parallel facet filter is gated
// by byte-identity with the serial reference — same rows, same order,
// at any worker count, for both guard variants.
func TestBuildRAParallelMatchesSerial(t *testing.T) {
	n := 4
	parts := procs.EnumerateOrderedPartitions(procs.FullSet(n))
	alphas := map[string]adversary.AlphaFunc{
		"waitfree": adversary.WaitFree(n).Alpha,
		"1-res":    adversary.TResilient(n, 1).Alpha,
		"2-OF":     adversary.KObstructionFree(n, 2).Alpha,
	}
	for name, alpha := range alphas {
		for _, variant := range []Def9Variant{VariantIntersection, VariantUnion} {
			serial := buildRAFacetRows(alpha, parts, variant, 1)
			for _, workers := range []int{2, 8, 1000} {
				par := buildRAFacetRows(alpha, parts, variant, workers)
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("%s variant=%d: rows differ between 1 and %d workers", name, variant, workers)
				}
			}
		}
	}
}

// TestBuildRATaskMatchesSerialScan: BuildRA (parallel by default)
// produces exactly the task of the historical serial double loop.
func TestBuildRATaskMatchesSerialScan(t *testing.T) {
	n := 4
	u := chromatic.NewUniverse(n)
	alpha := adversary.KObstructionFree(n, 2).Alpha
	parts := procs.EnumerateOrderedPartitions(procs.FullSet(n))

	var facets []chromatic.Run2
	for _, r1 := range parts {
		pc := newR1Context(alpha, r1)
		for _, r2 := range parts {
			run := chromatic.Run2{R1: r1, R2: r2}
			if raFacetOK(pc, run, VariantUnion) {
				facets = append(facets, run)
			}
		}
	}
	want, err := NewTask("ref", u, facets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildRA(u, alpha, VariantUnion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Facets(), got.Facets()) {
		t.Fatalf("BuildRA facets differ from the serial scan (%d vs %d)", got.NumFacets(), want.NumFacets())
	}
}

// TestBuildRAFreshAdversary: BuildRA on adversaries whose setcon memo
// is cold — the parallel rows once raced on it through Alpha — equals
// the serial rows over a second fresh copy of each adversary.
func TestBuildRAFreshAdversary(t *testing.T) {
	n := 4
	u := chromatic.NewUniverse(n)
	parts := procs.EnumerateOrderedPartitions(procs.FullSet(n))
	for _, idx := range []uint64{13396, 13790, 16245} {
		got, err := BuildRAForAdversary(u, adversary.AdversaryAt(n, idx), DefaultVariant)
		if err != nil {
			t.Fatal(err)
		}
		var want []chromatic.Run2
		for _, row := range buildRAFacetRows(adversary.AdversaryAt(n, idx).Alpha, parts, DefaultVariant, 1) {
			want = append(want, row...)
		}
		if !reflect.DeepEqual(got.Facets(), want) {
			t.Fatalf("index %d: BuildRA facets differ from the serial rows (%d vs %d)", idx, got.NumFacets(), len(want))
		}
	}
}
