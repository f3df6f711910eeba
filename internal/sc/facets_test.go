package sc

import (
	"testing"
	"testing/quick"
)

// facetsByVertexScan is the reference facet definition the cover pass
// replaced: scan every simplex in Simplices order and keep it unless
// some single-vertex extension is also a simplex. It costs simplices ×
// vertices, each probe allocating a union and its key, so it survives
// only as the oracle of Facets and IsFacet.
func facetsByVertexScan(c *Complex) []Simplex {
	ids := c.VertexIDs()
	var facets []Simplex
	for _, s := range c.Simplices() {
		isFacet := true
		for _, v := range ids {
			if s.Contains(v) {
				continue
			}
			if c.HasSimplex(s.Union(Simplex{v})) {
				isFacet = false
				break
			}
		}
		if isFacet {
			facets = append(facets, s)
		}
	}
	return facets
}

// sameFacets reports whether Facets() equals the vertex-scan oracle,
// order included, and whether IsFacet agrees with the oracle on every
// simplex of c.
func sameFacets(t *testing.T, c *Complex) bool {
	t.Helper()
	want := facetsByVertexScan(c)
	got := c.Facets()
	if len(got) != len(want) {
		t.Errorf("Facets: %d facets, vertex scan %d", len(got), len(want))
		return false
	}
	isFacet := make(map[string]bool, len(want))
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("Facets[%d] = %v, vertex scan %v", i, got[i], want[i])
			return false
		}
		isFacet[want[i].Key()] = true
	}
	for _, s := range c.Simplices() {
		if c.IsFacet(s) != isFacet[s.Key()] {
			t.Errorf("IsFacet(%v) = %v, vertex scan %v", s, c.IsFacet(s), isFacet[s.Key()])
			return false
		}
	}
	return true
}

// TestQuickFacetsMatchVertexScan pins the cover pass to the vertex-scan
// definition on random complexes, including after a mutation drops the
// cached facets.
func TestQuickFacetsMatchVertexScan(t *testing.T) {
	f := func(seed int64) bool {
		c := randComplex(seed)
		if !sameFacets(t, c) {
			return false
		}
		ids := c.VertexIDs()
		if len(ids) >= 2 {
			_ = c.AddSimplex(ids[0], ids[len(ids)-1])
		}
		return sameFacets(t, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIsFacetOutsideComplex: simplices absent from the complex, or
// given with unknown vertices, are never facets.
func TestIsFacetOutsideComplex(t *testing.T) {
	c := NewComplex(2)
	for i := 0; i < 3; i++ {
		if err := c.AddVertex(VertexID(i), i%2, "v"); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, c, 0, 1)
	for _, s := range []Simplex{NewSimplex(0, 2), NewSimplex(0, 1, 2), NewSimplex(7), nil} {
		if c.IsFacet(s) {
			t.Errorf("IsFacet(%v) = true outside the complex", s)
		}
	}
	if !c.IsFacet(NewSimplex(2)) || !c.IsFacet(NewSimplex(0, 1)) {
		t.Errorf("IsFacet misses a facet: facets %v", c.Facets())
	}
}
