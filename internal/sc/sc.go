// Package sc implements chromatic simplicial complexes and the
// combinatorial operations the paper relies on: closure Cl, star St, pure
// complement Pc, skeletons, facets, purity, chromatic colorings, and
// simplicial / carrier maps (Section 2 and Appendix A of the paper).
//
// A complex is stored extensionally: a set of vertices plus an
// inclusion-closed set of simplices. Vertices carry a color (the process
// identity χ) and an opaque label used by higher layers to attach
// combinatorial meaning (views, carriers, input/output values).
package sc

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/procs"
)

// VertexID identifies a vertex within a complex. Higher layers intern
// structured vertex data (e.g. (color, view) pairs) into stable IDs so
// that complexes over the same vertex universe can be compared directly.
type VertexID int32

// Vertex carries the chromatic color and a human-readable label.
type Vertex struct {
	Color int    // χ(v): the process identity, 0-based
	Label string // display label, e.g. "p2:{p1,p2}"
}

// Simplex is a canonical simplex: vertex IDs sorted ascending, no
// duplicates. The empty simplex is not stored in complexes.
type Simplex []VertexID

// NewSimplex builds a canonical simplex from the given vertices.
func NewSimplex(vs ...VertexID) Simplex {
	out := make(Simplex, len(vs))
	copy(out, vs)
	slices.Sort(out)
	// Deduplicate.
	dst := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// Dim returns the dimension |σ| - 1.
func (s Simplex) Dim() int { return len(s) - 1 }

// Key returns a canonical byte-string key for map usage.
func (s Simplex) Key() string {
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

// Contains reports whether v is a vertex of s.
func (s Simplex) Contains(v VertexID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// IsFaceOf reports whether s ⊆ t.
func (s Simplex) IsFaceOf(t Simplex) bool {
	i := 0
	for _, v := range s {
		for i < len(t) && t[i] < v {
			i++
		}
		if i >= len(t) || t[i] != v {
			return false
		}
		i++
	}
	return true
}

// Union returns the canonical union of two simplices.
func (s Simplex) Union(t Simplex) Simplex {
	return NewSimplex(append(append(Simplex{}, s...), t...)...)
}

// Intersect returns the canonical intersection of two simplices.
func (s Simplex) Intersect(t Simplex) Simplex {
	var out Simplex
	i := 0
	for _, v := range s {
		for i < len(t) && t[i] < v {
			i++
		}
		if i < len(t) && t[i] == v {
			out = append(out, v)
		}
	}
	return out
}

// Equal reports whether two canonical simplices are identical.
func (s Simplex) Equal(t Simplex) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Faces returns all non-empty faces of s (2^|s| - 1 simplices).
func (s Simplex) Faces() []Simplex {
	n := len(s)
	out := make([]Simplex, 0, (1<<uint(n))-1)
	for mask := 1; mask < 1<<uint(n); mask++ {
		f := make(Simplex, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				f = append(f, s[i])
			}
		}
		out = append(out, f)
	}
	return out
}

// Errors returned by complex mutation and validation.
var (
	ErrUnknownVertex   = errors.New("simplex references unknown vertex")
	ErrVertexConflict  = errors.New("vertex re-added with different data")
	ErrNotChromatic    = errors.New("complex is not chromatic")
	ErrEmptySimplex    = errors.New("empty simplex")
	ErrColorOutOfRange = errors.New("vertex color out of range")
)

// Complex is a finite simplicial complex over colored vertices.
// The zero value is not usable; create instances with NewComplex.
type Complex struct {
	colors    int
	verts     map[VertexID]Vertex
	simplices map[string]Simplex

	facetCache []Simplex // invalidated on mutation
}

// NewComplex creates an empty complex whose vertex colors must lie in
// [0, colors).
func NewComplex(colors int) *Complex {
	return &Complex{
		colors:    colors,
		verts:     make(map[VertexID]Vertex),
		simplices: make(map[string]Simplex),
	}
}

// Colors returns the number of colors (processes) of the complex.
func (c *Complex) Colors() int { return c.colors }

// AddVertex registers a vertex. Re-adding the same vertex with identical
// data is a no-op; conflicting data is an error.
func (c *Complex) AddVertex(id VertexID, color int, label string) error {
	if color < 0 || color >= c.colors {
		return fmt.Errorf("%w: color %d, want [0,%d)", ErrColorOutOfRange, color, c.colors)
	}
	if old, ok := c.verts[id]; ok {
		if old.Color != color || old.Label != label {
			return fmt.Errorf("%w: id %d", ErrVertexConflict, id)
		}
		return nil
	}
	c.verts[id] = Vertex{Color: color, Label: label}
	c.facetCache = nil
	// Every vertex is itself a simplex.
	s := Simplex{id}
	c.simplices[s.Key()] = s
	return nil
}

// AddSimplex adds a simplex and all its faces. All vertices must have
// been registered beforehand.
//
// Faces are probed with allocation-free keys and only materialized when
// absent, so re-adding simplices whose boundary already exists (the
// common case while the subdivision engine streams facets that share
// faces) costs no allocations beyond the canonical form itself.
func (c *Complex) AddSimplex(vs ...VertexID) error {
	if len(vs) == 0 {
		return ErrEmptySimplex
	}
	s := NewSimplex(vs...)
	for _, v := range s {
		if _, ok := c.verts[v]; !ok {
			return fmt.Errorf("%w: id %d", ErrUnknownVertex, v)
		}
	}
	n := len(s)
	var stack [64]byte
	var buf []byte
	if 4*n <= len(stack) {
		buf = stack[:0]
	} else {
		buf = make([]byte, 0, 4*n)
	}
	for _, v := range s {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	if _, ok := c.simplices[string(buf)]; ok {
		return nil
	}
	for mask := 1; mask < 1<<uint(n); mask++ {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				buf = binary.BigEndian.AppendUint32(buf, uint32(s[i]))
			}
		}
		if _, ok := c.simplices[string(buf)]; ok {
			continue
		}
		f := make(Simplex, 0, bits.OnesCount(uint(mask)))
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				f = append(f, s[i])
			}
		}
		c.simplices[string(buf)] = f
	}
	c.facetCache = nil
	return nil
}

// Has reports whether the given vertex set is a simplex of the complex.
func (c *Complex) Has(vs ...VertexID) bool {
	if len(vs) == 0 {
		return false
	}
	_, ok := c.simplices[NewSimplex(vs...).Key()]
	return ok
}

// HasSimplex reports whether the canonical simplex s belongs to c.
func (c *Complex) HasSimplex(s Simplex) bool {
	_, ok := c.simplices[s.Key()]
	return ok
}

// Vertex returns the data of a vertex.
func (c *Complex) Vertex(id VertexID) (Vertex, bool) {
	v, ok := c.verts[id]
	return v, ok
}

// VertexIDs returns all vertex IDs in ascending order.
func (c *Complex) VertexIDs() []VertexID {
	out := make([]VertexID, 0, len(c.verts))
	for id := range c.verts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumVertices returns the number of vertices.
func (c *Complex) NumVertices() int { return len(c.verts) }

// NumSimplices returns the number of (non-empty) simplices.
func (c *Complex) NumSimplices() int { return len(c.simplices) }

// Simplices returns all simplices in a deterministic order
// (by dimension, then lexicographically).
func (c *Complex) Simplices() []Simplex {
	out := make([]Simplex, 0, len(c.simplices))
	for _, s := range c.simplices {
		out = append(out, s)
	}
	sortSimplices(out)
	return out
}

// Dimension returns the dimension of the complex (-1 when empty).
func (c *Complex) Dimension() int {
	d := -1
	for _, s := range c.simplices {
		if s.Dim() > d {
			d = s.Dim()
		}
	}
	return d
}

// Facets returns the facets: simplices not strictly contained in any
// other simplex of the complex, in Simplices order (by dimension, then
// lexicographically).
//
// The simplex set is inclusion-closed, so a simplex is a non-facet
// exactly when it is a codimension-1 face of another simplex. One cover
// pass marks the codimension-1 faces of every simplex and keeps the
// unmarked ones: simplices × dimension key probes, with only the facets
// sorted.
func (c *Complex) Facets() []Simplex {
	if c.facetCache != nil {
		return c.facetCache
	}
	covered := c.codimOneFaces()
	var facets []Simplex
	for k, s := range c.simplices {
		if _, ok := covered[k]; !ok {
			facets = append(facets, s)
		}
	}
	sortSimplices(facets)
	c.facetCache = facets
	return facets
}

// codimOneFaces returns the keys of every simplex that is a
// codimension-1 face of another simplex of c. Faces are probed with
// stack-buffer keys; a key is only materialized the first time its face
// is marked.
func (c *Complex) codimOneFaces() map[string]struct{} {
	covered := make(map[string]struct{}, len(c.simplices))
	var stack [64]byte
	for _, s := range c.simplices {
		if len(s) < 2 {
			continue
		}
		buf := stack[:0]
		if 4*len(s) > len(stack) {
			buf = make([]byte, 0, 4*len(s))
		}
		for skip := range s {
			buf = buf[:0]
			for i, v := range s {
				if i != skip {
					buf = binary.BigEndian.AppendUint32(buf, uint32(v))
				}
			}
			if _, ok := covered[string(buf)]; !ok {
				covered[string(buf)] = struct{}{}
			}
		}
	}
	return covered
}

// IsFacet reports facet(σ, c): σ ∈ c and σ is not a proper face of a
// larger simplex of c — whether σ is one of Facets().
func (c *Complex) IsFacet(s Simplex) bool {
	_, found := slices.BinarySearchFunc(c.Facets(), s, compareSimplices)
	return found
}

// IsPure reports whether all facets share the complex's dimension.
func (c *Complex) IsPure() bool {
	d := c.Dimension()
	for _, f := range c.Facets() {
		if f.Dim() != d {
			return false
		}
	}
	return true
}

// ColorSet returns χ(σ) as a process set.
func (c *Complex) ColorSet(s Simplex) procs.Set {
	var out procs.Set
	for _, v := range s {
		out = out.Add(procs.ID(c.verts[v].Color))
	}
	return out
}

// IsChromatic verifies that the coloring is non-collapsing: every simplex
// has pairwise-distinct vertex colors.
func (c *Complex) IsChromatic() bool {
	for _, s := range c.simplices {
		if c.ColorSet(s).Size() != len(s) {
			return false
		}
	}
	return true
}

// Label renders a simplex using vertex labels.
func (c *Complex) Label(s Simplex) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = c.verts[v].Label
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Clone returns a deep copy of the complex.
func (c *Complex) Clone() *Complex {
	out := NewComplex(c.colors)
	for id, v := range c.verts {
		out.verts[id] = v
		s := Simplex{id}
		out.simplices[s.Key()] = s
	}
	for k, s := range c.simplices {
		out.simplices[k] = s
	}
	return out
}

// Equal reports whether two complexes have identical vertex sets (with
// identical data) and identical simplex sets.
func (c *Complex) Equal(other *Complex) bool {
	if len(c.verts) != len(other.verts) || len(c.simplices) != len(other.simplices) {
		return false
	}
	for id, v := range c.verts {
		if ov, ok := other.verts[id]; !ok || ov != v {
			return false
		}
	}
	for k := range c.simplices {
		if _, ok := other.simplices[k]; !ok {
			return false
		}
	}
	return true
}

// SubcomplexOf reports whether every simplex of c is a simplex of other.
func (c *Complex) SubcomplexOf(other *Complex) bool {
	for k := range c.simplices {
		if _, ok := other.simplices[k]; !ok {
			return false
		}
	}
	return true
}

func sortSimplices(ss []Simplex) {
	slices.SortFunc(ss, compareSimplices)
}

// compareSimplices orders simplices by dimension, then
// lexicographically.
func compareSimplices(a, b Simplex) int {
	if len(a) != len(b) {
		return cmp.Compare(len(a), len(b))
	}
	return slices.Compare(a, b)
}
