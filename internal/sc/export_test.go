package sc

// FacetsByVertexScan exposes the vertex-scan facet oracle to the
// external tests that build complexes through higher layers.
var FacetsByVertexScan = facetsByVertexScan
