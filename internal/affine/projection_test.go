package affine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chromatic"
	"repro/internal/procs"
)

// closureTable is the reference restricted-ground table the facet
// projection replaced: a run over the ground belongs to the task iff
// its interned simplex is a face of the task's closure complex. It
// survives only as the oracle of MembershipTable.
func closureTable(t *Task, ground procs.Set) *chromatic.MembershipTable {
	return chromatic.NewMembershipTable(ground, func(r chromatic.Run2, _ chromatic.RunKey) bool {
		return t.ContainsSimplex(r.FacetIDs(t.u))
	})
}

// checkProjectedTables compares the projected table of every restricted
// ground of R_A(a) against the closure oracle. It reports false when
// R_A is empty (α(Π) = 0), which has no tables to compare.
func checkProjectedTables(t *testing.T, a *adversary.Adversary, variant Def9Variant) bool {
	t.Helper()
	u := chromatic.NewUniverse(a.N())
	task, err := BuildRAForAdversary(u, a, variant)
	if errors.Is(err, ErrEmptyTask) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	full := procs.FullSet(a.N())
	for _, ground := range procs.NonemptySubsets(full) {
		if ground == full {
			continue
		}
		got, want := task.MembershipTable(ground), closureTable(task, ground)
		if got.Len() != want.Len() {
			t.Fatalf("%v variant=%d ground %v: projected table accepts %d runs, closure %d",
				a, variant, ground, got.Len(), want.Len())
		}
		for rank := chromatic.RunRank(0); int(rank) < want.NumRuns(); rank++ {
			if got.Contains(rank) != want.Contains(rank) {
				t.Fatalf("%v variant=%d ground %v rank %d: projected %v, closure %v",
					a, variant, ground, rank, got.Contains(rank), want.Contains(rank))
			}
		}
	}
	return true
}

// TestProjectedTablesMatchClosure pins the facet projection to the
// closure-derived tables on every restricted ground: every adversary of
// n ≤ 3 under both Definition 9 readings, and a seeded sample of 300
// non-empty R_A over n = 4.
func TestProjectedTablesMatchClosure(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for _, variant := range []Def9Variant{VariantIntersection, VariantUnion} {
			t.Run(fmt.Sprintf("n=%d/variant=%d", n, variant), func(t *testing.T) {
				checked := 0
				adversary.EnumerateAdversaries(n, func(a *adversary.Adversary) bool {
					if checkProjectedTables(t, a, variant) {
						checked++
					}
					return true
				})
				if checked == 0 {
					t.Fatal("no non-empty R_A checked")
				}
			})
		}
	}
	t.Run("n=4/sample", func(t *testing.T) {
		const want = 300
		rng := rand.New(rand.NewSource(101))
		domain := adversary.EnumerationDomain(4)
		seen := make(map[uint64]bool)
		for checked := 0; checked < want; {
			idx := uint64(rng.Int63n(int64(adversary.CensusSize(4))))
			if seen[idx] {
				continue
			}
			seen[idx] = true
			variant := VariantUnion
			if checked%2 == 1 {
				variant = VariantIntersection
			}
			if checkProjectedTables(t, adversary.AdversaryAtIn(4, domain, idx), variant) {
				checked++
			}
		}
	})
}

// TestMembershipCallbackMatchesClosure pins the compat Membership
// callback, which now answers restricted grounds from the projected
// tables, to the closure oracle on runs of every ground.
func TestMembershipCallbackMatchesClosure(t *testing.T) {
	for _, a := range []*adversary.Adversary{
		adversary.TResilient(3, 1),
		adversary.KObstructionFree(4, 2),
	} {
		task := buildTask(t, a)
		member := task.Membership()
		for _, ground := range procs.NonemptySubsets(procs.FullSet(a.N())) {
			chromatic.ForEachRun2Keyed(ground, func(r chromatic.Run2, key chromatic.RunKey) bool {
				if got, want := member(r, key), task.ContainsSimplex(r.FacetIDs(task.u)); got != want {
					t.Fatalf("%v ground %v run %v: callback %v, closure %v", a, ground, r, got, want)
				}
				return true
			})
		}
	}
}
