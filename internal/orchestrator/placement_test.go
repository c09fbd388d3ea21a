package orchestrator

import "testing"

func c(host string, rack, load int) Candidate {
	return Candidate{Host: host, Rack: rack, Load: load}
}

// TestPlaceEmptyCandidates: no candidates — every host draining or
// gone — must yield "" (the migration fails cleanly), not a panic.
func TestPlaceEmptyCandidates(t *testing.T) {
	for _, p := range []LeastLoaded{{}, {PreferSameRack: true}} {
		if got := p.Place(c("src", 0, 1), nil); got != "" {
			t.Errorf("%T over empty set placed on %q, want \"\"", p, got)
		}
		if got := p.Place(c("src", 0, 1), []Candidate{}); got != "" {
			t.Errorf("%T over zero-length set placed on %q, want \"\"", p, got)
		}
	}
}

func TestPlaceLeastLoaded(t *testing.T) {
	cands := []Candidate{c("a", 0, 3), c("b", 1, 1), c("d", 1, 2)}
	if got := (LeastLoaded{}).Place(c("src", 0, 5), cands); got != "b" {
		t.Errorf("least-loaded placed on %q, want b", got)
	}
}

// TestPlaceSameRackPreference: load ties break toward the source's
// rack only when PreferSameRack is set.
func TestPlaceSameRackPreference(t *testing.T) {
	cands := []Candidate{c("a", 0, 1), c("b", 1, 1)}
	src := c("src", 1, 2)
	if got := (LeastLoaded{PreferSameRack: true}).Place(src, cands); got != "b" {
		t.Errorf("same-rack preference placed on %q, want b (rack 1)", got)
	}
	if got := (LeastLoaded{}).Place(src, cands); got != "a" {
		t.Errorf("plain least-loaded placed on %q, want a (name order)", got)
	}
	// The preference never overrides load: a lighter cross-rack host
	// still wins.
	cands = []Candidate{c("a", 0, 1), c("b", 1, 4)}
	if got := (LeastLoaded{PreferSameRack: true}).Place(src, cands); got != "a" {
		t.Errorf("same-rack preference overrode load, placed on %q, want a", got)
	}
}

// TestPlaceSingleRack: on a flat (single-rack) cluster every candidate
// shares the source's rack, so PreferSameRack must degenerate to plain
// least-loaded with name tie-breaking.
func TestPlaceSingleRack(t *testing.T) {
	cands := []Candidate{c("a", 0, 2), c("b", 0, 1), c("d", 0, 1)}
	for _, p := range []LeastLoaded{{}, {PreferSameRack: true}} {
		if got := p.Place(c("src", 0, 3), cands); got != "b" {
			t.Errorf("%+v on single rack placed on %q, want b", p, got)
		}
	}
}

// TestPlaceTieBreakDeterminism: identical load scores must always
// resolve to the same host — the lexicographically first — regardless
// of candidate order, so replayed drains hash identically.
func TestPlaceTieBreakDeterminism(t *testing.T) {
	orders := [][]Candidate{
		{c("a", 0, 1), c("b", 0, 1), c("d", 1, 1)},
		{c("d", 1, 1), c("b", 0, 1), c("a", 0, 1)},
		{c("b", 0, 1), c("d", 1, 1), c("a", 0, 1)},
	}
	for _, p := range []LeastLoaded{{}, {PreferSameRack: true}} {
		for i, cands := range orders {
			if got := p.Place(c("src", 0, 2), cands); got != "a" {
				t.Errorf("%+v order %d placed on %q, want a", p, i, got)
			}
		}
	}
	// Same-rack preference flips the tie toward rack 1 sources — but
	// still deterministically.
	for i, cands := range orders {
		if got := (LeastLoaded{PreferSameRack: true}).Place(c("src", 1, 2), cands); got != "d" {
			t.Errorf("rack-1 source order %d placed on %q, want d", i, got)
		}
	}
}
