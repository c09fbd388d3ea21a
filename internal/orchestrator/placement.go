package orchestrator

// Candidate is one destination host offered to placement.
type Candidate struct {
	Host string
	// Rack is the host's rack under the two-tier fabric topology (0 on
	// a flat fabric).
	Rack int
	// Load is the orchestrator's score for the host: resident
	// registered containers plus in-flight migrations targeting it.
	Load int
}

// LeastLoaded picks the least-loaded candidate. With PreferSameRack it
// breaks load ties toward the source's rack, keeping drain traffic off
// the oversubscribed spine uplinks; remaining ties go to the
// lexicographically first host, which together with the sorted
// candidate order makes placement fully deterministic.
type LeastLoaded struct {
	PreferSameRack bool
}

// Place picks a destination for a migration off src. Candidates arrive
// in sorted host-name order and never include src or a draining host;
// the result is a deterministic function of the input (the chaos golden
// hashes replay drains byte-for-byte). "" means no feasible destination
// — the migration fails.
func (p LeastLoaded) Place(src Candidate, cands []Candidate) string {
	best := -1
	for i, c := range cands {
		if best < 0 || p.better(src, c, cands[best]) {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return cands[best].Host
}

// better reports whether a beats b for a migration off src: lower load
// first, then (optionally) same-rack, then the earlier (smaller) name —
// a strict order, so the first optimum in candidate order wins.
func (p LeastLoaded) better(src, a, b Candidate) bool {
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	if p.PreferSameRack {
		aSame, bSame := a.Rack == src.Rack, b.Rack == src.Rack
		if aSame != bSame {
			return aSame
		}
	}
	return a.Host < b.Host
}
