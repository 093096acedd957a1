package main

// Correctness checks. None of them compares against a recording of the
// program's own earlier output: matchings are checked for structure and
// against an optimum the benchmark computes itself by exhaustive dynamic
// programming, served answers against an in-process decode and that same
// kind of optimum, and closed streams against a whole-shot exact decode.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/exactmatch"
	"astrea/internal/server"
	"astrea/internal/stream"
)

// maxDPNodes is the most nodes one exhaustive DP takes (one bit each in a
// uint64 set), and maxDPStates the most memoised sets it may reach.
const (
	maxDPNodes  = 64
	maxDPStates = 1 << 18
)

// noEdge marks an absent pair in a DP weight matrix.
const noEdge = -1

// noOptimum marks a syndrome whose optimum the DP could not afford, and
// noMatching a parity no matching has.
const (
	noOptimum  = -1
	noMatching = math.MaxInt64 / 4
)

// chainBase is the fixed-point base weight of the chain between flagged
// detectors i and j, or of i's boundary chain when j is decoder.Boundary.
// ok is false when no direct chain exists.
func chainBase(gwt *decodegraph.GWT, i, j int) (base int64, ok bool) {
	w := gwt.BoundaryWeight(i)
	if j != decoder.Boundary {
		w = gwt.DirectWeight(i, j)
	}
	if math.IsInf(w, 0) || math.IsNaN(w) {
		return 0, false
	}
	return exactmatch.Base(w), true
}

// optimumBase returns the minimum base weight of a matching of the flagged
// detectors in which each detector pairs with one other detector through
// their direct chain or goes alone to the boundary, separately for each
// parity of the matching's logical observable (bit 0 of the chains'
// observable masks): opt[p] is the best weight of a matching whose
// observable parity is p, or noMatching. A direct pair dearer than its two
// boundary chains is never in an optimal matching, so the detectors split
// into components joined by pairs no dearer than that, and each component
// gets its own exhaustive DP over subsets. Both entries are noOptimum when
// a component is beyond the DP's budget.
func optimumBase(gwt *decodegraph.GWT, flagged []int) (opt [2]int64) {
	fail := [2]int64{noOptimum, noOptimum}
	n := len(flagged)
	bnd := make([]int64, n)
	for a, i := range flagged {
		b, ok := chainBase(gwt, i, decoder.Boundary)
		if !ok {
			return fail
		}
		bnd[a] = b
	}
	pair := func(a, b int) (int64, bool) {
		w, ok := chainBase(gwt, flagged[a], flagged[b])
		if !ok || w > bnd[a]+bnd[b] {
			return 0, false
		}
		return w, true
	}
	// Union-find over useful pairs.
	root := make([]int, n)
	for a := range root {
		root[a] = a
	}
	find := func(a int) int {
		for root[a] != a {
			root[a] = root[root[a]]
			a = root[a]
		}
		return a
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if _, ok := pair(a, b); ok {
				root[find(a)] = find(b)
			}
		}
	}
	comps := map[int][]int{}
	for a := 0; a < n; a++ {
		r := find(a)
		comps[r] = append(comps[r], a)
	}
	opt = [2]int64{0, noMatching}
	for _, members := range comps {
		m := len(members)
		if m > maxDPNodes {
			return fail
		}
		g := dpGraph{m: m, single: make([]int64, m), singlePar: make([]uint8, m),
			pair: make([]int64, m*m), pairPar: make([]uint8, m*m)}
		for x, a := range members {
			i := flagged[a]
			g.single[x] = bnd[a]
			g.singlePar[x] = uint8(gwt.Obs(i, i) & 1)
			for y, b := range members {
				g.pair[x*m+y] = noEdge
				if w, ok := pair(min(a, b), max(a, b)); ok && a != b {
					j := flagged[b]
					g.pair[x*m+y] = w
					g.pairPar[x*m+y] = uint8(gwt.DirectObs(min(i, j), max(i, j)) & 1)
				}
			}
		}
		c := g.solve()
		if c[0] == noOptimum {
			return fail
		}
		// A matching's parity is the XOR of its components' parities.
		var next [2]int64
		for p := range next {
			next[p] = noMatching
			for q := range c {
				if opt[p^q] < noMatching && c[q] < noMatching {
					next[p] = min(next[p], opt[p^q]+c[q])
				}
			}
		}
		opt = next
	}
	return opt
}

// best is the optimum over both parities.
func best(opt [2]int64) int64 {
	if opt[0] == noOptimum {
		return noOptimum
	}
	return min(opt[0], opt[1])
}

// dpGraph is one exhaustive DP's input: m ≤ 64 nodes, each either alone at
// single[x] or paired with y at pair[x*m+y] (noEdge where absent), with the
// observable parity each choice contributes (nil: all even). A nil single
// forbids lone nodes, making it a minimum-weight perfect matching.
type dpGraph struct {
	m                  int
	single, pair       []int64
	singlePar, pairPar []uint8
}

// solve returns the minimum weight of a matching of all m nodes for each
// observable parity (noMatching where none has it). The optimum over a set
// of nodes matches its lowest node every possible way and recurses on the
// rest; optima are memoised per remaining set. Both entries are noOptimum
// when more than maxDPStates sets are reached.
func (g *dpGraph) solve() [2]int64 {
	m := g.m
	nbr := make([]uint64, m) // bitmask of each node's possible partners
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			if g.pair[x*m+y] != noEdge {
				nbr[x] |= 1 << y
			}
		}
	}
	parity := func(p []uint8, k int) int {
		if p == nil {
			return 0
		}
		return int(p[k])
	}
	over := false
	memo := map[uint64][2]int64{0: {0, noMatching}}
	var rec func(mask uint64) [2]int64
	rec = func(mask uint64) [2]int64 {
		if v, ok := memo[mask]; ok {
			return v
		}
		if over || len(memo) >= maxDPStates {
			over = true
			return [2]int64{noMatching, noMatching}
		}
		x := bits.TrailingZeros64(mask)
		rest := mask &^ (1 << x)
		out := [2]int64{noMatching, noMatching}
		take := func(w int64, p int, sub [2]int64) {
			for q := range sub {
				if sub[q] < noMatching {
					out[p^q] = min(out[p^q], w+sub[q])
				}
			}
		}
		if g.single != nil {
			take(g.single[x], parity(g.singlePar, x), rec(rest))
		}
		for r := rest & nbr[x]; r != 0; r &= r - 1 {
			y := bits.TrailingZeros64(r)
			take(g.pair[x*m+y], parity(g.pairPar, x*m+y), rec(rest&^(1<<y)))
		}
		memo[mask] = out
		return out
	}
	full := uint64(1)<<m - 1
	if m == 64 {
		full = math.MaxUint64
	}
	v := rec(full)
	if over {
		return [2]int64{noOptimum, noOptimum}
	}
	return v
}

// optimumQ returns Astrea's objective optimum: the minimum total quantised
// GWT weight over perfect matchings of the flagged detectors, an odd count
// completed by one virtual boundary node reached at Q(i, i).
func optimumQ(gwt *decodegraph.GWT, flagged []int) int64 {
	n := len(flagged)
	m := n + n%2
	if n == 0 {
		return 0
	}
	if m > maxDPNodes {
		return noOptimum
	}
	w := make([]int64, m*m)
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			switch {
			case x == y:
				w[x*m+y] = noEdge
			case x == n: // the virtual boundary node
				w[x*m+y] = int64(gwt.Q(flagged[y], flagged[y]))
			case y == n:
				w[x*m+y] = int64(gwt.Q(flagged[x], flagged[x]))
			default:
				w[x*m+y] = int64(gwt.Q(flagged[x], flagged[y]))
			}
		}
	}
	g := dpGraph{m: m, pair: w}
	return best(g.solve())
}

// matchChecker checks exact decodes over one GWT. Its per-detector marks
// are reused across calls, so a check allocates nothing.
type matchChecker struct {
	gwt  *decodegraph.GWT
	mark []uint32 // gen: flagged and unmatched; gen+1: matched
	gen  uint32
}

func newMatchChecker(gwt *decodegraph.GWT) *matchChecker {
	return &matchChecker{gwt: gwt, mark: make([]uint32, gwt.N)}
}

// check checks one exact decode of the flagged detectors: every flagged
// detector appears in exactly one pair and no other detector appears; the
// predicted observable flip is the parity of the matched chains; and, where
// wantBase is known, the matching's base weight is the exhaustive optimum.
func (m *matchChecker) check(flagged []int, r decoder.Result, wantBase int64) error {
	m.gen += 2
	if m.gen < 2 { // wrapped: clear the stale marks
		clear(m.mark)
		m.gen = 2
	}
	unmatched, matched := m.gen, m.gen+1
	for _, i := range flagged {
		m.mark[i] = unmatched
	}
	gwt := m.gwt
	var base int64
	var obs uint64
	for _, p := range r.Pairs {
		i, j := p[0], p[1]
		if i == decoder.Boundary {
			i, j = j, i
		}
		if i == j || i == decoder.Boundary {
			return fmt.Errorf("malformed pair %v", p)
		}
		for _, x := range [2]int{i, j} {
			switch {
			case x == decoder.Boundary:
			case x < 0 || x >= gwt.N || m.mark[x] < unmatched:
				return fmt.Errorf("pair %v matches unflagged detector %d", p, x)
			case m.mark[x] == matched:
				return fmt.Errorf("detector %d appears in more than one pair", x)
			default:
				m.mark[x] = matched
			}
		}
		w, ok := chainBase(gwt, i, j)
		if !ok {
			return fmt.Errorf("pair %v has no chain", p)
		}
		base += w
		if j == decoder.Boundary {
			obs ^= gwt.Obs(i, i)
		} else {
			obs ^= gwt.DirectObs(i, j)
		}
	}
	for _, i := range flagged {
		if m.mark[i] != matched {
			return fmt.Errorf("flagged detector %d is unmatched", i)
		}
	}
	if obs != r.ObsPrediction {
		return fmt.Errorf("observable prediction %#x, matched chains give %#x", r.ObsPrediction, obs)
	}
	if wantBase != noOptimum && base != wantBase {
		return fmt.Errorf("base weight %d, exhaustive optimum %d", base, wantBase)
	}
	return nil
}

// served is the expected answer to one served request: the in-process
// decode of the same syndrome, and the exhaustive optimum over GWT.Q.
type served struct {
	obs         uint64
	weightMilli uint64
	skipped     bool
	optimumQ    int64
}

// checkServed checks one answer against its expectation. rttNs is the
// client's round trip for the request.
func checkServed(r server.Response, want served, rttNs int64) error {
	switch {
	case r.Rejected:
		return errors.New("rejected")
	case r.Err != "":
		return fmt.Errorf("error frame: %s", r.Err)
	case r.ObsMask != want.obs || r.WeightMilli != want.weightMilli || r.Skipped != want.skipped:
		return fmt.Errorf("answer (obs %#x, weight %d, skipped %v), in-process decode (obs %#x, weight %d, skipped %v)",
			r.ObsMask, r.WeightMilli, r.Skipped, want.obs, want.weightMilli, want.skipped)
	case !r.Skipped && want.optimumQ != noOptimum && r.WeightMilli != uint64(want.optimumQ)*1000:
		return fmt.Errorf("quantised weight %d milli, exhaustive optimum %d", r.WeightMilli, want.optimumQ)
	case int64(r.SojournNs) > rttNs:
		return fmt.Errorf("server sojourn %d ns exceeds the client round trip %d ns", r.SojournNs, rttNs)
	}
	return nil
}

// ledger tracks one connection's requests for a phase: which were sent and
// which answered. Its checks need no record of earlier runs: every request
// sent is answered exactly once, so sent = results + rejects + errors.
type ledger struct {
	first    uint64
	answered []bool
	res      *result
}

// answer files the answer carrying seq and reports the request's index, or
// false after recording an answer for an unknown or already answered seq.
func (l *ledger) answer(seq uint64) (int, bool) {
	i := seq - l.first
	switch {
	case seq < l.first || i >= uint64(len(l.answered)):
		l.res.fail(fmt.Sprintf("answer for unknown seq %d", seq))
		return 0, false
	case l.answered[i]:
		l.res.fail(fmt.Sprintf("seq %d answered twice", seq))
		return 0, false
	}
	l.answered[i] = true
	return int(i), true
}

// close counts every request sent, failing those never answered.
func (l *ledger) close() {
	for i, ok := range l.answered {
		if !ok {
			l.res.attempted++
			l.res.fail(fmt.Sprintf("seq %d never answered", l.first+uint64(i)))
		}
	}
}

// wholeShot is a closed stream's reference: the exact decode of the whole
// shot at once.
type wholeShot struct {
	obs    uint64
	weight float64
}

// checkCommits checks one closed stream's commits: in order, covering each
// of the stream's rounds exactly once, no forced cut or fallback, and the
// XOR of the commit masks (and the sum of their weights) equal to the
// whole-shot exact decode.
func checkCommits(commits []stream.Commit, rounds int, want wholeShot) error {
	var next uint64
	var obs uint64
	var weight float64
	for k, c := range commits {
		if c.WindowSeq != uint64(k) {
			return fmt.Errorf("commit %d carries window seq %d", k, c.WindowSeq)
		}
		if c.FirstRow != next || c.RowCount <= 0 {
			return fmt.Errorf("commit %d covers rounds [%d, %d), want it to start at %d",
				k, c.FirstRow, c.FirstRow+uint64(c.RowCount), next)
		}
		if c.Forced || c.Fallback {
			return fmt.Errorf("commit %d is forced=%v fallback=%v", k, c.Forced, c.Fallback)
		}
		next += uint64(c.RowCount)
		obs ^= c.ObsMask
		weight += c.Weight
	}
	if next != uint64(rounds) {
		return fmt.Errorf("commits cover %d rounds, the stream has %d", next, rounds)
	}
	if obs != want.obs {
		return fmt.Errorf("commit masks XOR to %#x, whole-shot decode gives %#x", obs, want.obs)
	}
	if math.Abs(weight-want.weight) > 1e-6*(1+math.Abs(want.weight)) {
		return fmt.Errorf("commit weights sum to %v, whole-shot decode gives %v", weight, want.weight)
	}
	return nil
}
