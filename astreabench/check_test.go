package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"astrea/internal/bitvec"
	"astrea/internal/decoder"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/server"
	"astrea/internal/stream"
)

// failsOnce feeds one checked answer to a result and reports whether it was
// counted as exactly one failed operation.
func failsOnce(err error) bool {
	res := newResult()
	res.check("op", 0, err)
	return res.attempted == 1 && res.failed == 1
}

// testEnv is a small operating point that builds in milliseconds.
func testEnv(t *testing.T, d, rounds int, p float64) *montecarlo.Env {
	t.Helper()
	env, err := buildEnv(nil, -1, d, rounds, p)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestDPMatchesBruteForce pins the exhaustive DP, per observable parity,
// to a plain recursive enumeration of every matching on random weights.
func TestDPMatchesBruteForce(t *testing.T) {
	rng := prng.New(7)
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(9)
		g := dpGraph{m: m, single: make([]int64, m), singlePar: make([]uint8, m),
			pair: make([]int64, m*m), pairPar: make([]uint8, m*m)}
		for x := range g.single {
			g.single[x] = int64(1 + rng.Intn(50))
			g.singlePar[x] = uint8(rng.Intn(2))
		}
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				w, p := int64(noEdge), uint8(rng.Intn(2))
				if rng.Intn(3) > 0 {
					w = int64(1 + rng.Intn(60))
				}
				g.pair[x*m+y], g.pair[y*m+x] = w, w
				g.pairPar[x*m+y], g.pairPar[y*m+x] = p, p
			}
			g.pair[x*m+x] = noEdge
		}
		want := [2]int64{noMatching, noMatching}
		var brute func(left []int, w int64, p uint8)
		brute = func(left []int, w int64, p uint8) {
			if len(left) == 0 {
				want[p] = min(want[p], w)
				return
			}
			x, rest := left[0], left[1:]
			brute(rest, w+g.single[x], p^g.singlePar[x])
			for n, y := range rest {
				if pw := g.pair[x*m+y]; pw != noEdge {
					others := append(append([]int(nil), rest[:n]...), rest[n+1:]...)
					brute(others, w+pw, p^g.pairPar[x*m+y])
				}
			}
		}
		all := make([]int, m)
		for x := range all {
			all[x] = x
		}
		brute(all, 0, 0)
		if got := g.solve(); got != want {
			t.Fatalf("trial %d (m=%d): DP %v, brute force %v", trial, m, got, want)
		}
	}
}

// TestCheckMatchingFailsOnWrongAnswer: correct exact decodes pass, and each
// kind of wrong answer fails exactly one operation.
func TestCheckMatchingFailsOnWrongAnswer(t *testing.T) {
	env := testEnv(t, 5, 5, 3e-3)
	factory, err := server.FactoryFor("mwpm")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := factory(env)
	if err != nil {
		t.Fatal(err)
	}
	gwt := env.GWT
	mc := newMatchChecker(gwt)
	var tested bool
	for k, s := range sampleShots(env.Model, 3, 400) {
		flagged := s.Ones(nil)
		if len(flagged) < 2 {
			continue
		}
		r := dec.Decode(s)
		opt := best(optimumBase(gwt, flagged))
		if opt == noOptimum {
			t.Fatalf("shot %d: no optimum at HW %d", k, len(flagged))
		}
		if err := mc.check(flagged, r, opt); err != nil {
			t.Fatalf("shot %d: correct decode rejected: %v", k, err)
		}
		// Find a direct pair strictly cheaper than its two boundary chains.
		for n, p := range r.Pairs {
			i, j := p[0], p[1]
			if j == decoder.Boundary || i == decoder.Boundary {
				continue
			}
			w, _ := chainBase(gwt, i, j)
			bi, _ := chainBase(gwt, i, decoder.Boundary)
			bj, _ := chainBase(gwt, j, decoder.Boundary)
			if w >= bi+bj {
				continue
			}
			tested = true

			// A worse matching with a consistent observable: only the
			// optimality check can catch it.
			worse := decoder.Result{ObsPrediction: r.ObsPrediction ^ gwt.DirectObs(i, j) ^ gwt.Obs(i, i) ^ gwt.Obs(j, j)}
			worse.Pairs = append(worse.Pairs, r.Pairs[:n]...)
			worse.Pairs = append(worse.Pairs, r.Pairs[n+1:]...)
			worse.Pairs = append(worse.Pairs, [2]int{i, decoder.Boundary}, [2]int{j, decoder.Boundary})
			if !failsOnce(mc.check(flagged, worse, opt)) {
				t.Fatal("a suboptimal matching passed the optimum check")
			}

			dropped := decoder.Result{ObsPrediction: r.ObsPrediction ^ gwt.DirectObs(i, j)}
			dropped.Pairs = append(dropped.Pairs, r.Pairs[:n]...)
			dropped.Pairs = append(dropped.Pairs, r.Pairs[n+1:]...)
			if !failsOnce(mc.check(flagged, dropped, noOptimum)) {
				t.Fatal("a matching missing two flagged detectors passed")
			}

			unflagged := 0
			for unflagged < gwt.N && s.Get(unflagged) {
				unflagged++
			}
			extra := decoder.Result{ObsPrediction: r.ObsPrediction ^ gwt.Obs(unflagged, unflagged)}
			extra.Pairs = append(append(extra.Pairs, r.Pairs...), [2]int{unflagged, decoder.Boundary})
			if !failsOnce(mc.check(flagged, extra, noOptimum)) {
				t.Fatal("a matching of an unflagged detector passed")
			}

			twice := decoder.Result{ObsPrediction: r.ObsPrediction ^ gwt.Obs(i, i)}
			twice.Pairs = append(append(twice.Pairs, r.Pairs...), [2]int{i, decoder.Boundary})
			if !failsOnce(mc.check(flagged, twice, noOptimum)) {
				t.Fatal("a detector matched twice passed")
			}

			flipped := r
			flipped.ObsPrediction ^= 1
			if !failsOnce(mc.check(flagged, flipped, noOptimum)) {
				t.Fatal("a wrong observable prediction passed")
			}
			break
		}
	}
	if !tested {
		t.Fatal("no sampled matching had a strictly cheaper direct pair")
	}
}

// TestCheckServedFailsOnWrongAnswer covers each served-answer check.
func TestCheckServedFailsOnWrongAnswer(t *testing.T) {
	env := testEnv(t, 3, 3, 1e-2)
	factory, err := server.FactoryFor("astrea")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := factory(env)
	if err != nil {
		t.Fatal(err)
	}
	s := bitvec.FromIndices(env.GWT.N, 0, 3, 5)
	r := dec.Decode(s)
	opt := optimumQ(env.GWT, s.Ones(nil))
	if opt == noOptimum || r.Skipped || int64(r.Weight) != opt {
		t.Fatalf("Astrea weight %v, exhaustive optimum over Q %d", r.Weight, opt)
	}
	want := served{obs: r.ObsPrediction, weightMilli: uint64(r.Weight * 1000), optimumQ: opt}
	good := server.Response{Seq: 9, ObsMask: want.obs, WeightMilli: want.weightMilli, SojournNs: 1000}
	if err := checkServed(good, want, 2000); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	wrong := map[string]func(*server.Response, *served, *int64){
		"mask":          func(a *server.Response, _ *served, _ *int64) { a.ObsMask ^= 1 },
		"weight":        func(a *server.Response, _ *served, _ *int64) { a.WeightMilli += 1000 },
		"skipped":       func(a *server.Response, _ *served, _ *int64) { a.Skipped = true },
		"rejected":      func(a *server.Response, _ *served, _ *int64) { a.Rejected = true },
		"error":         func(a *server.Response, _ *served, _ *int64) { a.Err = "internal" },
		"not optimal":   func(_ *server.Response, w *served, _ *int64) { w.optimumQ-- },
		"sojourn > rtt": func(_ *server.Response, _ *served, rtt *int64) { *rtt = 999 },
	}
	for name, mutate := range wrong {
		a, w, rtt := good, want, int64(2000)
		mutate(&a, &w, &rtt)
		if !failsOnce(checkServed(a, w, rtt)) {
			t.Errorf("%s: wrong answer passed", name)
		}
	}
}

// TestLedgerFailsOnBadAccounting: a missing, a duplicated and an unknown
// answer each fail one operation.
func TestLedgerFailsOnBadAccounting(t *testing.T) {
	play := func(answers ...uint64) *result {
		l := &ledger{first: 100, answered: make([]bool, 3), res: newResult()}
		for _, seq := range answers {
			if _, ok := l.answer(seq); ok {
				l.res.check("seq", 0, nil)
			}
		}
		l.close()
		return l.res
	}
	if res := play(102, 100, 101); res.attempted != 3 || res.failed != 0 {
		t.Fatalf("complete phase: attempted %d, failed %d", res.attempted, res.failed)
	}
	cases := map[string][]uint64{
		"unanswered": {100, 102},
		"duplicate":  {100, 101, 101, 102},
		"unknown":    {100, 101, 102, 103},
	}
	for name, answers := range cases {
		if res := play(answers...); res.failed != 1 {
			t.Errorf("%s: %d failed operations, want 1 (%v)", name, res.failed, res.failures)
		}
	}
}

// TestCheckCommitsFailsOnWrongAnswer decodes one real closed stream and
// breaks its commits one way at a time.
func TestCheckCommitsFailsOnWrongAnswer(t *testing.T) {
	const rounds = 40
	env := testEnv(t, 3, rounds-1, 3e-3)
	factory, err := server.FactoryFor("mwpm")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := factory(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Env: env, Decoder: "mwpm", WindowRounds: rounds + 1}
	width := stream.RowWidth(env)
	for k, s := range sampleShots(env.Model, 5, 50) {
		rows := make([]bitvec.Vec, rounds)
		for r := range rows {
			rows[r] = bitvec.New(width)
			for j := 0; j < width; j++ {
				if s.Get(r*width + j) {
					rows[r].Set(j)
				}
			}
		}
		commits, _, err := stream.DecodeClosed(cfg, rows)
		if err != nil {
			t.Fatal(err)
		}
		w := whole.Decode(s)
		want := wholeShot{obs: w.ObsPrediction, weight: w.Weight}
		if err := checkCommits(commits, rounds, want); err != nil {
			t.Fatalf("stream %d: correct commits rejected: %v", k, err)
		}
		if len(commits) < 2 || w.ObsPrediction == 0 {
			continue
		}
		clone := func() []stream.Commit { return append([]stream.Commit(nil), commits...) }
		wrong := map[string][]stream.Commit{}
		c := clone()
		c[0].ObsMask ^= 1
		wrong["mask"] = c
		c = clone()
		c[1].FirstRow++
		wrong["gap"] = c
		c = clone()
		c[0], c[1] = c[1], c[0]
		wrong["order"] = c
		wrong["missing"] = clone()[1:]
		c = clone()
		c[len(c)-1].Weight += 0.5
		wrong["weight"] = c
		c = clone()
		c[0].Forced = true
		wrong["forced"] = c
		for name, cs := range wrong {
			if !failsOnce(checkCommits(cs, rounds, want)) {
				t.Errorf("%s: wrong commits passed", name)
			}
		}
		if !failsOnce(checkCommits(commits, rounds, wholeShot{obs: want.obs ^ 1, weight: want.weight})) {
			t.Error("a stream disagreeing with the whole-shot decode passed")
		}
		return
	}
	t.Fatal("no sampled stream split into two windows with a nonzero correction")
}

// TestResultCounting: a nil error is an attempted operation, not a failure.
func TestResultCounting(t *testing.T) {
	res := newResult()
	res.check("ok", 0, nil)
	res.check("bad", 1, errors.New("wrong"))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in step
// with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec []def
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.spec), len(c.code))
		}
		for k, m := range c.code {
			if c.spec[k].Name != m.name || c.spec[k].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", c.name, k, c.spec[k], m)
			}
		}
	}
}
