package main

import (
	"fmt"
	"runtime"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/decodegraph"
	"astrea/internal/decoder"
	"astrea/internal/dem"
	"astrea/internal/montecarlo"
	"astrea/internal/prng"
	"astrea/internal/server"
	"astrea/internal/surface"
)

// mwpm-d9: offline exact decoding at d=9, 9 rounds, p=1e-3, one syndrome at
// a time, by the decoder the daemon serves as "mwpm".
const (
	mwpmDistance = 9
	mwpmP        = 1e-3
	mwpmShots    = 20000
)

// strata are the Hamming-weight bands of the per-layer decode metrics.
var strata = []struct {
	name   string
	lo, hi int // inclusive
}{
	{"hw0-2", 0, 2},
	{"hw3-6", 3, 6},
	{"hw7-10", 7, 10},
	{"hw11-14", 11, 14},
	{"hw15up", 15, 1 << 30},
}

func stratumOf(hw int) int {
	for k, s := range strata {
		if hw >= s.lo && hw <= s.hi {
			return k
		}
	}
	return len(strata) - 1
}

// buildEnv is the research workflow's cold set-up for one operating point:
// circuit and DEM extraction, decoding graph, GWT. Each step is a setup span.
func buildEnv(tr *tracer, root int32, d, rounds int, p float64) (*montecarlo.Env, error) {
	t0 := time.Now()
	code, err := surface.New(d)
	if err != nil {
		return nil, err
	}
	cc, err := code.MemoryZ(rounds, p)
	if err != nil {
		return nil, err
	}
	model, err := dem.FromCircuit(cc)
	if err != nil {
		return nil, fmt.Errorf("extracting the DEM: %w", err)
	}
	t1 := time.Now()
	tr.add("setup.dem", root, 0, t0, t1)
	graph, err := decodegraph.FromModel(model, cc.DetMetas)
	if err != nil {
		return nil, fmt.Errorf("building the graph: %w", err)
	}
	t2 := time.Now()
	tr.add("setup.graph", root, 0, t1, t2)
	gwt, err := graph.BuildGWT()
	if err != nil {
		return nil, fmt.Errorf("building the GWT: %w", err)
	}
	tr.add("setup.gwt", root, 0, t2, time.Now())
	return &montecarlo.Env{
		Distance: d, Rounds: rounds, P: p, Basis: surface.BasisZ,
		Code: code, Circuit: cc, Model: model, Graph: graph, GWT: gwt,
	}, nil
}

// setupMetrics copies the setup spans' totals into the per-layer metrics.
func setupMetrics(tr *tracer, res *result) {
	if tr == nil {
		return
	}
	for _, n := range []string{"setup.dem", "setup.graph", "setup.gwt", "setup.artifact_load", "setup.server_start", "setup.window_envs"} {
		for _, d := range tr.durations(n) {
			res.metrics[n+"_s"] += d
		}
	}
}

// sampleShots draws n whole-shot syndromes from the model; the same seed
// gives the same syndromes.
func sampleShots(model *dem.Model, seed uint64, n int) []bitvec.Vec {
	smp := dem.NewSampler(model)
	rng := prng.New(seed)
	out := make([]bitvec.Vec, n)
	syn := bitvec.New(model.NumDetectors)
	for k := range out {
		smp.Sample(rng, syn)
		out[k] = syn.Clone()
	}
	return out
}

func runMWPM(rc runConfig) (*result, error) {
	res := newResult()
	tr := rc.tr

	// Set-up: build the environment from scratch and one decoder.
	t0 := time.Now()
	root := tr.add("setup", -1, 0, t0, t0)
	env, err := buildEnv(tr, root, mwpmDistance, mwpmDistance, mwpmP)
	if err != nil {
		return nil, err
	}
	factory, err := server.FactoryFor("mwpm")
	if err != nil {
		return nil, err
	}
	dec, err := factory(env)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.finish(root, t1)
	res.metrics["setup_s"] = t1.Sub(t0).Seconds()
	setupMetrics(tr, res)

	// Preparation, untimed: inputs and their exhaustive optima.
	prep := time.Now()
	shots := sampleShots(env.Model, rc.seed, mwpmShots)
	flagged := make([][]int, len(shots))
	optima := make([][2]int64, len(shots))
	stratum := make([]int, len(shots))
	hist := map[int]int{}
	covered, above10 := 0, 0
	for k, s := range shots {
		flagged[k] = s.Ones(nil)
		hw := len(flagged[k])
		stratum[k] = stratumOf(hw)
		hist[hw]++
		if hw > 10 {
			above10++
		}
		optima[k] = optimumBase(env.GWT, flagged[k])
		if optima[k][0] != noOptimum {
			covered++
		}
	}
	logf("mwpm-d9: %d syndromes, %.1f%% above HW 10, exhaustive optimum for %d; HW histogram %v; prepared in %.2fs",
		len(shots), 100*float64(above10)/float64(len(shots)), covered, sortedHist(hist), time.Since(prep).Seconds())
	if tr != nil {
		calls := make([]float64, len(strata))
		for _, s := range stratum {
			calls[s]++
		}
		for k, s := range strata {
			res.metrics["decode.calls."+s.name] = calls[k]
		}
	}

	mc := newMatchChecker(env.GWT)
	check := func(k int, r decoder.Result) {
		res.check("syndrome", int64(k), mc.check(flagged[k], r, best(optima[k])))
	}
	// Warm-up pass, untimed and checked.
	for k, s := range shots {
		check(k, dec.Decode(s))
	}

	// Seconds per decode over the timed passes, sized for the fastest
	// decoder this workload has seen so the phase rarely regrows it.
	lat := make([]float64, 0, int(rc.seconds*80_000))
	err = timedPhases(rc, res, func(seconds float64, tr *tracer) (float64, error) {
		lat = lat[:0]
		perStratum := make([][]float64, len(strata))
		var busy float64
		var passes int
		var mallocs uint64
		start := time.Now()
		for time.Since(start).Seconds() < seconds && !tr.full() {
			var ms runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&ms)
				mallocs -= ms.Mallocs
			}
			p0 := time.Now()
			pass := tr.add("decode.pass", -1, int64(passes), p0, p0)
			for k, s := range shots {
				a := time.Now()
				r := dec.Decode(s)
				b := time.Now()
				d := b.Sub(a).Seconds()
				lat = append(lat, d)
				busy += d
				if tr != nil {
					tr.add("decode", pass, int64(k), a, b)
					perStratum[stratum[k]] = append(perStratum[stratum[k]], d)
				}
				check(k, r)
			}
			tr.finish(pass, time.Now())
			if tr != nil {
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs
			}
			passes++
		}
		n := float64(len(lat))
		throughput := chunkMedian(len(lat), func(lo, hi int) float64 {
			var sum float64
			for _, d := range lat[lo:hi] {
				sum += d
			}
			return float64(hi-lo) / sum
		})
		res.metrics["throughput_per_s"] = throughput
		res.metrics["p50_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.50) }) * 1e6
		res.metrics["p99_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.99) }) * 1e6
		if tr != nil {
			for k, s := range strata {
				res.metrics["decode.p50_us."+s.name] = quantile(perStratum[k], 0.50) * 1e6
			}
			res.metrics["decode.busy_s"] = busy / float64(passes)
			res.metrics["decode.allocs_per_call"] = float64(mallocs) / n
		}
		return throughput, nil
	})
	return res, err
}
