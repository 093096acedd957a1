package main

import (
	"errors"
	"fmt"
	"time"

	"astrea/internal/bitvec"
	"astrea/internal/montecarlo"
	"astrea/internal/server"
	"astrea/internal/stream"
)

// stream-d5: closed round streams at d=5, p=2e-3, decoded window by window
// through internal/stream with decoder "mwpm", one stream at a time.
const (
	streamDistance = 5
	streamP        = 2e-3
	// streamRows is the rounds per stream, the final data-measurement
	// round included.
	streamRows = 60
	// streamCount distinct streams make one pass.
	streamCount = 500
)

// streamBench is the prepared stream-d5 workload.
type streamBench struct {
	cfg   stream.Config
	rows  [][]bitvec.Vec
	want  []wholeShot
	epoch time.Time
}

// streamRun is one stream's record. Times are nanoseconds since the epoch.
type streamRun struct {
	start, opened, closing, closed, end int64
	pushed                              []int64 // PushRow returned, per round
	pushNs                              []int64 // PushRow duration, per round
	commits                             []stream.Commit
	arrived                             []int64 // per commit
	stats                               stream.Stats
	err                                 error
}

func runStream(rc runConfig) (*result, error) {
	res := newResult()
	tr := rc.tr

	// Set-up, first part: the base operating point from scratch.
	t0 := time.Now()
	root := tr.add("setup", -1, 0, t0, t0)
	env, err := buildEnv(tr, root, streamDistance, streamRows-1, streamP)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.finish(root, t1)

	// Preparation, untimed: the streams and their whole-shot exact decodes.
	factory, err := server.FactoryFor("mwpm")
	if err != nil {
		return nil, err
	}
	whole, err := factory(env)
	if err != nil {
		return nil, err
	}
	b := &streamBench{cfg: stream.Config{
		Env:     env,
		Decoder: "mwpm",
		// A cap above the stream length leaves only exact quiet-gap cuts.
		WindowRounds: streamRows + 1,
	}}
	// A shot whose best matchings come in both observable parities has no
	// single right correction: the whole-shot decode and the windows each
	// pick one by their own tie-breaks, and they can differ (see the
	// package README). Such shots are left out, and counted.
	width := stream.RowWidth(env)
	hist := map[int]int{}
	var leftOut, uncovered int
	for _, s := range sampleShots(env.Model, rc.seed, streamCount+streamCount/10) {
		if len(b.rows) == streamCount {
			break
		}
		switch opt := optimumBase(env.GWT, s.Ones(nil)); {
		case opt[0] == noOptimum:
			uncovered++
		case opt[0] == opt[1]:
			leftOut++
			continue
		}
		r := whole.Decode(s)
		b.want = append(b.want, wholeShot{obs: r.ObsPrediction, weight: r.Weight})
		rows := make([]bitvec.Vec, streamRows)
		for k := range rows {
			rows[k] = bitvec.New(width)
			for j := 0; j < width; j++ {
				if s.Get(k*width + j) {
					rows[k].Set(j)
				}
			}
		}
		b.rows = append(b.rows, rows)
		hist[s.PopCount()]++
	}
	if len(b.rows) < streamCount {
		return nil, fmt.Errorf("only %d of %d sampled streams have a parity-unique optimum", len(b.rows), streamCount)
	}
	logf("stream-d5: %d streams of %d rounds; defects per stream %v; %d left out with optima of both parities, %d beyond the DP",
		streamCount, streamRows, sortedHist(hist), leftOut, uncovered)

	// Set-up, second part: the cold pass, which resolves every padded
	// window environment these streams need. Its streams are checked.
	b.epoch = time.Now()
	entries0, _, _ := montecarlo.SharedEnvCacheStats()
	t2 := time.Now()
	var windows int
	for k := range b.rows {
		run := b.run(k)
		res.check("cold-pass stream", int64(k), b.check(k, run))
		windows += len(run.commits)
	}
	t3 := time.Now()
	entries1, _, _ := montecarlo.SharedEnvCacheStats()
	tr.add("setup.window_envs", -1, 0, t2, t3)
	res.metrics["setup_s"] = t1.Sub(t0).Seconds() + t3.Sub(t2).Seconds()
	setupMetrics(tr, res)
	if tr != nil {
		res.metrics["setup.window_envs"] = float64(entries1 - entries0)
	}
	logf("stream-d5: %.2f windows per stream, %d window environments resolved in %.2fs",
		float64(windows)/float64(len(b.rows)), entries1-entries0, t3.Sub(t2).Seconds())

	err = timedPhases(rc, res, func(seconds float64, tr *tracer) (float64, error) {
		var lat, sojourn, open, closing, push []float64
		var rounds, wall []float64 // per stream
		var forced, fallbacks int
		start := time.Now()
		for time.Since(start).Seconds() < seconds && !tr.full() {
			for k := range b.rows {
				run := b.run(k)
				res.check("stream", int64(k), b.check(k, run))
				rounds = append(rounds, float64(len(b.rows[k])))
				wall = append(wall, float64(run.end-run.start)/1e9)
				for n, c := range run.commits {
					lat = append(lat, float64(run.arrived[n]-run.pushed[int(c.FirstRow)+c.RowCount-1])/1e3)
				}
				if tr == nil {
					continue
				}
				forced += int(run.stats.ForcedCuts)
				fallbacks += int(run.stats.Fallbacks)
				open = append(open, float64(run.opened-run.start)/1e3)
				closing = append(closing, float64(run.closed-run.closing)/1e3)
				for _, d := range run.pushNs {
					push = append(push, float64(d)/1e3)
				}
				st := tr.add("stream", -1, int64(k), b.at(run.start), b.at(run.end))
				tr.add("stream.open", st, int64(k), b.at(run.start), b.at(run.opened))
				tr.add("stream.push", st, int64(k), b.at(run.opened), b.at(run.closing))
				tr.add("stream.close", st, int64(k), b.at(run.closing), b.at(run.closed))
				for n, c := range run.commits {
					last := run.pushed[int(c.FirstRow)+c.RowCount-1]
					sojourn = append(sojourn, c.SojournNs/1e3)
					tr.add("stream.commit", st, int64(k), b.at(last), b.at(run.arrived[n]))
				}
			}
		}
		throughput := chunkMedian(len(wall), func(lo, hi int) float64 {
			var r, w float64
			for n := lo; n < hi; n++ {
				r += rounds[n]
				w += wall[n]
			}
			return r / w
		})
		res.metrics["throughput_per_s"] = throughput
		res.metrics["p50_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.50) })
		res.metrics["p99_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.99) })
		if tr != nil {
			res.metrics["stream.commit_sojourn_us.p50"] = quantile(sojourn, 0.50)
			res.metrics["stream.commit_sojourn_us.p99"] = quantile(sojourn, 0.99)
			res.metrics["stream.windows_per_stream"] = float64(len(sojourn)) / float64(len(open))
			res.metrics["stream.open_us.p50"] = quantile(open, 0.50)
			res.metrics["stream.close_us.p50"] = quantile(closing, 0.50)
			res.metrics["stream.push_block_us.p99"] = quantile(push, 0.99)
			res.metrics["stream.forced_cuts"] = float64(forced)
			res.metrics["stream.fallbacks"] = float64(fallbacks)
		}
		return throughput, nil
	})
	return res, err
}

// now is nanoseconds since the workload's epoch; at converts back.
func (b *streamBench) now() int64            { return time.Since(b.epoch).Nanoseconds() }
func (b *streamBench) at(ns int64) time.Time { return b.epoch.Add(time.Duration(ns)) }

// run decodes stream k through a fresh pipeline: open it, push every round,
// close it, and collect its commits as they arrive.
func (b *streamBench) run(k int) streamRun {
	rows := b.rows[k]
	run := streamRun{pushed: make([]int64, len(rows)), pushNs: make([]int64, len(rows))}
	run.start = b.now()
	p, err := stream.New(b.cfg)
	run.opened = b.now()
	if err != nil {
		run.err = fmt.Errorf("opening: %w", err)
		return run
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range p.Commits() {
			run.commits = append(run.commits, c)
			run.arrived = append(run.arrived, b.now())
		}
	}()
	for r, row := range rows {
		a := b.now()
		if err := p.PushRow(row); err != nil {
			run.err = fmt.Errorf("pushing round %d: %w", r, err)
			p.Abort()
			<-done
			return run
		}
		run.pushed[r] = b.now()
		run.pushNs[r] = run.pushed[r] - a
	}
	run.closing = b.now()
	err = p.Close()
	run.closed = b.now()
	<-done
	run.end = b.now()
	run.stats = p.Stats()
	run.err = errors.Join(err, p.Err())
	return run
}

// check checks one stream's run: no pipeline error, and commits that
// partition the rounds and reproduce the whole-shot decode.
func (b *streamBench) check(k int, run streamRun) error {
	if run.err != nil {
		return run.err
	}
	return checkCommits(run.commits, len(b.rows[k]), b.want[k])
}
