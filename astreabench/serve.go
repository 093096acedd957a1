package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/bitvec"
	"astrea/internal/compress"
	"astrea/internal/montecarlo"
	"astrea/internal/server"
	"astrea/internal/surface"
)

// serve-d7: astread's request path over loopback inside one process, Astrea
// at d=7, p=1e-3, hydrated from an .astc artifact.
const (
	serveDistance = 7
	serveP        = 1e-3
	// serveShots distinct syndromes are cycled in passes; each connection
	// sends every other one.
	serveShots = 4000
	serveConns = 2
	// serveDepth is the closed-loop phase's requests in flight per
	// connection.
	serveDepth = 8
	// serveRate is the open-loop phase's offered load over both
	// connections, in requests per second.
	serveRate = 8000
	// serveClosedShare is the closed-loop phase's share of the timed phase;
	// the open-loop phase sends whole passes at serveRate for the rest.
	serveClosedShare = 0.4
	// serveDeadlineNs is every request's software deadline, 10 ms: the
	// 1 µs default cannot be met over a socket.
	serveDeadlineNs = 10_000_000
	// serveCallTimeout bounds each client Send and Recv; a request still
	// unanswered after it counts as failed.
	serveCallTimeout = 5 * time.Second
)

// serveBench is the prepared serve-d7 workload.
type serveBench struct {
	clients []*server.Client
	shots   []bitvec.Vec
	want    []served
	ref     func(bitvec.Vec) served
	nextSeq uint64
	epoch   time.Time
}

func runServe(rc runConfig) (*result, error) {
	res := newResult()
	tr := rc.tr

	// Preparation, untimed: the artifact, the inputs and their expected
	// answers from an in-process decoder over the same tables.
	art, err := artifact.Compile(serveDistance, serveDistance, serveP, surface.BasisZ)
	if err != nil {
		return nil, fmt.Errorf("compiling the artifact: %w", err)
	}
	blob := art.Encode()
	env, err := montecarlo.NewEnvFromArtifact(art)
	if err != nil {
		return nil, err
	}
	factory, err := server.FactoryFor("astrea")
	if err != nil {
		return nil, err
	}
	dec, err := factory(env)
	if err != nil {
		return nil, err
	}
	b := &serveBench{shots: sampleShots(art.Model, rc.seed, serveShots)}
	b.ref = func(s bitvec.Vec) served {
		r := dec.Decode(s)
		return served{obs: r.ObsPrediction, weightMilli: uint64(r.Weight * 1000), skipped: r.Skipped}
	}
	hist := map[int]int{}
	above10 := 0
	for _, s := range b.shots {
		want := b.ref(s)
		flagged := s.Ones(nil)
		hist[len(flagged)]++
		want.optimumQ = noOptimum
		if !want.skipped {
			want.optimumQ = optimumQ(art.GWT, flagged)
		} else {
			above10++
		}
		b.want = append(b.want, want)
	}
	logf("serve-d7: %d syndromes, %d above HW 10; HW histogram %v", len(b.shots), above10, sortedHist(hist))

	// Set-up: load the artifact, start the daemon, connect.
	t0 := time.Now()
	root := tr.add("setup", -1, 0, t0, t0)
	loaded, err := artifact.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("loading the artifact: %w", err)
	}
	t1 := time.Now()
	tr.add("setup.artifact_load", root, 0, t0, t1)
	srv, err := server.New(server.Config{
		Distances:       []int{serveDistance},
		P:               serveP,
		Decoder:         "astrea",
		Artifacts:       map[int]*artifact.Artifact{serveDistance: loaded},
		DegradeFraction: -1,
		Workers:         runtime.NumCPU(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var serveWG sync.WaitGroup
	var serveErr error
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		serveErr = srv.Serve(ln)
	}()
	defer func() {
		for _, c := range b.clients {
			c.Close()
		}
		srv.Close()
		serveWG.Wait()
		if serveErr != nil {
			logf("serve-d7: serve: %v", serveErr)
		}
	}()
	for c := 0; c < serveConns; c++ {
		cl, err := server.DialOptions(ln.Addr().String(), serveDistance, compress.IDSparse,
			server.ClientOptions{CallTimeout: serveCallTimeout})
		if err != nil {
			return nil, fmt.Errorf("dialling: %w", err)
		}
		b.clients = append(b.clients, cl)
	}
	t2 := time.Now()
	tr.add("setup.server_start", root, 0, t1, t2)
	tr.finish(root, t2)
	res.metrics["setup_s"] = t2.Sub(t0).Seconds()
	setupMetrics(tr, res)

	// Warm-up, untimed and checked: one closed-loop pass.
	b.epoch = time.Now()
	if _, err := b.closedLoop(0, nil, res); err != nil {
		return nil, err
	}

	err = timedPhases(rc, res, func(seconds float64, tr *tracer) (float64, error) {
		before := srv.Snapshot()
		throughput, err := b.closedLoop(seconds*serveClosedShare, tr, res)
		if err != nil {
			return 0, err
		}
		mid := srv.Snapshot()
		open, err := b.openLoop(seconds*(1-serveClosedShare), tr, res)
		if err != nil {
			return 0, err
		}
		after := srv.Snapshot()

		res.metrics["throughput_per_s"] = throughput
		lat := open.lat
		res.metrics["p50_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.50) })
		res.metrics["p99_us"] = chunkMedian(len(lat), func(lo, hi int) float64 { return quantileOf(lat[lo:hi], 0.99) })
		if tr != nil {
			res.metrics["client.send_us.p50"] = quantile(open.send, 0.50)
			res.metrics["server.wire_us.p50"] = quantile(open.wire, 0.50)
			res.metrics["server.sojourn_us.p50"] = quantileOf(open.sojourn, 0.50)
			res.metrics["server.sojourn_us.p99"] = quantileOf(open.sojourn, 0.99)
			res.metrics["serve.gen_late_us.p99"] = quantile(open.late, 0.99)
			res.metrics["server.skipped"] = float64(open.skipped)
			res.metrics["server.rejected"] = float64(after.Rejected - before.Rejected)
			res.metrics["client.payload_bytes"] = float64(after.BytesIn-before.BytesIn) / float64(after.Offered-before.Offered)
			res.metrics["server.mean_batch"] = (mid.MeanBatch*float64(mid.Batches) - before.MeanBatch*float64(before.Batches)) /
				float64(mid.Batches-before.Batches)
			res.metrics["server.decode_us.p50"] = b.inProcessDecodeP50(tr)
		}
		return throughput, nil
	})
	if err != nil {
		return nil, err
	}
	// Admission accounting over the whole run.
	snap := srv.Snapshot()
	if snap.Offered != snap.Accepted+snap.Rejected || snap.Accepted != snap.Completed+snap.Panics {
		res.fail(fmt.Sprintf("server accounting: offered %d, accepted %d, rejected %d, completed %d, panics %d",
			snap.Offered, snap.Accepted, snap.Rejected, snap.Completed, snap.Panics))
	}
	if snap.Degraded != 0 {
		res.fail(fmt.Sprintf("%d requests were answered by the degraded fallback", snap.Degraded))
	}
	return res, nil
}

// inProcessDecodeP50 times Astrea on every input in this process: the
// floor under the served latency.
func (b *serveBench) inProcessDecodeP50(tr *tracer) float64 {
	var us []float64
	for k, s := range b.shots {
		t0 := time.Now()
		b.ref(s)
		t1 := time.Now()
		tr.add("astrea.decode", -1, int64(k), t0, t1)
		us = append(us, t1.Sub(t0).Seconds()*1e6)
	}
	return quantile(us, 0.50)
}

// now is the workload clock: nanoseconds since its epoch; at converts back.
func (b *serveBench) now() int64            { return time.Since(b.epoch).Nanoseconds() }
func (b *serveBench) at(ns int64) time.Time { return b.epoch.Add(time.Duration(ns)) }

// firstSeqs opens a fresh seq range per connection for one phase: request
// i on connection c carries seq firsts[c]+i.
func (b *serveBench) firstSeqs() []uint64 {
	firsts := make([]uint64, serveConns)
	for c := range firsts {
		firsts[c] = b.nextSeq
		b.nextSeq += 1 << 32
	}
	return firsts
}

// input returns the input index of connection c's i-th request: each
// connection cycles through every serveConns-th input.
func input(c, i int) int {
	per := serveShots / serveConns
	return c + serveConns*(i%per)
}

// closedLoop keeps serveDepth requests in flight on every connection,
// sending the next as each answer arrives, in whole passes over the
// connection's inputs until seconds have passed (seconds 0 makes one pass).
// Each answer is checked as it arrives. It returns the median over equal
// time slices of the phase of the answers per second.
func (b *serveBench) closedLoop(seconds float64, tr *tracer, res *result) (float64, error) {
	firsts := b.firstSeqs()
	start := b.now()
	stop := start + int64(seconds*1e9)
	slice := int64(seconds * 1e9 / chunks)
	counts := make([][chunks]int, serveConns)
	ledgers := make([]*ledger, serveConns)
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c, cl := range b.clients {
		ledgers[c] = &ledger{first: firsts[c], res: newResult()}
		wg.Add(1)
		go func(c int, cl *server.Client, l *ledger) {
			defer wg.Done()
			type sent struct{ start, end int64 }
			pending := make(map[int]sent, serveDepth)
			per := serveShots / serveConns
			more := true
			send := func() {
				i := len(l.answered)
				if i > 0 && i%per == 0 && b.now() >= stop {
					more = false
					return
				}
				at := b.now()
				if err := cl.Send(l.first+uint64(i), serveDeadlineNs, b.shots[input(c, i)]); err != nil {
					errs[c] = fmt.Errorf("send: %w", err)
					more = false
					return
				}
				pending[i] = sent{at, b.now()}
				l.answered = append(l.answered, false)
			}
			for more && len(pending) < serveDepth {
				send()
			}
			for len(pending) > 0 {
				r, err := cl.Recv()
				at := b.now()
				if err != nil {
					errs[c] = fmt.Errorf("recv: %w", err)
					return
				}
				i, ok := l.answer(r.Seq)
				if !ok {
					continue
				}
				s := pending[i]
				delete(pending, i)
				l.res.check("seq", int64(r.Seq), checkServed(r, b.want[input(c, i)], at-s.start))
				if slice > 0 && at < stop {
					counts[c][min(int((at-start)/slice), chunks-1)]++
				}
				if tr != nil {
					req := tr.add("request", -1, int64(r.Seq), b.at(s.start), b.at(at))
					tr.add("client.send", req, int64(r.Seq), b.at(s.start), b.at(s.end))
				}
				if more {
					send()
				}
			}
		}(c, cl, ledgers[c])
	}
	wg.Wait()
	if err := b.settle(res, ledgers, errs); err != nil || slice == 0 {
		return 0, err
	}
	rates := make([]float64, chunks)
	for c := range counts {
		for k, n := range counts[c] {
			rates[k] += float64(n) / (float64(slice) / 1e9)
		}
	}
	return quantile(rates, 0.5), nil
}

// settle merges the connections' ledgers into the result; a connection
// error aborts the run.
func (b *serveBench) settle(res *result, ledgers []*ledger, errs []error) error {
	for _, l := range ledgers {
		l.close()
		res.merge(l.res)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("connection failed: %w", err)
	}
	return nil
}

// openTimes are an open-loop phase's per-request figures in microseconds,
// indexed by request in due order.
type openTimes struct {
	lat, late, send, wire, sojourn []float64
	skipped                        int
}

// openLoop offers serveRate requests per second over both connections
// regardless of answers, for whole passes over the inputs lasting at least
// seconds. Each request is timed from when it was due; each answer is
// checked as it arrives.
func (b *serveBench) openLoop(seconds float64, tr *tracer, res *result) (*openTimes, error) {
	firsts := b.firstSeqs()
	total := int(math.Ceil(seconds*serveRate/serveShots)) * serveShots
	perConn := total / serveConns
	// Written by the pacer, read by the receivers.
	starts := make([]atomic.Int64, total)
	ends := make([]atomic.Int64, total)
	// Element n is written only by the receiver of request n's connection.
	times := &openTimes{
		lat: make([]float64, total), late: make([]float64, total), send: make([]float64, total),
		wire: make([]float64, total), sojourn: make([]float64, total),
	}
	skipped := make([]int, serveConns)
	ledgers := make([]*ledger, serveConns)
	errs := make([]error, serveConns+1)
	t0 := b.now() + int64(time.Millisecond)
	due := func(n int) int64 { return t0 + int64(float64(n)*1e9/serveRate) }

	var wg sync.WaitGroup
	for c, cl := range b.clients {
		ledgers[c] = &ledger{first: firsts[c], answered: make([]bool, perConn), res: newResult()}
		wg.Add(1)
		go func(c int, cl *server.Client, l *ledger) {
			defer wg.Done()
			for got := 0; got < perConn; got++ {
				r, err := cl.Recv()
				at := b.now()
				if err != nil {
					errs[c] = fmt.Errorf("recv: %w", err)
					return
				}
				i, ok := l.answer(r.Seq)
				if !ok {
					continue
				}
				n := i*serveConns + c
				start, end := starts[n].Load(), ends[n].Load()
				l.res.check("seq", int64(r.Seq), checkServed(r, b.want[input(c, i)], at-start))
				times.lat[n] = float64(at-due(n)) / 1e3
				times.late[n] = float64(start-due(n)) / 1e3
				times.send[n] = float64(end-start) / 1e3
				times.wire[n] = float64(at-start-int64(r.SojournNs)) / 1e3
				times.sojourn[n] = float64(r.SojournNs) / 1e3
				if r.Skipped {
					skipped[c]++
				}
				if tr != nil {
					req := tr.add("request", -1, int64(r.Seq), b.at(due(n)), b.at(at))
					tr.add("client.send", req, int64(r.Seq), b.at(start), b.at(end))
				}
			}
		}(c, cl, ledgers[c])
	}

	// The pacer keeps a P of its own while it sleeps (see pacer); one P
	// more than the CPUs leaves the daemon and the receivers as many as
	// in the closed-loop phase.
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(procs)
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := newPacer()
		for n := 0; n < total; n++ {
			c, i := n%serveConns, n/serveConns
			for d := due(n) - b.now(); d > 0; d = due(n) - b.now() {
				p.sleep(time.Duration(d))
			}
			starts[n].Store(b.now())
			if err := b.clients[c].Send(firsts[c]+uint64(i), serveDeadlineNs, b.shots[input(c, i)]); err != nil {
				errs[serveConns] = fmt.Errorf("send: %w", err)
				return
			}
			ends[n].Store(b.now())
		}
	}()
	wg.Wait()
	for _, n := range skipped {
		times.skipped += n
	}
	return times, b.settle(res, ledgers, errs)
}
