package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op sends request i of a loop and reports how many runs the request
// carried and how many of them failed; err describes the first failure.
type op func(i int64, buf *bytes.Buffer) (runs, failed int64, err error)

// loopStats is what one loop measured.
type loopStats struct {
	requests int64
	runs     int64
	failed   int64
	// lat holds each request's latency in ms, end when it ended and
	// verified how many of its runs were answered and verified; lag, in an
	// open loop, how late each request was sent.
	lat, lag []float64
	end      []time.Time
	verified []int32
	elapsed  time.Duration
	errs     []string
}

// maxErrs bounds the failure messages a loop keeps.
const maxErrs = 5

// merge adds another loop's measurements, its elapsed time included.
func (s *loopStats) merge(o *loopStats) {
	s.elapsed += o.elapsed
	s.requests += o.requests
	s.runs += o.runs
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.end = append(s.end, o.end...)
	s.verified = append(s.verified, o.verified...)
	for _, e := range o.errs {
		if len(s.errs) < maxErrs {
			s.errs = append(s.errs, e)
		}
	}
}

// record adds a request that ended at end, lat ms after it was sent (or,
// in an open loop, due).
func (s *loopStats) record(end time.Time, lat float64, runs, failed int64, err error) {
	s.requests++
	s.runs += runs
	s.failed += failed
	s.lat = append(s.lat, lat)
	s.end = append(s.end, end)
	s.verified = append(s.verified, int32(runs-failed))
	if err != nil && len(s.errs) < maxErrs {
		s.errs = append(s.errs, err.Error())
	}
}

// rate is runs answered and verified per second.
func (s *loopStats) rate() float64 {
	return ratio(float64(s.runs-s.failed), s.elapsed.Seconds())
}

// quiet keeps the requests that ended in an interval between two steal
// samples in which the hypervisor stole no more CPU time than in the median
// interval, and counts only those intervals as elapsed; on a machine nobody
// steals from it keeps everything.  Its runs are the verified runs of the
// kept requests, so it serves the end-to-end metrics, not failure counts.
func (s *loopStats) quiet(samples []stealSample) *loopStats {
	if len(samples) < 2 {
		return s
	}
	stolen := make([]float64, len(samples)-1)
	for i := range stolen {
		stolen[i] = float64(samples[i+1].steal - samples[i].steal)
	}
	limit := median(stolen)
	q := &loopStats{}
	for i, st := range stolen {
		if st <= limit {
			q.elapsed += samples[i+1].at.Sub(samples[i].at)
		}
	}
	for k, end := range s.end {
		// Interval i-1 runs from sample i-1 to sample i.
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(end) })
		if i == 0 || i == len(samples) || stolen[i-1] > limit {
			continue
		}
		q.requests++
		q.runs += int64(s.verified[k])
		q.lat = append(q.lat, s.lat[k])
		if len(s.lag) > 0 {
			q.lag = append(q.lag, s.lag[k])
		}
		q.end = append(q.end, end)
		q.verified = append(q.verified, s.verified[k])
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkers runs conns workers until each returns and merges what they
// measured.
func runWorkers(conns int, work func(w *loopStats)) *loopStats {
	start := time.Now()
	parts := make([]loopStats, conns)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(&parts[w])
		}()
	}
	wg.Wait()
	total := &loopStats{}
	for i := range parts {
		total.merge(&parts[i])
	}
	total.elapsed = time.Since(start)
	return total
}

// closedLoop sends requests 0, 1, 2, ... on conns connections, each
// connection sending its next request when the previous one is answered,
// until window has passed.  Each request is timed from when it was sent; rec,
// when set, receives a client.request span per request.
func closedLoop(ctx context.Context, conns int, window time.Duration, do op, rec *recorder) *loopStats {
	deadline := time.Now().Add(window)
	var next atomic.Int64
	return runWorkers(conns, func(w *loopStats) {
		var buf bytes.Buffer
		for ctx.Err() == nil && time.Now().Before(deadline) {
			i := next.Add(1) - 1
			start := time.Now()
			runs, failed, err := do(i, &buf)
			end := time.Now()
			if rec != nil {
				rec.add("client.request", 0, i, start, end)
			}
			w.record(end, ms(end.Sub(start)), runs, failed, err)
		}
	})
}

// openLoop sends request i at start + i/rate on whichever of conns
// connections is free; when none is, requests wait in the generator, in
// order, and are never dropped.  Latency is timed from when a request was
// due, so a stall also delays the requests behind it, and lag records how
// late each request was sent.
func openLoop(ctx context.Context, conns int, rate float64, window time.Duration, do op, rec *recorder) *loopStats {
	start := time.Now()
	deadline := start.Add(window)
	var next atomic.Int64
	return runWorkers(conns, func(w *loopStats) {
		var buf bytes.Buffer
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
			sent := time.Now()
			runs, failed, err := do(i, &buf)
			end := time.Now()
			if rec != nil {
				rec.add("client.request", 0, i, sent, end)
			}
			w.record(end, ms(end.Sub(due)), runs, failed, err)
			w.lag = append(w.lag, ms(sent.Sub(due)))
		}
	})
}

// countLoop sends requests 0..n-1 once each on conns connections.
func countLoop(ctx context.Context, conns int, n int64, do op) *loopStats {
	var next atomic.Int64
	return runWorkers(conns, func(w *loopStats) {
		var buf bytes.Buffer
		for i := next.Add(1) - 1; i < n && ctx.Err() == nil; i = next.Add(1) - 1 {
			start := time.Now()
			runs, failed, err := do(i, &buf)
			end := time.Now()
			w.record(end, ms(end.Sub(start)), runs, failed, err)
		}
	})
}

// at is the program a request sequence names at position i; sequences wrap.
func at(seq []int32, i int64) int { return int(seq[i%int64(len(seq))]) }

// runOp sends request i as /v1/run of program seq[i] to url.
func runOp(c *http.Client, url string, progs []*program, seq []int32, v *verifier) op {
	return func(i int64, buf *bytes.Buffer) (int64, int64, error) {
		p := at(seq, i)
		status, err := post(c, url, progs[p].body, buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %.200s", progs[p].Name, status, buf.Bytes())
		}
		if err == nil {
			err = v.check(p, buf.Bytes())
		}
		if err != nil {
			return 1, 1, err
		}
		return 1, 0, nil
	}
}

// batchOp sends request i as one /batch/run of programs
// seq[i*size .. i*size+size-1] to url.
func batchOp(c *http.Client, url string, progs []*program, seq []int32, size int, v *verifier) op {
	return func(i int64, buf *bytes.Buffer) (int64, int64, error) {
		items := make([]int, size)
		for k := range items {
			items[k] = at(seq, i*int64(size)+int64(k))
		}
		return sendBatch(c, url, progs, items, v, buf)
	}
}

// batchBody is the /batch/run envelope of the given programs.
func batchBody(progs []*program, items []int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for k, p := range items {
		if k > 0 {
			b.WriteByte(',')
		}
		b.Write(progs[p].body)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// sendBatch posts the programs as one /batch/run and checks every item.
func sendBatch(c *http.Client, url string, progs []*program, items []int, v *verifier, buf *bytes.Buffer) (runs, failed int64, err error) {
	runs = int64(len(items))
	status, err := post(c, url, batchBody(progs, items), buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("batch: status %d: %.200s", status, buf.Bytes())
	}
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err == nil {
		if err = json.Unmarshal(buf.Bytes(), &env); err == nil && len(env.Items) != len(items) {
			err = fmt.Errorf("batch: %d items answered, %d sent", len(env.Items), len(items))
		}
	}
	if err != nil {
		return runs, runs, err
	}
	var first error
	for k, p := range items {
		if e := v.check(p, env.Items[k]); e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	return runs, failed, first
}
