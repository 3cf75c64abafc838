package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one timed request.
type sample struct {
	ok       bool
	mismatch bool    // response differs from the expected text or reference container
	status   int     // HTTP status; 0 on transport error
	latMs    float64 // from send (closed loop) or due time (open loop)
	lagMs    float64 // open loop: how late the generator sent it
	wire     int     // container bytes (request on decode, response on encode)
	text     int     // 01X text bytes moved
	kept     []byte  // encode response kept for reference comparison
}

// newClient returns an HTTP client that opens at most conns
// connections to the daemon and keeps them alive.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// worker is one connection's request loop state.
type worker struct {
	hc      *http.Client
	base    string
	profile string // X-Codec-Profile for profiled encodes
	scratch []byte // encode-cold body scratch, reused across requests
	resp    []byte // response read buffer
}

// do sends r and checks its response. Decode responses are compared
// byte for byte with the expected text as they stream in; encode
// responses flagged for verification are kept for a reference
// comparison after the timed window.
func (wk *worker) do(ctx context.Context, r *request, body []byte) sample {
	s := sample{text: r.text}
	url := wk.base + "/decode"
	if r.op == "encode" {
		url = wk.base + "/encode?k=8"
	} else {
		s.wire = len(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return s
	}
	if r.profile {
		req.Header.Set("X-Codec-Profile", wk.profile)
	}
	resp, err := wk.hc.Do(req)
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if r.op == "decode" {
		s.mismatch = !streamEqual(resp.Body, r.expect, &wk.resp)
		s.ok = s.status == http.StatusOK && !s.mismatch
		return s
	}
	buf := bytes.NewBuffer(wk.resp[:0])
	_, err = buf.ReadFrom(resp.Body)
	wk.resp = buf.Bytes()
	s.ok = err == nil && s.status == http.StatusOK && len(wk.resp) > 0
	s.wire = len(wk.resp)
	if s.ok && r.verify {
		s.kept = append([]byte(nil), wk.resp...)
	}
	return s
}

// streamEqual reports whether rd yields exactly want, reading through
// the reusable buffer *scratch.
func streamEqual(rd io.Reader, want []byte, scratch *[]byte) bool {
	if cap(*scratch) < 64<<10 {
		*scratch = make([]byte, 64<<10)
	}
	buf := (*scratch)[:cap(*scratch)]
	off := 0
	equal := true
	for {
		n, err := rd.Read(buf)
		if n > 0 {
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				equal = false
			}
			off += n
		}
		if err == io.EOF {
			return equal && off == len(want)
		}
		if err != nil {
			return false
		}
	}
}

// runSchedule sends every request of reqs over conns connections and
// returns one sample per request, in schedule order. A closed loop
// sends each connection's next request when its previous one returns;
// an open loop sends request i at start + i/rate whatever the daemon's
// pace, timing it from that due time. It returns the window start.
func runSchedule(ctx context.Context, w *workload, reqs []request, hc *http.Client, base, profile string, open bool) ([]sample, time.Time) {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &worker{hc: hc, base: base, profile: profile}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				body := w.materialize(wk.scratch, &reqs[i])
				if reqs[i].body == nil {
					wk.scratch = body
				}
				sent := time.Now()
				var due time.Time
				if open {
					due = start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					sent = time.Now()
				}
				s := wk.do(ctx, &reqs[i], body)
				end := time.Now()
				from := sent
				if open {
					from = due
					s.lagMs = float64(sent.Sub(due).Nanoseconds()) / 1e6
				}
				s.latMs = float64(end.Sub(from).Nanoseconds()) / 1e6
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, start
}

// describe summarizes a failed sample for the error report.
func (s sample) describe() string {
	switch {
	case s.mismatch:
		return "response differs from the expected bytes"
	case s.status == 0:
		return "transport error"
	default:
		return fmt.Sprintf("status %d", s.status)
	}
}
