// Command servebench is the end-to-end serving benchmark of ninecd.
// It starts the daemon built from this checkout as a child process
// with default flags, drives it over loopback HTTP with one of three
// seeded workloads, checks every response, and prints the metrics as
// one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash servebench/run.sh --workload encode-cold --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --steady 10 --workload all --seconds 10
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload and then a traced in-process replay of the handlers' calls,
// and reports the per-layer metrics. README.md describes the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/codecopt"
	"repro/internal/obs"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ninecd   string
	outDir   string
	steady   int
}

func realMain(args []string, out io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (all: every workload, --steady only)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "run length: the schedule holds this many seconds of requests at the nominal rate")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&o.ninecd, "ninecd", ".bench_build/ninecd", "ninecd binary to benchmark")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span dumps")
	fs.IntVar(&o.steady, "steady", 0, "steadiness report: run each workload this many times, seeds --seed, --seed+1, ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be >= 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.steady > 0 {
		if err := steadyReport(ctx, o, out); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	res, err := runOnce(ctx, o, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output: whether every checked response
// was correct, how many requests were attempted and failed, and the
// metrics BENCHMARK.json names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up setupBefore fresh daemons before the timed window, the
// last of which serves it, and setupAfter more after it; setup_s is the
// median of them all. Spreading the set-ups over the run keeps one slow
// phase of a shared host from setting the median.
const (
	setupBefore = 5
	setupAfter  = 6
)

// runOnce is one benchmark run: generate inputs, set up, measure,
// verify, and (traced) replay the layers.
func runOnce(ctx context.Context, o options, out io.Writer) (*result, error) {
	if _, err := os.Stat(o.ninecd); err != nil {
		return nil, fmt.Errorf("ninecd binary: %w", err)
	}
	w, err := generate(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	// Collect generation's garbage now, so this process's GC does not
	// compete with the daemon for the CPUs during the timed set-ups.
	runtime.GC()
	hc := newClient()
	defer hc.CloseIdleConnections()

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	var prof *codecopt.Profile
	// setUpFresh replaces d with a fresh daemon that is set up, and
	// returns the profile it trained.
	setUpFresh := func() (*codecopt.Profile, error) {
		if d != nil {
			hc.CloseIdleConnections()
			d.stop()
			d = nil
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, o.ninecd); err != nil {
			return nil, err
		}
		p, err := setUp(ctx, w, d, hc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return p, nil
	}
	for rep := 0; rep < setupBefore; rep++ {
		if prof, err = setUpFresh(); err != nil {
			return nil, err
		}
	}
	profID := ""
	if prof != nil {
		profID = prof.ID()
	}

	before, err := d.scrape(hc)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	samples, start := runSchedule(ctx, w, w.reqs, hc, d.base, profID, w.open)
	elapsed := time.Since(start)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(hc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for rep := 0; rep < setupAfter; rep++ {
		if _, err := setUpFresh(); err != nil {
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	d.stop()
	d = nil

	verifiedEnc, encMismatch, err := verifyEncodes(w, samples, prof)
	if err != nil {
		return nil, err
	}
	verifiedDec, decMismatch := 0, 0
	res := &result{Attempted: len(samples)}
	failures := map[string]int{}
	for i, s := range samples {
		if w.reqs[i].op == "decode" && s.status == http.StatusOK {
			verifiedDec++
			if s.mismatch {
				decMismatch++
			}
		}
		if !s.ok {
			res.Failed++
			failures[s.describe()]++
		}
	}
	res.Correct = encMismatch == 0 && decMismatch == 0

	e2e, p95 := endToEnd(w, samples, elapsed, setups, cpu1-cpu0, rss)
	env := map[string]any{
		"commit":            commit(),
		"go":                runtime.Version(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"workload":          w.name,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"loop":              map[bool]string{true: "open", false: "closed"}[w.open],
		"connections":       conns,
		"requests":          len(w.reqs),
		"setup_requests":    len(w.warm),
		"setup_reps":        setupBefore + setupAfter,
		"setup_s_each":      setups,
		"elapsed_s":         elapsed.Seconds(),
		"slo_limit_ms":      float64(sloLimit[w.name].Microseconds()) / 1e3,
		"verified_encodes":  verifiedEnc,
		"verified_decodes":  verifiedDec,
		"encode_mismatches": encMismatch,
		"decode_mismatches": decMismatch,
		"failures":          failures,
		"latency_p95_ms":    p95,
	}
	if w.open {
		env["open_rate_per_s"] = w.rate
	}
	if o.trace {
		layers, err := perLayer(w, samples, prof, before, after, o)
		if err != nil {
			return nil, err
		}
		env["spans_file"] = layers.spansFile
		res.Metrics = layers.metrics
		// The traced run's own end-to-end numbers, for the record.
		env["end_to_end"] = e2e
	} else {
		res.Metrics = e2e
	}
	printLine(out, "env", env)
	printLine(out, "daemon_counters", after.Counters)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	return res, nil
}

func printLine(out io.Writer, label string, v any) {
	b, _ := json.Marshal(v) // maps of numbers and strings always marshal
	fmt.Fprintf(out, "%s %s\n", label, b)
}

// setUp readies a fresh daemon for the timed window: small-open trains
// its codec profile through POST /train, and every workload then runs
// its set-up pass. It returns the trained profile (nil if none).
func setUp(ctx context.Context, w *workload, d *daemon, hc *http.Client) (*codecopt.Profile, error) {
	var prof *codecopt.Profile
	if w.train != nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/train?seed=%d", d.base, w.seed), bytes.NewReader(w.train))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		var rep codecopt.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return nil, fmt.Errorf("train: status %d: %v", resp.StatusCode, err)
		}
		p, err := codecopt.ParseProfile([]byte(rep.Canonical))
		if err != nil {
			return nil, fmt.Errorf("train report profile: %w", err)
		}
		if p.ID() != rep.ProfileID {
			return nil, fmt.Errorf("train report profile %s does not hash to its id %s", p.ID(), rep.ProfileID)
		}
		prof = &p
	}
	profID := ""
	if prof != nil {
		profID = prof.ID()
	}
	samples, _ := runSchedule(ctx, w, w.warm, hc, d.base, profID, false)
	for _, s := range samples {
		if !s.ok {
			return nil, fmt.Errorf("set-up request failed: %s", s.describe())
		}
	}
	return prof, nil
}

// verifyEncodes holds every kept /encode response to a local reference
// container built after the timed window, and decodes it to check that
// it keeps every specified bit of the body it encodes; a response that
// fails either check is marked failed.
func verifyEncodes(w *workload, samples []sample, prof *codecopt.Profile) (verified, mismatches int, err error) {
	var text []byte
	for i := range samples {
		s := &samples[i]
		r := &w.reqs[i]
		if s.kept == nil {
			continue
		}
		var p *codecopt.Profile
		if r.profile {
			p = prof
		}
		body := w.materialize(nil, r)
		ref, err := referenceEncode(body, p)
		if err != nil {
			return 0, 0, fmt.Errorf("reference encode: %w", err)
		}
		verified++
		text, err = decodeText(text[:0], s.kept, nil)
		if err != nil || !bytes.Equal(ref, s.kept) || !keepsSpecifiedBits(text, body) {
			mismatches++
			s.ok, s.mismatch = false, true
		}
		s.kept = nil
	}
	return verified, mismatches, nil
}

// keepsSpecifiedBits reports whether text, decoded from an /encode
// response, keeps every specified bit of the 01X body it encodes. Both
// hold one row per line, so they line up byte for byte: every '0', '1'
// and newline of body must recur at the same place in text, and an X
// may come back as anything but a newline. The check needs no parser,
// so it also catches a fault that the reference container, built
// through the same parser and kernel as the daemon's, would share.
func keepsSpecifiedBits(text, body []byte) bool {
	if len(text) != len(body) {
		return false
	}
	for i, c := range body {
		if c == 'X' {
			if text[i] == '\n' {
				return false
			}
		} else if text[i] != c {
			return false
		}
	}
	return true
}

// endToEnd computes the user-visible metrics over the whole timed
// window: it lasted elapsed, and the daemon spent cpuTicks of CPU time
// in it. It also returns the 95th latency percentile, which goes to the
// env line only: on small-open it is the host's scheduling noise, and
// every workload must report the same metrics.
func endToEnd(w *workload, samples []sample, elapsed time.Duration, setups []float64, cpuTicks int64, rssMB float64) (map[string]metric, float64) {
	limit := float64(sloLimit[w.name].Nanoseconds()) / 1e6
	var text, wire, within, ok int
	var lat []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		ok++
		text += s.text
		wire += s.wire
		lat = append(lat, s.latMs)
		if s.latMs <= limit {
			within++
		}
	}
	mb := float64(text) / 1e6
	cpuMsPerMB := 0.0
	if mb > 0 {
		cpuMsPerMB = float64(cpuTicks) * float64(clockTick.Milliseconds()) / mb
	}
	n := float64(len(samples))
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"throughput_mb_s":      {mb / elapsed.Seconds(), "MB/s"},
		"latency_p50_ms":       {percentile(lat, 0.50), "ms"},
		"within_slo_ratio":     {float64(within) / n, "ratio"},
		"success_ratio":        {float64(ok) / n, "ratio"},
		"daemon_cpu_ms_per_mb": {cpuMsPerMB, "ms/MB"},
		"daemon_peak_rss_mb":   {rssMB, "MiB"},
		"wire_ratio":           {float64(wire) / float64(max(text, 1)), "ratio"},
	}, percentile(lat, 0.95)
}

// layerResult is the traced run's output.
type layerResult struct {
	metrics   map[string]metric
	spansFile string
}

// replaySample picks the requests the traced replay runs: enough of
// the schedule's head to cover every kind of request it holds.
func replaySample(w *workload) []request {
	n := map[string]int{encodeCold: 6, decodeStream: 6, smallOpen: 600}[w.name]
	return w.reqs[:min(n, len(w.reqs))]
}

// perLayer runs the traced replay and derives the per-layer metrics,
// with the daemon-side ones from the timed window's counter deltas.
func perLayer(w *workload, samples []sample, prof *codecopt.Profile, before, after *obs.Snapshot, o options) (*layerResult, error) {
	rep, err := replayLayers(w, replaySample(w), prof)
	if err != nil {
		return nil, err
	}
	path, err := rep.writeSpans(o.outDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	trainS := 0.0
	if w.train != nil {
		if trainS, err = trainSeconds(w.train, w.seed); err != nil {
			return nil, err
		}
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hits, misses := delta("ninecd.cache.hit"), delta("ninecd.cache.miss")
	direct, batched := delta("ninecd.batch.direct"), delta("ninecd.batch.batched")
	shed := 0.0
	for name := range after.Counters {
		if strings.Contains(name, ".shed.") {
			shed += delta(name)
		}
	}
	var hists []obs.FixedHistSnapshot
	for _, route := range []string{"encode", "decode"} {
		name := "ninecd.http." + route + ".latency_seconds"
		a, ok := after.FixedHistograms[name]
		if !ok {
			continue
		}
		b := before.FixedHistograms[name]
		d := obs.FixedHistSnapshot{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...)}
		for i := range d.Counts {
			if i < len(b.Counts) {
				d.Counts[i] -= b.Counts[i]
			}
		}
		hists = append(hists, d)
	}
	var lat, lag []float64
	for _, s := range samples {
		if s.ok {
			lat = append(lat, s.latMs)
		}
		lag = append(lag, s.lagMs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"tcube.read_ms_per_mb":           {rep.msPerMB("tcube.read"), "ms/MB"},
		"tcube.read_allocs_per_req":      {rep.readAllocs, "count"},
		"cachex.key_ms_per_mb":           {rep.msPerMB("cachex.key"), "ms/MB"},
		"cachex.hit_ratio":               {ratio(hits, hits+misses), "ratio"},
		"cachex.coalesced":               {delta("ninecd.cache.coalesced"), "count"},
		"core.encode_ms_per_mb":          {rep.msPerMB("core.encode"), "ms/MB"},
		"core.encode_allocs_per_req":     {rep.encAllocs, "count"},
		"container.write_v4_ms_per_mb":   {rep.msPerMB("container.write_v4"), "ms/MB"},
		"container.chunk_read_ms_per_mb": {rep.msPerMB("container.chunk_read"), "ms/MB"},
		"core.stream_decode_ms_per_mb":   {rep.msPerMB("core.stream_decode"), "ms/MB"},
		"bitvec.text_emit_ms_per_mb":     {rep.msPerMB("bitvec.text_emit"), "ms/MB"},
		"batchenc.encode_ms_per_mb":      {rep.msPerMB("batchenc.encode"), "ms/MB"},
		"batchenc.batched_ratio":         {ratio(batched, direct+batched), "ratio"},
		"codecopt.train_s":               {trainS, "s"},
		"ninecd.server_ms_p50":           {1e3 * histQuantile(hists, 0.5), "ms"},
		"ninecd.unattributed_ms_per_req": {percentile(lat, 0.5) - rep.bareReqMs, "ms"},
		"ninecd.shed_total":              {shed, "count"},
		"ninecd.gc_cycles":               {float64(after.Gauges["runtime.num_gc"] - before.Gauges["runtime.num_gc"]), "count"},
		"obs.trace_overhead_pct":         {rep.overheadPct, "%"},
		"loadgen.lag_p99_ms":             {percentile(lag, 0.99), "ms"},
	}
	return &layerResult{metrics: m, spansFile: path}, nil
}

// commit names the checked-out commit when the tree is a git
// repository, and "unknown" otherwise.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
