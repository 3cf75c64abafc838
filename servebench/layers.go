package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/batchenc"
	"repro/internal/bitvec"
	"repro/internal/cachex"
	"repro/internal/codecopt"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// The per-layer run replays the public calls the ninecd handlers make,
// in the handlers' order and on the workload's own inputs, with a span
// around each call. Spans come from internal/obs and are collected in
// memory under one root per request; self time is a span's duration
// minus its direct children's. The untraced passes make the same calls
// with nil spans (every obs.Span method is nil-safe), so the difference
// between the two is the tracing overhead.

// encodeName is the set name the daemon stores when /encode carries no
// name parameter; the benchmark's encodes never send one.
const encodeName = "request"

// codecs caches decode codecs by (K, assignment), as the daemon does.
var codecs sync.Map

type codecKey struct {
	k int
	a core.Assignment
}

func codecFor(k int, a core.Assignment) (*core.Codec, error) {
	if c, ok := codecs.Load(codecKey{k, a}); ok {
		return c.(*core.Codec), nil
	}
	c, err := core.NewWithAssignment(k, a)
	if err != nil {
		return nil, err
	}
	codecs.Store(codecKey{k, a}, c)
	return c, nil
}

// spanSource times every chunk the stream decoder pulls, as a child of
// the pattern span that caused the pull.
type spanSource struct {
	chr    *container.ChunkReader
	parent *obs.Span
}

func (s *spanSource) ReadStream() (*bitvec.Cube, error) {
	sp := s.parent.Child("container.chunk_read")
	defer sp.End()
	return s.chr.ReadStream()
}

// decodeText appends the text POST /decode returns for the v4
// container cont to dst: the calls of ninecd's chunked decode path,
// spanned under root when it is non-nil.
func decodeText(dst, cont []byte, root *obs.Span) ([]byte, error) {
	sp := root.Child("container.chunk_read")
	chr, err := container.NewChunkReader(bytes.NewReader(cont), robust.DecodeLimits{})
	sp.End()
	if err != nil {
		return dst, err
	}
	h := chr.Header()
	cdc, err := codecFor(h.K, h.Assign)
	if err != nil {
		return dst, err
	}
	src := &spanSource{chr: chr}
	dec, err := cdc.NewStreamDecoder(src, h.Width, robust.DecodeLimits{})
	if err != nil {
		return dst, err
	}
	for {
		src.parent = root.Child("core.stream_decode")
		p, err := dec.ReadPattern()
		src.parent.End()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		sp := root.Child("bitvec.text_emit")
		dst = append(p.AppendTextRange(dst, 0, p.Len()), '\n')
		sp.End()
	}
}

// replayer holds the in-process stand-ins for the daemon's encode-side
// state: a result cache and a direct-path batch encoder.
type replayer struct {
	cache   *cachex.Cache
	enc     *batchenc.Encoder
	prof    *codecopt.Profile
	profID  string
	scratch []byte
}

func newReplayer(reg *obs.Registry, prof *codecopt.Profile) *replayer {
	rp := &replayer{
		cache: cachex.New(cachex.Config{
			MaxBytes: 256 << 20,
			Size:     func(v any) int64 { return int64(len(v.(batchenc.Result).Container)) + 64 },
			Registry: reg,
		}),
		enc:  batchenc.New(batchenc.Config{Registry: reg}),
		prof: prof,
	}
	if prof != nil {
		rp.profID = prof.ID()
	}
	return rp
}

// encode is ninecd's /encode handler sequence: key the body, then on a
// cache miss parse it and run the direct encode path.
func (rp *replayer) encode(ctx context.Context, body []byte, profiled bool, root *obs.Span) (batchenc.Result, error) {
	k, id := 8, ""
	var prof *codecopt.Profile
	if profiled {
		prof, id, k = rp.prof, rp.profID, rp.prof.K
	}
	sp := root.Child("cachex.key")
	key := cachex.EncodeParams{K: k, Name: encodeName, Profile: id}.Key(body)
	sp.End()
	do := root.Child("cachex.do")
	defer do.End()
	v, _, err := rp.cache.Do(ctx, key, func() (any, error) {
		sp := do.Child("tcube.read")
		set, err := tcube.Read(encodeName, bytes.NewReader(body))
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = do.Child("batchenc.encode")
		defer sp.End()
		return rp.enc.Encode(ctx, batchenc.Request{Set: set, K: k, Name: encodeName, Profile: prof})
	})
	if err != nil {
		return batchenc.Result{}, err
	}
	return v.(batchenc.Result), nil
}

// referenceEncode is the local reference container for body: the
// direct batchenc path with no cache, as ninecload's -verify builds it.
func referenceEncode(body []byte, prof *codecopt.Profile) ([]byte, error) {
	set, err := tcube.Read(encodeName, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := batchenc.New(batchenc.Config{}).Encode(context.Background(),
		batchenc.Request{Set: set, K: 8, Name: encodeName, Profile: prof})
	return res.Container, err
}

// decomposed splits batchenc's direct path into its two calls, the
// core kernel and the v4 framing, timing each and counting the parse
// and kernel allocations. It returns the allocation counts.
func decomposed(body []byte, prof *codecopt.Profile, root *obs.Span) (readAllocs, encAllocs uint64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	set, err := tcube.Read(encodeName, bytes.NewReader(body))
	runtime.ReadMemStats(&ms)
	readAllocs = ms.Mallocs - before
	if err != nil {
		return 0, 0, err
	}
	cdc, err := codecFor(8, core.DefaultAssignment())
	if prof != nil {
		if set, err = prof.Fill.Apply(set); err != nil {
			return 0, 0, err
		}
		cdc, err = prof.Codec()
	}
	if err != nil {
		return 0, 0, err
	}
	ws := core.GetWorkspace()
	defer ws.Release()
	runtime.ReadMemStats(&ms)
	before = ms.Mallocs
	sp := root.Child("core.encode")
	res, err := cdc.EncodeSetWSCtx(context.Background(), ws, set)
	sp.End()
	runtime.ReadMemStats(&ms)
	encAllocs = ms.Mallocs - before
	if err != nil {
		return 0, 0, err
	}
	res.Name = encodeName
	// Into a fresh buffer, as batchenc's direct path writes it.
	var buf bytes.Buffer
	sp = root.Child("container.write_v4")
	err = container.WriteVersion(&buf, res, container.Magic4)
	sp.End()
	return readAllocs, encAllocs, err
}

// layerReport is what the traced replay measures.
type layerReport struct {
	selfNs      map[string]int64 // summed self time per span name, traced passes
	bytes       map[string]int64 // text bytes each layer processed, traced passes
	readAllocs  float64          // median per tcube.Read call
	encAllocs   float64          // median per EncodeSetWSCtx call
	bareReqMs   float64          // median per-request handler-sequence time, untraced
	overheadPct float64          // traced vs untraced pass time
	spans       []obs.SpanRecord
}

// replayPasses is how many untraced and traced passes alternate.
const replayPasses = 3

// replayLayers runs the workload's sample through the handler call
// sequence, alternating untraced and traced passes.
func replayLayers(w *workload, sample []request, prof *codecopt.Profile) (*layerReport, error) {
	reg := obs.NewRegistry()
	// The daemon runs with telemetry on, so both passes do too; the
	// traced passes add only the collected layer spans.
	obs.Enable(reg)
	defer obs.Disable()
	rep := &layerReport{selfNs: map[string]int64{}, bytes: map[string]int64{}}
	var bareTotals, tracedTotals []float64
	var bareReqs []float64
	for pass := 0; pass < 2*replayPasses; pass++ {
		traced := pass%2 == 1
		total, perReq, err := replayPass(w, sample, prof, reg, traced, rep)
		if err != nil {
			return nil, err
		}
		if traced {
			tracedTotals = append(tracedTotals, total)
		} else {
			bareTotals = append(bareTotals, total)
			bareReqs = append(bareReqs, perReq...)
		}
	}
	rep.bareReqMs = median(bareReqs)
	rep.overheadPct = 100 * (median(tracedTotals) - median(bareTotals)) / median(bareTotals)

	var readA, encA []float64
	for _, r := range sample {
		if r.op != "encode" {
			continue
		}
		var p *codecopt.Profile
		if r.profile {
			p = prof
		}
		body := w.materialize(nil, &r)
		ra, ea, err := decomposed(body, p, nil)
		if err != nil {
			return nil, err
		}
		readA, encA = append(readA, float64(ra)), append(encA, float64(ea))
		root := reg.Span("encode.decomposed").Collect()
		if _, _, err := decomposed(body, p, root); err != nil {
			return nil, err
		}
		root.End()
		rep.add(root.Records())
		rep.bytes["core.encode"] += int64(len(body))
		rep.bytes["container.write_v4"] += int64(len(body))
	}
	rep.readAllocs, rep.encAllocs = median(readA), median(encA)
	return rep, nil
}

// replayPass replays the sample once and returns its total and
// per-request times in ms.
func replayPass(w *workload, sample []request, prof *codecopt.Profile, reg *obs.Registry, traced bool, rep *layerReport) (float64, []float64, error) {
	ctx := context.Background()
	rp := newReplayer(reg, prof)
	// Small-open replays a corpus the daemon's cache holds after set-up;
	// warm the stand-in cache the same way, outside the timing.
	if w.name == smallOpen {
		for _, r := range w.warm {
			if r.op == "encode" {
				if _, err := rp.encode(ctx, r.body, r.profile, nil); err != nil {
					return 0, nil, err
				}
			}
		}
	}
	var perReq []float64
	var out []byte
	runtime.GC()
	start := time.Now()
	for i := range sample {
		r := &sample[i]
		var root *obs.Span
		if traced {
			root = reg.Span(r.op).Collect()
		}
		body := w.materialize(rp.scratch, r)
		if r.body == nil {
			rp.scratch = body
		}
		t0 := time.Now()
		var err error
		var res batchenc.Result
		if r.op == "encode" {
			res, err = rp.encode(ctx, body, r.profile, root)
		} else {
			out, err = decodeText(out[:0], body, root)
		}
		perReq = append(perReq, msSince(t0))
		switch {
		case err != nil:
		case r.op == "encode" && len(res.Container) == 0:
			err = fmt.Errorf("empty container")
		case r.op == "decode" && !bytes.Equal(out, r.expect):
			err = fmt.Errorf("replayed decode differs from the expected text")
		}
		if err != nil {
			return 0, nil, fmt.Errorf("replay %s: %w", r.op, err)
		}
		if traced {
			root.End()
			recs := root.Records()
			rep.add(recs)
			rep.countBytes(recs, r.text)
		}
	}
	return msSince(start), perReq, nil
}

// add accumulates self time per span name and keeps the records.
func (rep *layerReport) add(recs []obs.SpanRecord) {
	child := map[int64]int64{}
	for _, r := range recs {
		child[r.ParentID] += r.DurNs
	}
	for _, r := range recs {
		rep.selfNs[r.Name] += r.DurNs - child[r.SpanID]
	}
	rep.spans = append(rep.spans, recs...)
}

// countBytes charges one request's text bytes to each layer that ran
// for it, so every layer's time is per MB of the text it handled.
func (rep *layerReport) countBytes(recs []obs.SpanRecord, text int) {
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.Name] {
			seen[r.Name] = true
			rep.bytes[r.Name] += int64(text)
		}
	}
}

// msPerMB is layer name's self time per MB of the text it handled; 0
// when the workload never runs that layer.
func (rep *layerReport) msPerMB(name string) float64 {
	if rep.bytes[name] == 0 {
		return 0
	}
	return float64(rep.selfNs[name]) / 1e6 / (float64(rep.bytes[name]) / 1e6)
}

// writeSpans writes the collected spans as NDJSON under dir.
func (rep *layerReport) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sort.SliceStable(rep.spans, func(i, j int) bool { return rep.spans[i].StartUnixNano < rep.spans[j].StartUnixNano })
	enc := json.NewEncoder(f)
	for _, s := range rep.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// trainSeconds times the search POST /train runs, on the same corpus
// with the same options: the median of three searches.
func trainSeconds(corpus []byte, seed int64) (float64, error) {
	set, err := tcube.Read("corpus", bytes.NewReader(corpus))
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := codecopt.Search([]*tcube.Set{set}, codecopt.Options{Seed: seed}); err != nil {
			return 0, err
		}
		ts = append(ts, msSince(t0)/1e3)
	}
	return median(ts), nil
}
