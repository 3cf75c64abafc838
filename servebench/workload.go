package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// Workload names, as BENCHMARK.json lists them.
const (
	encodeCold   = "encode-cold"
	decodeStream = "decode-stream"
	smallOpen    = "small-open"
)

var workloadNames = []string{encodeCold, decodeStream, smallOpen}

// Nominal request rates size each run's fixed schedule: a run issues
// seconds×rate requests, so every run of a workload does the same work
// whatever the daemon's speed, and cache fill and peak RSS compare
// across runs. The closed-loop rates are about what 2 connections
// complete per second on a 2-vCPU x86-64 host at the commit that
// defined the benchmark; small-open's rate is its open-loop arrival
// rate, about a third of its closed-loop capacity on that host.
const (
	encodeColdRate   = 100.0
	decodeStreamRate = 40.0
	smallOpenRate    = 1700.0
)

// Latency limits behind within_slo_ratio, one per workload: roughly
// five times the p50 each workload showed when the limits were fixed.
var sloLimit = map[string]time.Duration{
	encodeCold:   400 * time.Millisecond,
	decodeStream: 1500 * time.Millisecond,
	smallOpen:    10 * time.Millisecond,
}

// request is one HTTP call of a schedule.
type request struct {
	op      string // "encode" or "decode"
	body    []byte // request body; nil when cold is set
	cold    int    // with body nil: the encode-cold body index
	profile bool   // send X-Codec-Profile with the trained profile
	expect  []byte // decode: the exact response body
	text    int    // bytes of 01X text the request moves
	verify  bool   // encode: keep the response for reference comparison
}

// workload is a fully generated input: a fixed request schedule plus
// the set-up traffic. Everything derives from the seed.
type workload struct {
	name  string
	seed  int64
	open  bool    // open loop at rate; closed loop of conns otherwise
	rate  float64 // open-loop arrivals per second
	reqs  []request
	warm  []request // set-up pass before the timed window
	cold  *coldPool // encode-cold body source
	train []byte    // small-open: the /train corpus
}

// conns is the connection count of every workload: one per CPU of the
// 2-vCPU host the benchmark targets, and never more.
const conns = 2

// mintest returns the s38584-like Mintest cube profile (82% X, short
// bursty specified runs) at the given geometry.
func mintest(patterns, width int, seed int64) synth.CubeProfile {
	cs, _ := synth.BenchmarkByName("s38584")
	p := synth.CubeProfileFor(cs, seed)
	p.Patterns, p.Width = patterns, width
	return p
}

// industrial returns the Table VIII high-X profile (CKT2-like: 96% X,
// long uniform bursts) at the given pattern count.
func industrial(patterns int, seed int64) synth.CubeProfile {
	cs, _ := synth.BenchmarkByName("CKT2")
	p := synth.CubeProfileFor(cs, seed)
	p.Patterns = patterns
	return p
}

// rowsOf renders every cube of s as one 01X row (no newline).
func rowsOf(s *tcube.Set) [][]byte {
	rows := make([][]byte, s.Len())
	for i := range rows {
		c := s.Cube(i)
		rows[i] = c.AppendTextRange(nil, 0, c.Len())
	}
	return rows
}

// textOf joins rows into 01X text, one row per line.
func textOf(rows [][]byte) []byte {
	n := 0
	for _, r := range rows {
		n += len(r) + 1
	}
	out := make([]byte, 0, n)
	for _, r := range rows {
		out = append(append(out, r...), '\n')
	}
	return out
}

// generate builds workload name's inputs for seed, sized for a run of
// seconds. The same arguments give byte-identical inputs.
func generate(name string, seed int64, seconds int) (*workload, error) {
	w := &workload{name: name, seed: seed}
	var err error
	switch name {
	case encodeCold:
		err = w.genEncodeCold(int(seconds * encodeColdRate))
	case decodeStream:
		err = w.genDecodeStream(int(seconds * decodeStreamRate))
	case smallOpen:
		w.open, w.rate = true, smallOpenRate
		err = w.genSmallOpen(int(seconds * smallOpenRate))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", name, err)
	}
	return w, nil
}

// --- encode-cold -----------------------------------------------------

// Encode-cold bodies are ~1 MiB Mintest-profile sets: coldRows rows of
// coldWidth bits from one of coldBases base sets, in a seeded row order,
// with the request index written into the first row's first 32 bits so
// no two bodies (and so no two cache keys) are equal.
const (
	coldBases = 4
	coldRows  = 716
	coldWidth = 1464
	coldWarm  = 2 * conns // set-up bodies, indices after the schedule
)

// coldPool materializes encode-cold bodies. Only the base sets live in
// memory; a body is a row permutation of one, rebuilt when sent, which
// costs a copy instead of holding hundreds of MiB of distinct bodies.
type coldPool struct {
	seed  int64
	bases [][][]byte
}

// body writes cold body i into dst[:0] and returns it.
func (p *coldPool) body(dst []byte, i int) []byte {
	rng := rand.New(rand.NewSource(p.seed ^ int64(i+1)*0x2545F4914F6CDD1D))
	rows := p.bases[rng.Intn(len(p.bases))]
	perm := rng.Perm(len(rows))
	dst = dst[:0]
	for j, r := range perm {
		start := len(dst)
		dst = append(append(dst, rows[r]...), '\n')
		if j == 0 {
			for b := 0; b < 32; b++ {
				dst[start+b] = '0' + byte(uint32(i)>>b&1)
			}
		}
	}
	return dst
}

func (w *workload) genEncodeCold(n int) error {
	p := &coldPool{seed: w.seed}
	for b := 0; b < coldBases; b++ {
		set, err := mintest(coldRows, coldWidth, w.seed*131+int64(b)).Generate()
		if err != nil {
			return err
		}
		p.bases = append(p.bases, rowsOf(set))
	}
	w.cold = p
	text := coldRows * (coldWidth + 1)
	// A seeded sample of 8 responses is held to local reference encodes.
	rng := rand.New(rand.NewSource(w.seed ^ 0x7665726966))
	sample := map[int]bool{}
	for len(sample) < min(8, n) {
		sample[rng.Intn(n)] = true
	}
	for i := 0; i < n; i++ {
		w.reqs = append(w.reqs, request{op: "encode", cold: i, text: text, verify: sample[i]})
	}
	for i := n; i < n+coldWarm; i++ {
		w.warm = append(w.warm, request{op: "encode", cold: i, text: text})
	}
	return nil
}

// --- decode-stream ---------------------------------------------------

// The decode pool is a fixed table, so every seed decodes the same mix
// and runs compare: both profiles at every K in {8,16,32}, on a ladder
// of 1..4 MiB of decoded text. Seven sizes put the median and the 95th
// percentile inside one size class each, instead of on the boundary
// between two. The seed draws each set's content and the request order.
var decodePool = []struct {
	industrial bool
	k          int
	mib        float64
}{
	{false, 8, 1}, {true, 16, 1.5}, {false, 32, 2}, {true, 8, 2.5},
	{false, 16, 3}, {true, 32, 3.5}, {false, 8, 4},
}

// pooled is one decode-stream pool entry.
type pooled struct {
	cont   []byte // v4 container
	expect []byte // the text /decode must return
}

func (w *workload) genDecodeStream(n int) error {
	rng := rand.New(rand.NewSource(w.seed))
	var pool []pooled
	for i, slot := range decodePool {
		size, seed := int(slot.mib*(1<<20)), w.seed*977+int64(i)
		prof := mintest(size/(coldWidth+1), coldWidth, seed)
		if slot.industrial {
			width := industrial(0, 0).Width
			prof = industrial(size/(width+1), seed)
		}
		set, err := prof.Generate()
		if err != nil {
			return err
		}
		e, err := buildDecodeEntry(set, slot.k, fmt.Sprintf("pool-%d", i))
		if err != nil {
			return err
		}
		pool = append(pool, e)
	}
	// Round-robin over a seeded order, so each container is decoded
	// equally often.
	order := rng.Perm(len(pool))
	// Whole rounds only.
	n = (n + len(pool) - 1) / len(pool) * len(pool)
	for i := 0; i < n; i++ {
		e := pool[order[i%len(order)]]
		w.reqs = append(w.reqs, request{op: "decode", body: e.cont, expect: e.expect, text: len(e.expect)})
	}
	for _, e := range pool {
		w.warm = append(w.warm, request{op: "decode", body: e.cont, expect: e.expect, text: len(e.expect)})
	}
	return nil
}

// buildDecodeEntry encodes set at block size k into a v4 container the
// way ninecload builds its corpus, and derives the text /decode must
// return: the set after the codec's don't-care fill, which must keep
// every specified bit of the source.
func buildDecodeEntry(set *tcube.Set, k int, name string) (pooled, error) {
	cdc, err := core.New(k)
	if err != nil {
		return pooled{}, err
	}
	res, err := cdc.EncodeSet(set)
	if err != nil {
		return pooled{}, err
	}
	res.Name = name
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, res, container.Magic4); err != nil {
		return pooled{}, err
	}
	expect, err := decodeText(nil, buf.Bytes(), nil)
	if err != nil {
		return pooled{}, fmt.Errorf("reference decode: %w", err)
	}
	got, err := tcube.Read(name, bytes.NewReader(expect))
	if err != nil {
		return pooled{}, err
	}
	if !set.Covers(got) {
		return pooled{}, fmt.Errorf("%s: reference decode drops specified bits of the source set", name)
	}
	return pooled{cont: buf.Bytes(), expect: expect}, nil
}

// --- small-open ------------------------------------------------------

// Small-open traffic: ~4 KiB s9234-like sets (smallRows × 247 bits).
// Half the requests decode a small container, half encode; of the
// encodes smallColdPct% are never-seen sets and the rest replay a
// smallCorpus-set corpus the cache holds after set-up. Half of all
// encodes carry the profile /train produced during set-up. Cold
// encodes, the slowest kind, are 10% of requests, so the 95th
// percentile falls inside their class rather than on its edge.
const (
	smallRows    = 16
	smallCorpus  = 32
	smallColdPct = 20
)

func smallSet(seed int64) (*tcube.Set, error) {
	cs, _ := synth.BenchmarkByName("s9234")
	p := synth.CubeProfileFor(cs, seed)
	p.Patterns = smallRows
	return p.Generate()
}

func (w *workload) genSmallOpen(n int) error {
	var corpus, conts, expects [][]byte
	for i := 0; i < smallCorpus; i++ {
		set, err := smallSet(w.seed*7919 + int64(i))
		if err != nil {
			return err
		}
		text := textOf(rowsOf(set))
		e, err := buildDecodeEntry(set, 8, fmt.Sprintf("small-%d", i))
		if err != nil {
			return err
		}
		corpus = append(corpus, text)
		conts = append(conts, e.cont)
		expects = append(expects, e.expect)
		w.train = append(w.train, text...)
	}

	// Exact proportions, seeded placement: the mix is the same for
	// every seed, only its order and content differ.
	rng := rand.New(rand.NewSource(w.seed))
	kinds := make([]int, n) // 0 decode, 1 replay encode, 2 cold encode
	encodes := n / 2
	coldN := encodes * smallColdPct / 100
	for i := range kinds {
		switch {
		case i < encodes-coldN:
			kinds[i] = 1
		case i < encodes:
			kinds[i] = 2
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	enc := 0
	for i, kind := range kinds {
		switch kind {
		case 0:
			j := rng.Intn(smallCorpus)
			w.reqs = append(w.reqs, request{op: "decode", body: conts[j], expect: expects[j], text: len(expects[j])})
			continue
		case 1:
			j := rng.Intn(smallCorpus)
			w.reqs = append(w.reqs, request{op: "encode", body: corpus[j], text: len(corpus[j])})
		case 2:
			set, err := smallSet(w.seed*7919 + int64(smallCorpus+i))
			if err != nil {
				return err
			}
			body := textOf(rowsOf(set))
			w.reqs = append(w.reqs, request{op: "encode", body: body, text: len(body)})
		}
		last := &w.reqs[len(w.reqs)-1]
		last.profile = enc%2 == 1
		last.verify = rng.Intn(16) == 0
		enc++
	}
	for j := range corpus {
		for _, prof := range []bool{false, true} {
			w.warm = append(w.warm, request{op: "encode", body: corpus[j], text: len(corpus[j]), profile: prof})
		}
		w.warm = append(w.warm, request{op: "decode", body: conts[j], expect: expects[j], text: len(expects[j])})
	}
	return nil
}

// materialize returns r's request body, using dst as scratch for
// encode-cold bodies.
func (w *workload) materialize(dst []byte, r *request) []byte {
	if r.body != nil {
		return r.body
	}
	return w.cold.body(dst, r.cold)
}
