package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/cachex"
	"repro/internal/codecopt"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// digest hashes every input byte a workload would send or expect.
func digest(w *workload) [32]byte {
	h := sha256.New()
	for _, set := range [][]request{w.reqs, w.warm} {
		for i := range set {
			r := &set[i]
			fmt.Fprintf(h, "%s %v %v %d|", r.op, r.profile, r.verify, r.text)
			h.Write(w.materialize(nil, r))
			h.Write(r.expect)
		}
	}
	h.Write(w.train)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestEncodeColdNeverRepeatsAKey(t *testing.T) {
	w, err := generate(encodeCold, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[cachex.Key]int{}
	for i, r := range append(append([]request(nil), w.warm...), w.reqs...) {
		body := w.materialize(nil, &r)
		if len(body) < 1<<20-64<<10 || len(body) > 1<<20+64<<10 {
			t.Fatalf("request %d: body is %d bytes, want about 1 MiB", i, len(body))
		}
		k := cachex.EncodeParams{K: 8, Name: encodeName}.Key(body)
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share a cache key", j, i)
		}
		seen[k] = i
	}
}

func TestSmallOpenMix(t *testing.T) {
	w, err := generate(smallOpen, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, r := range w.reqs {
		n[r.op]++
		if r.profile {
			n["profiled"]++
		}
	}
	if n["decode"] != len(w.reqs)-len(w.reqs)/2 || n["encode"] != len(w.reqs)/2 {
		t.Errorf("mix %v, want an even decode/encode split of %d", n, len(w.reqs))
	}
	if d := n["profiled"] - n["encode"]/2; d < -1 || d > 1 {
		t.Errorf("%d of %d encodes profiled, want half", n["profiled"], n["encode"])
	}
}

func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := generate(smallOpen, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd(w, []sample{{ok: true, latMs: 1, text: 10, wire: 1}}, time.Second, []float64{1}, 1, 1)
	set, err := tcube.Read("corpus", bytes.NewReader(w.train))
	if err != nil {
		t.Fatal(err)
	}
	trained, err := codecopt.Search([]*tcube.Set{set}, codecopt.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayer(w, nil, &trained.Profile, &obs.Snapshot{}, &obs.Snapshot{}, options{seed: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		kind string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layers.metrics, spec.PerLayer}} {
		var got, want []string
		for name, m := range c.got {
			if !valid.MatchString(name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", c.kind, name)
			}
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s metrics\n got  %v\n want %v (BENCHMARK.json)", c.kind, got, want)
		}
	}
}

// An encode response must decode to text that keeps every specified
// bit of its body, fixed-code and profiled alike; a flipped specified
// bit or a lost row must be caught.
func TestEncodeRoundTripKeepsSpecifiedBits(t *testing.T) {
	w, err := generate(smallOpen, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := tcube.Read("corpus", bytes.NewReader(w.train))
	if err != nil {
		t.Fatal(err)
	}
	trained, err := codecopt.Search([]*tcube.Set{set}, codecopt.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := w.warm[0].body
	for _, prof := range []*codecopt.Profile{nil, &trained.Profile} {
		cont, err := referenceEncode(body, prof)
		if err != nil {
			t.Fatal(err)
		}
		text, err := decodeText(nil, cont, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !keepsSpecifiedBits(text, body) {
			t.Fatalf("profiled=%v: decoded encode drops specified bits", prof != nil)
		}
		if keepsSpecifiedBits(text[:len(text)-len(text)/16-1], body) {
			t.Errorf("profiled=%v: truncated text passed", prof != nil)
		}
		i := bytes.IndexAny(body, "01")
		bad := append([]byte(nil), text...)
		bad[i] ^= '0' ^ '1'
		if keepsSpecifiedBits(bad, body) {
			t.Errorf("profiled=%v: flipped specified bit at %d passed", prof != nil, i)
		}
	}
}
