package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyReport runs each workload o.steady times with consecutive
// seeds, each run a fresh process, and prints every metric's median,
// quartiles and relative spread (interquartile distance over median).
// An end-to-end metric whose spread exceeds its BENCHMARK.json bound is
// flagged, and any flag makes the report fail.
func steadyReport(ctx context.Context, o options, out io.Writer) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, wl := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < o.steady; i++ {
			seed := o.seed + int64(i)
			cmd := exec.CommandContext(ctx, self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", map[bool]string{true: "1", false: "0"}[o.trace],
				"--ninecd", o.ninecd, "--out", o.outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			for _, line := range bytes.Split(stdout, []byte("\n")) {
				if bytes.HasPrefix(line, []byte("env ")) {
					fmt.Fprintf(out, "%s\n", line)
				}
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(out, "%s seed %d: correct=%v failed=%d of %d\n", wl, seed, res.Correct, res.Failed, res.Attempted)
				flagged++
			}
			line, _ := json.Marshal(res.Metrics)
			fmt.Fprintf(out, "run %s seed %d %s\n", wl, seed, line)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		var metrics []string
		for name := range values {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		fmt.Fprintf(out, "%s: %d runs, seeds %d..%d\n", wl, o.steady, o.seed, o.seed+int64(o.steady)-1)
		fmt.Fprintf(out, "  %-32s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
		for _, name := range metrics {
			q1, q2, q3 := quartiles(values[name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			note := ""
			bound, ok := bounds[name]
			switch {
			case !ok:
			case spread > bound:
				note = "UNSTEADY: spread exceeds bound"
				flagged++
			case spread > bound/3:
				note = "spread above a third of bound"
			}
			bs := ""
			if ok {
				bs = strconv.FormatFloat(bound, 'f', 3, 64)
			}
			fmt.Fprintf(out, "  %-32s %12.4f %12.4f %12.4f %8.4f %6s %s %s\n", name, q1, q2, q3, spread, bs, units[name], note)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d unsteady metrics or failing runs", flagged)
	}
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(stdout []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
