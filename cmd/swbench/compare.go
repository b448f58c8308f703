package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is one run in a record file: one JSON object per line, appended by
// -record and read by -compare.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Size     string             `json:"size"`
	Trace    int                `json:"trace"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path, workload string, o options, res workloadResult) error {
	line, err := json.Marshal(record{
		Workload: workload, Seed: o.seed, Size: o.size, Trace: o.trace,
		Correct: res.line.Correct, Metrics: res.e2e,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords returns, per workload and end-to-end metric, the values of
// every untraced, correct run in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace != 0 || !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, sc.Err()
}

// compareFiles prints a verdict for every workload × end-to-end metric that
// both record files hold, and fails when any is worse.
func compareFiles(basePath, headPath string, out io.Writer) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-15s %-15s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "base median [q1 q3] n", "head median [q1 q3] n", "change", "bound", "verdict")
	worse := 0
	for _, name := range workloadNames() {
		b, h := base[name], head[name]
		if b == nil || h == nil {
			continue
		}
		for _, d := range endToEnd {
			bv, hv := b[d.Name], h[d.Name]
			v := verdict(bv, hv, d.Bound, d.lowerIsBetter())
			if v == verdictWorse {
				worse++
			}
			change := 100 * (ratio(median(hv), median(bv)) - 1)
			fmt.Fprintf(out, "%-15s %-15s %-34s %-34s %+7.2f%% %5.0f%%  %s\n",
				name, d.Name, spread(bv), spread(hv), change, 100*d.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q1, q3, len(xs))
}
