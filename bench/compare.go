package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadSamples reads a comma-separated list of records and collects, per
// workload and end-to-end metric, one sample per plain run.
func loadSamples(paths string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range rec.Runs {
			if run.Traced {
				continue
			}
			if out[run.Workload] == nil {
				out[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.Metrics {
				out[run.Workload][name] = append(out[run.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// verdict judges new against base for one metric. change is the relative
// move of the median in the worse direction (negative = improved), spread
// the wider of the two sides' quartile spreads. A spread wider than the
// bound cannot resolve a move of the bound's size, whichever way it points.
func verdict(base, new []float64, better string, bound float64) (change, spread float64, v string) {
	b, n := median(base), median(new)
	if b != 0 {
		change = (n - b) / b
	}
	if better == "higher" {
		change = -change
	}
	spread = max(quartileSpread(base), quartileSpread(new))
	switch {
	case spread > bound:
		v = "unresolved"
	case change > bound:
		v = "worse"
	case change < -bound:
		v = "better"
	default:
		v = "same"
	}
	return change, spread, v
}

// compareRecords prints one row per (workload, end-to-end metric) and
// reports whether any row is worse.
func compareRecords(w io.Writer, benchmarkPath, oldPaths, newPaths string) (worse bool, err error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	base, err := loadSamples(oldPaths)
	if err != nil {
		return false, err
	}
	cur, err := loadSamples(newPaths)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			b, n := base[wl.Name][m.Name], cur[wl.Name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.3f\tmissing\n", wl.Name, m.Name, m.Bound)
				continue
			}
			_, spread, v := verdict(b, n, m.Better, m.Bound)
			ratio := 0.0
			if median(b) != 0 {
				ratio = median(n) / median(b)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.4f\t%.4f\t%.3f\t%s\n",
				wl.Name, m.Name, median(b), m.Unit, median(n), m.Unit, ratio, spread, m.Bound, v)
			worse = worse || v == "worse"
		}
	}
	return worse, tw.Flush()
}
