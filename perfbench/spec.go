package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

//go:embed spec.json
var specJSON []byte

// ladder is an ascending rate ladder: rung i offers start·stepⁱ req/s for
// rungS seconds, and the climb stops at the first rung that fails.
type ladder struct {
	Start    float64 `json:"start"`
	Step     float64 `json:"step"`
	RungS    float64 `json:"rung_s"`
	MaxRungs int     `json:"max_rungs"`
}

// workloadSpec is one workload's definition from spec.json. Fields a
// workload does not use stay zero.
type workloadSpec struct {
	Why         string `json:"why"`
	Keys        uint64 `json:"keys"`
	PreloadKeys uint64 `json:"preload_keys"`
	ValueBytes  int    `json:"value_bytes"`
	KeyDist     string `json:"key_dist"`
	// Partitioned gives each connection the keys congruent to its index,
	// so a per-key model of expected answers is exact.
	Partitioned bool           `json:"partitioned"`
	Theta       float64        `json:"theta"`
	Mix         map[string]int `json:"mix"`
	ScanLimit   int            `json:"scan_limit"`
	TxnOps      int            `json:"txn_ops"`
	TxnMix      map[string]int `json:"txn_mix"`

	DBBytes      int64   `json:"db_bytes"`
	DRAMBytes    int64   `json:"dram_bytes"`
	NVMBytes     int64   `json:"nvm_bytes"`
	TupleBytes   int     `json:"tuple_bytes"`
	Workers      int     `json:"workers"`
	WarmTouches  int     `json:"warm_touches_per_frame"`
	ClosedShare  float64 `json:"closed_share"`
	NominalRate  float64 `json:"nominal_rate"`
	NominalShare float64 `json:"nominal_share"`
	Ladder       ladder  `json:"ladder"`
	P99LimitUs   float64 `json:"p99_limit_us"`
	Setups       int     `json:"setups"`
}

// metricSpec names one metric with its unit and direction; Moves says
// which end-to-end metric (and workload) a per-layer metric should move.
type metricSpec struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Better  string `json:"better"`
	Moves   string `json:"moves,omitempty"`
	Meaning string `json:"meaning"`
}

type benchSpec struct {
	Connections int                     `json:"connections"`
	Workloads   map[string]workloadSpec `json:"workloads"`
	EndToEnd    []metricSpec            `json:"end_to_end"`
	PerLayer    []metricSpec            `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// checkBenchmarkJSON fails when BENCHMARK.json and spec.json disagree on
// the workloads (names and why) or on any metric's name, unit or direction,
// so the two descriptions cannot drift apart.
func checkBenchmarkJSON(s *benchSpec, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Workloads) != len(s.Workloads) {
		return fmt.Errorf("%s lists %d workloads, spec.json %d", path, len(b.Workloads), len(s.Workloads))
	}
	for _, w := range b.Workloads {
		ws, ok := s.Workloads[w.Name]
		if !ok {
			return fmt.Errorf("%s: workload %q missing from spec.json", path, w.Name)
		}
		if ws.Why != w.Why {
			return fmt.Errorf("%s: workload %q has another why than spec.json", path, w.Name)
		}
	}
	same := func(kind string, a, b []metricSpec) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s lists %d %s metrics, spec.json %d", path, len(a), kind, len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better {
				return fmt.Errorf("%s: %s metric %d is %s/%s/%s, spec.json has %s/%s/%s", path, kind, i,
					a[i].Name, a[i].Unit, a[i].Better, b[i].Name, b[i].Unit, b[i].Better)
			}
		}
		return nil
	}
	if err := same("end_to_end", b.EndToEnd, s.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", b.PerLayer, s.PerLayer)
}
