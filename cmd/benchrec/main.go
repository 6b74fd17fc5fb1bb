// Command benchrec parses `go test -bench` output on stdin and merges the
// results into a JSON benchmark ledger, so performance work on the
// simulator leaves an auditable before/after trail (see bench.sh).
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=2x ./... | benchrec -label pr2 -o BENCH.json
//
// Each invocation appends (or replaces, when the label already exists) one
// labeled record set. When the ledger holds two or more labels, the tool
// prints per-benchmark deltas of the last label against the first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name     string  `json:"name"`
	Package  string  `json:"package,omitempty"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op,omitempty"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
	MBPerSec float64 `json:"mb_per_s,omitempty"`
}

// RecordSet is all results from one labeled run.
type RecordSet struct {
	Label   string   `json:"label"`
	Results []Result `json:"results"`
}

// Ledger is the on-disk shape of the JSON file.
type Ledger struct {
	Records []RecordSet `json:"records"`
}

// benchLine matches e.g.
//
//	BenchmarkSleepEvents-8   100000   486.0 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	label := flag.String("label", "", "label for this record set (required)")
	outPath := flag.String("o", "BENCH.json", "benchmark ledger to update")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchrec: -label is required")
		os.Exit(2)
	}

	set := RecordSet{Label: *label}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := Result{Name: m[1], Package: pkg, Iters: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BPerOp = v
			case "allocs/op":
				r.AllocsOp = v
			case "MB/s":
				r.MBPerSec = v
			}
		}
		set.Results = append(set.Results, r)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(set.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchrec: no benchmark lines on stdin")
		os.Exit(1)
	}

	ledger := Ledger{}
	if raw, err := os.ReadFile(*outPath); err == nil {
		if err := json.Unmarshal(raw, &ledger); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *outPath, err))
		}
	}
	replaced := false
	for i := range ledger.Records {
		if ledger.Records[i].Label == *label {
			ledger.Records[i] = set
			replaced = true
			break
		}
	}
	if !replaced {
		ledger.Records = append(ledger.Records, set)
	}

	out, err := json.MarshalIndent(&ledger, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchrec: %s: recorded %d results under %q\n", *outPath, len(set.Results), *label)

	if len(ledger.Records) >= 2 {
		printDeltas(ledger.Records[0], ledger.Records[len(ledger.Records)-1])
	}
}

// printDeltas reports the last record set against the baseline, benchmark
// by benchmark.
func printDeltas(base, cur RecordSet) {
	byName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		byName[r.Package+"."+r.Name] = r
	}
	fmt.Printf("%-32s %12s %12s %9s %12s %12s %9s\n",
		"benchmark", base.Label+" ns/op", cur.Label+" ns/op", "Δns", base.Label+" B/op", cur.Label+" B/op", "ΔB")
	for _, r := range cur.Results {
		b, ok := byName[r.Package+"."+r.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-32s %12.0f %12.0f %8.1f%% %12.0f %12.0f %8.1f%%\n",
			r.Name, b.NsPerOp, r.NsPerOp, pct(b.NsPerOp, r.NsPerOp),
			b.BPerOp, r.BPerOp, pct(b.BPerOp, r.BPerOp))
	}
}

func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrec:", err)
	os.Exit(1)
}
