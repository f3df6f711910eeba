// Command perfbench is the repository's benchmark for the FACT
// pipeline. It runs one workload (solve-n4, classify-n5, decide-n3 or
// serve-n4) through the program's public Go calls, checks every output
// it measures, and prints one JSON result as its last line of output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a
// separate traced replay. Every run executes in a fresh child process,
// so a fatal runtime error is a counted failed run whose stderr is kept
// under .bench_out/. Run it through perfbench/run.sh from the
// repository root, which builds it from source first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	outDir   = ".bench_out"        // results, trace reports, kept stderr
	workRoot = ".bench_build/work" // per-run scratch files, removed after the run
	specFile = "BENCHMARK.json"    // metric names and units
	childCap = 170 * time.Second   // a child running longer is killed and counted failed
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childOut is what a workload child reports to its parent.
type childOut struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Named     map[string]metric `json:"named,omitempty"`
	Report    map[string]any    `json:"report,omitempty"`
}

// result is the JSON line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced replay reporting per-layer metrics")
	child := flag.String("child", "", "internal: run in this scratch directory as the workload child")
	flag.Parse()
	if *child != "" {
		if err := runChild(*workload, *seed, *seconds, *trace == 1, *child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func runParent(workload string, seed int64, seconds, trace int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	want := map[string]string{}
	if trace == 0 {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tag := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)

	out, rss, stderr, runErr := spawn(workload, seed, seconds, trace, dir)
	res := result{Metrics: map[string]metric{}}
	if runErr != nil {
		// A crashed or killed child is one failed run: every metric it
		// would have measured is missing, so the run reads as failed.
		errPath := filepath.Join(outDir, tag+".stderr")
		_ = os.WriteFile(errPath, stderr, 0o644)
		fmt.Printf("run failed: %v (stderr kept in %s)\n", runErr, errPath)
		res.Attempted, res.Failed = 1, 1
		for name, unit := range want {
			res.Metrics[name] = metric{0, unit}
		}
		return printResult(res)
	}
	if trace == 0 {
		out.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		if out.Named == nil {
			out.Named = map[string]metric{}
		}
		out.Named["peak_rss_mb"] = metric{rss, "MB"}
		out.Named["failed_share"] = metric{float64(out.Failed) / float64(max(out.Attempted, 1)), "share"}
	}
	for name, unit := range want {
		m, ok := out.Metrics[name]
		if !ok {
			return fmt.Errorf("workload %s reported no %s", workload, name)
		}
		if m.Unit != unit {
			return fmt.Errorf("workload %s reported %s in %s, BENCHMARK.json says %s", workload, name, m.Unit, unit)
		}
	}
	for name := range out.Metrics {
		if _, ok := want[name]; !ok {
			delete(out.Metrics, name)
		}
	}
	printNamed(workload, out)
	for _, p := range out.Problems {
		fmt.Println("check failed:", p)
	}
	host := map[string]any{"cpus": runtime.NumCPU(), "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH}
	full := map[string]any{"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"host": host, "attempted": out.Attempted, "failed": out.Failed, "problems": out.Problems,
		"metrics": out.Metrics, "named": out.Named}
	if out.Report != nil {
		full["trace_report"] = out.Report
	}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(outDir, tag+".json"), b, 0o644)
	}
	res.Correct = out.Failed == 0
	res.Attempted, res.Failed, res.Metrics = out.Attempted, out.Failed, out.Metrics
	return printResult(res)
}

// spawn runs the workload in a fresh child process and returns its
// report, its peak resident set size in MB and its stderr.
func spawn(workload string, seed int64, seconds, trace int, dir string) (*childOut, float64, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childCap)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--child", dir, "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, stderr.Bytes(), err
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if rss <= 0 {
		return nil, 0, stderr.Bytes(), errors.New("no resident-set figure for the child")
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, stderr.Bytes(), fmt.Errorf("child output: %w", err)
	}
	return &out, rss, stderr.Bytes(), nil
}

func printNamed(workload string, out *childOut) {
	fmt.Printf("workload %s: attempted %d, failed %d\n", workload, out.Attempted, out.Failed)
	names := make([]string, 0, len(out.Named))
	for k := range out.Named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, out.Named[k].Value, out.Named[k].Unit)
	}
	if len(out.Named) > 0 {
		fmt.Println("BENCHMARK.json metrics:")
	}
	names = names[:0]
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

func printResult(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}
