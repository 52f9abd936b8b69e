// Command ltpbench is the repository's end-to-end and per-layer
// benchmark: four workloads (paper-figs, sweep-warm, sweep-long,
// service) run one at a time, each timed pass in a fresh child process
// so no process-global cache (the model backend's warm cache, an
// Engine's result cache) carries over between passes.
//
// Untraced mode (the default) repeats timed passes for -seconds per
// workload and reports each end-to-end metric as the median over the
// passes. Traced mode (-trace 1, or -trace <file>) runs one untraced
// and one traced pass plus the per-layer probes, and writes the spans
// to bench-trace.json (or <file>). Either way every metric is printed as
// "name workload value unit", the results go to bench-results.json, and
// the last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when a correctness check fails. See
// bench/README.md for the metric dictionary.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ltp/bench/internal/benchstat"
)

// defaultSeed is the seed the pinned digests belong to.
const defaultSeed = 1

// Passes per untraced run: at least minPasses, then more while the next
// one is expected to fit in -seconds. On a host so slow that minPasses
// would run past maxRunSeconds, the run stops short instead.
const (
	minPasses     = 3
	maxRunSeconds = 120
)

// childTimeout bounds one child process; a hung simulation fails its
// workload instead of the whole run.
const childTimeout = 120 * time.Second

//go:embed digests.json
var pinnedJSON []byte

type options struct {
	seed    int64
	seconds int
	traced  bool
	spans   string // span file of a traced run
	out     string
	work    string
}

func main() {
	var (
		opts    options
		name    = flag.String("workload", "", "run only this workload (default: all four, in order)")
		traceTo = flag.String("trace", "0", `"0" runs the untraced passes; "1" runs the traced mode and writes spans to bench-trace.json; any other value names the span file`)
		child   = flag.String("child", "", "internal: run one pass, probe set or pre-bank in this process")
		start   = flag.Int64("start-ns", 0, "internal: the child's start time in Unix nanoseconds")
		store   = flag.String("store", "", "internal: the service pass's result store")
		traced  = flag.Bool("traced", false, "internal: record spans in this pass")
	)
	flag.Int64Var(&opts.seed, "seed", defaultSeed, "workload seed: scenario seeds and the service schedule derive from it")
	flag.IntVar(&opts.seconds, "seconds", 25, "how long each workload measures in untraced mode")
	flag.StringVar(&opts.out, "out", "bench-results.json", "results file")
	flag.StringVar(&opts.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for result stores")
	flag.Parse()

	// A signal cancels the run: children are killed and waited for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *child != "" {
		if err := runChild(ctx, *child, *name, opts, time.Unix(0, *start), *store, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "ltpbench:", err)
			os.Exit(1)
		}
		return
	}

	switch *traceTo {
	case "0", "":
	case "1":
		opts.traced, opts.spans = true, "bench-trace.json"
	default:
		opts.traced, opts.spans = true, *traceTo
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltpbench:", err)
			os.Exit(2)
		}
		selected = []benchWorkload{w}
	}
	ok, err := run(ctx, selected, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild is the child process's side: one unit of work, reported as
// JSON on standard output.
func runChild(ctx context.Context, mode, name string, opts options, start time.Time, store string, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var out any
	switch mode {
	case "pass":
		env := newPassEnv(ctx, opts.seed, 1, start, tr)
		env.store = store
		w.pass(env)
		out = env.out
	case "probes":
		in, err := w.inputs(opts.seed, 1)
		if err != nil {
			return err
		}
		m, err := runProbes(ctx, in, 1, opts.work, tr)
		if err != nil {
			return err
		}
		out = passResult{Metrics: m, Spans: tr.snapshot()}
	case "prebank":
		t0 := time.Now()
		if err := service.prebank(ctx, store, opts.seed, 1); err != nil {
			return err
		}
		out = passResult{Metrics: map[string]float64{"service.prebank_s": time.Since(t0).Seconds()}}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn runs one child process of this executable and decodes its
// report. The child inherits standard error.
func spawn(ctx context.Context, mode string, w benchWorkload, opts options, store string, traced bool) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{
		"-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(opts.seed, 10), "-work", opts.work,
		"-store", store, "-traced=" + strconv.FormatBool(traced),
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(cctx, exe, append(args, "-start-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// The load is fixed, not derived from the host.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(parallelism))
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s %s: %w", w.name, mode, err)
	}
	var res passResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s %s: decoding the child's report: %w", w.name, mode, err)
	}
	return res, nil
}

// workloadResult is one workload's entry in bench-results.json.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Errors    []string          `json:"errors,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
	Metrics   []metricResult    `json:"metrics"`

	spans []tracedSpan
}

// metricResult is one metric of one workload: the median over the
// passes, with every pass's value.
type metricResult struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	AbsBound float64   `json:"abs_bound"`
	Layer    bool      `json:"layer"`
	Value    float64   `json:"value"`
	Samples  []float64 `json:"samples"`
}

// tracedSpan is a span as bench-trace.json records it.
type tracedSpan struct {
	Workload string `json:"workload"`
	Process  string `json:"process"`
	span
}

// resultsFile is bench-results.json.
type resultsFile struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

// run measures the selected workloads, prints and writes the results,
// and reports whether every correctness check passed.
func run(ctx context.Context, selected []benchWorkload, opts options) (bool, error) {
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return false, err
	}
	pinned := map[string]map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return false, fmt.Errorf("digests.json: %w", err)
	}
	file := resultsFile{Schema: "ltpbench/1", Seed: opts.seed, Seconds: opts.seconds, Traced: opts.traced}
	var spans []tracedSpan
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "ltpbench: %s ...\n", w.name)
		r := measure(ctx, w, opts, pinned[w.name])
		file.Workloads = append(file.Workloads, r)
		spans = append(spans, r.spans...)
	}
	if err := writeJSON(opts.out, file); err != nil {
		return false, err
	}
	if opts.traced {
		if err := writeJSON(opts.spans, struct {
			Schema string       `json:"schema"`
			Spans  []tracedSpan `json:"spans"`
		}{"ltpbench-trace/1", spans}); err != nil {
			return false, err
		}
	}
	return report(os.Stdout, file), nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure runs one workload's passes (or its traced run) and folds them
// into its result.
func measure(ctx context.Context, w benchWorkload, opts options, pinned map[string]string) workloadResult {
	f := newFold(w, opts, pinned)
	// The service pass opens a copy of a store pre-banked once per run,
	// so every pass starts from the same file.
	var prebanked, store string
	if w.name == "service" {
		prebanked = filepath.Join(opts.work, fmt.Sprintf("service-prebank-%d.store", os.Getpid()))
		store = filepath.Join(opts.work, fmt.Sprintf("service-pass-%d.store", os.Getpid()))
		defer os.Remove(prebanked)
		defer os.Remove(store)
		res, err := spawn(ctx, "prebank", w, opts, prebanked, false)
		if err != nil {
			f.fail(err)
			return f.result()
		}
		if opts.traced {
			f.addLayer("prebank", res)
		}
	}
	pass := func(traced bool) (passResult, error) {
		if prebanked != "" {
			if err := copyFile(store, prebanked); err != nil {
				return passResult{}, err
			}
		}
		return spawn(ctx, "pass", w, opts, store, traced)
	}

	if !opts.traced {
		start := time.Now()
		var took []float64
		for morePasses(took, time.Since(start).Seconds(), opts.seconds) {
			t := time.Now()
			res, err := pass(false)
			took = append(took, time.Since(t).Seconds())
			if err != nil {
				f.fail(err)
				break
			}
			f.addPass(res)
		}
		return f.result()
	}

	// Traced mode: the same pass untraced and traced (their difference
	// is the tracing overhead), then the probes in a process of their
	// own.
	plain, err := pass(false)
	if err != nil {
		f.fail(err)
		return f.result()
	}
	f.check(plain)
	traced, err := pass(true)
	if err != nil {
		f.fail(err)
		return f.result()
	}
	f.check(traced)
	f.addLayer("pass", traced)
	if base := plain.Metrics["wall_s"]; base > 0 {
		f.layer["bench.trace_overhead_pct"] = 100 * (traced.Metrics["wall_s"] - base) / base
	}
	probes, err := spawn(ctx, "probes", w, opts, "", true)
	if err != nil {
		f.fail(err)
		return f.result()
	}
	f.addLayer("probes", probes)
	return f.result()
}

// morePasses reports whether another pass fits, given the passes taken
// so far (seconds each) and the time elapsed.
func morePasses(took []float64, elapsed float64, seconds int) bool {
	if len(took) == 0 {
		return true
	}
	next := elapsed + benchstat.Median(took)
	if len(took) < minPasses {
		return next <= maxRunSeconds
	}
	return next <= float64(seconds)
}

// fold accumulates one workload's child reports into its result.
type fold struct {
	w      benchWorkload
	pinned map[string]string
	// checkPinned is set when the pinned digests apply: the default
	// seed, or a workload the seed does not affect.
	checkPinned bool
	res         workloadResult
	samples     map[string][]float64 // end-to-end metric -> one value per pass
	layer       map[string]float64
}

func newFold(w benchWorkload, opts options, pinned map[string]string) *fold {
	return &fold{
		w:           w,
		pinned:      pinned,
		checkPinned: opts.seed == defaultSeed || w.seedFree,
		res:         workloadResult{Name: w.name, Digests: map[string]string{}},
		samples:     map[string][]float64{},
		layer:       map[string]float64{},
	}
}

func (f *fold) fail(err error) {
	f.res.Failed++
	if len(f.res.Errors) < maxErrors {
		f.res.Errors = append(f.res.Errors, err.Error())
	}
}

// check folds one pass's operation counts and verifies its digests:
// equal across passes, and equal to the pinned ones where they apply.
func (f *fold) check(p passResult) {
	f.res.Passes++
	f.res.Attempted += p.Attempted
	f.res.Failed += p.Failed
	for _, e := range p.Errors {
		if len(f.res.Errors) < maxErrors {
			f.res.Errors = append(f.res.Errors, e)
		}
	}
	for _, k := range sortedKeys(p.Digests) {
		got := p.Digests[k]
		if prev, ok := f.res.Digests[k]; ok && prev != got {
			f.fail(fmt.Errorf("%s digest changed between passes: %s then %s", k, prev, got))
		}
		f.res.Digests[k] = got
		if !f.checkPinned {
			continue
		}
		switch want, ok := f.pinned[k]; {
		case !ok:
			f.fail(fmt.Errorf("no pinned %s digest in digests.json (observed %s)", k, got))
		case want != got:
			f.fail(fmt.Errorf("%s digest %s, pinned %s", k, got, want))
		}
	}
}

// addPass folds one untraced pass.
func (f *fold) addPass(p passResult) {
	f.check(p)
	for name, v := range p.Metrics {
		if _, layer, ok := lookupMetric(name); ok && !layer {
			f.samples[name] = append(f.samples[name], v)
		}
	}
}

// addLayer keeps a report's per-layer metrics and, from a traced
// process, its spans.
func (f *fold) addLayer(process string, p passResult) {
	for name, v := range p.Metrics {
		if _, layer, ok := lookupMetric(name); ok && layer {
			f.layer[name] = v
		}
	}
	for _, s := range p.Spans {
		f.res.spans = append(f.res.spans, tracedSpan{Workload: f.w.name, Process: process, span: s})
	}
}

// result finishes the fold: medians of the pass samples (untraced) or
// the per-layer values (traced), in dictionary order.
func (f *fold) result() workloadResult {
	r := f.res
	if len(f.samples) > 0 && r.Attempted > 0 {
		f.samples["error_rate"] = []float64{float64(r.Failed) / float64(r.Attempted)}
	}
	for _, d := range endToEnd {
		if s, ok := f.samples[d.name]; ok {
			r.Metrics = append(r.Metrics, metricResult{
				Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound, AbsBound: d.absBound,
				Value: benchstat.Median(s), Samples: s,
			})
		}
	}
	for _, d := range perLayer {
		if v, ok := f.layer[d.name]; ok {
			r.Metrics = append(r.Metrics, metricResult{
				Name: d.name, Unit: d.unit, Better: d.better, Layer: true, Value: v, Samples: []float64{v},
			})
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// report prints every metric as "name workload value unit", then the
// one-line JSON summary, and reports whether every workload was
// correct. The summary carries only the gated metrics; a workload
// missing one of them is not correct.
func report(w io.Writer, file resultsFile) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	dict := endToEnd
	if file.Traced {
		dict = perLayer
	}
	for _, r := range file.Workloads {
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "ltpbench: %s: %s\n", r.Name, e)
		}
		have := map[string]metricResult{}
		for _, m := range r.Metrics {
			fmt.Fprintf(w, "%s %s %s %s\n", m.Name, r.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			have[m.Name] = m
		}
		for _, k := range sortedKeys(r.Digests) {
			fmt.Fprintf(w, "digest.%s %s %s sha256\n", k, r.Name, r.Digests[k])
		}
		summary.Correct = summary.Correct && r.Correct
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for _, d := range dict {
			if ungated[d.name] {
				continue
			}
			m, ok := have[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "ltpbench: %s: no %s\n", r.Name, d.name)
				summary.Correct = false
				continue
			}
			key := d.name
			if len(file.Workloads) > 1 {
				key = r.Name + "/" + d.name
			}
			summary.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	if summary.Attempted == 0 {
		summary.Correct = false
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpbench:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", b)
	return summary.Correct
}
