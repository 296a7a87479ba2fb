// Command perfbench is the Menshen engine's end-to-end benchmark. It
// drives the engine through the public facade on one of four
// workloads, checks every output against an oracle built from the
// inputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its output:
//
//	go run . --workload tenants-cam --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseRecord is the per-phase part of the run record.
type phaseRecord struct {
	Frames  uint64  `json:"frames"`
	Seconds float64 `json:"seconds"`
	GCs     uint32  `json:"gc_cycles"`
	Allocs  uint64  `json:"heap_allocs"`
}

// record is printed before the result: what was run, on what, and the
// operation and runtime counts behind the metrics.
type record struct {
	Workload         string             `json:"workload"`
	Seed             uint64             `json:"seed"`
	Trace            bool               `json:"trace"`
	Host             host               `json:"host"`
	FramesAttempted  uint64             `json:"frames_attempted"`
	FramesFailed     uint64             `json:"frames_failed"`
	ReloadsAttempted uint64             `json:"reloads_attempted"`
	ReloadsFailed    uint64             `json:"reloads_failed"`
	Load             phaseRecord        `json:"load"`
	LoadMpps         []float64          `json:"load_mpps_by_round"`
	Probe            phaseRecord        `json:"probe"`
	ProbeWindows     int                `json:"probe_windows"`
	BeyondP99        int                `json:"probe_windows_beyond_p99"`
	FlowCacheHit     float64            `json:"flowcache_hit_ratio"`
	EndToEnd         map[string]float64 `json:"end_to_end"`
	Calibrate        [2]float64         `json:"calibrate_ns"`
	Spans            string             `json:"spans,omitempty"`
	Error            string             `json:"error,omitempty"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	spans    string
}

// Shares of --seconds given to the load and probe phases; the rest
// goes to round bookkeeping and idle reloads. There is one round per
// second of run.
const (
	loadShare  = 0.40
	probeShare = 0.55
)

// minWindowNs is a floor on a probe window's round trip, for sizing
// the round-trip buffer: today's windows take 13 µs or more.
const minWindowNs = 4000

// setupsPerRun is how many set-ups a run makes. The self-test makes
// one.
const setupsPerRun = 5

func main() {
	var o options
	var trace int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload: tenants-cam, flows-zipf, reload-under-load, udp-ingress")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed traffic")
	flag.IntVar(&trace, "trace", 0, "1: traced run, print the per-layer metrics")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.BoolVar(&selftest, "selftest", false, "feed every oracle corrupted outputs, then run each workload briefly")
	flag.Parse()
	o.trace = trace == 1
	o.setups = setupsPerRun
	if selftest {
		if err := runSelftest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		return
	}
	if o.workload == "" || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(rec)
	_ = out.Encode(res)
}

// run executes one workload run and assembles its record and result.
func run(o options) (*record, *result, error) {
	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: fingerprint(), EndToEnd: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The probe's round-trip buffer is allocated and touched before
	// anything else, so when it joins the resident set does not move
	// the peak RSS. It holds a window every minWindowNs of probe time.
	rtt := make([]int32, max(1<<20, int(o.seconds*probeShare*1e9/minWindowNs)))
	for i := range rtt {
		rtt[i] = 1
	}
	rtt = rtt[:0]
	var bookErr error
	closeBooks := func(b *bench) {
		missing, err := b.close()
		rec.FramesAttempted += b.sent()
		rec.FramesFailed += b.chk.bad + missing
		if err != nil && bookErr == nil {
			bookErr = err
		}
	}

	// Set up several times; the last set-up carries the timed phases.
	var setups []int64
	var b *bench
	for i := 0; i < o.setups; i++ {
		var t *tracer
		if i == o.setups-1 {
			t = tr
		}
		t0 := nanotime()
		var err error
		if b, err = setup(o.workload, o.seed, t); err != nil {
			return nil, nil, err
		}
		setups = append(setups, nanotime()-t0)
		if i < o.setups-1 {
			closeBooks(b)
			b = nil
			runtime.GC()
		}
	}

	rec.Calibrate[0] = calibrate()
	dur := time.Duration(o.seconds * float64(time.Second))
	var bg *background
	if o.workload == "reload-under-load" {
		bg = b.startBackground()
	}
	lp, pp := &phase{}, &phase{rtt: rtt}
	rounds := max(int(math.Ceil(o.seconds)), 1)
	loadD := time.Duration(float64(dur) * loadShare / float64(rounds))
	probeD := time.Duration(float64(dur) * probeShare / float64(rounds))
	var reloads []int64
	var cuts []int // len(reloads) at the end of each round
	var reloadFails uint64
	for r := 0; r < rounds; r++ {
		tr.setPhase("load")
		if err := b.load(lp, loadD, 0); err != nil {
			return nil, nil, err
		}
		tr.setPhase("probe")
		if err := b.probe(pp, probeD, 0); err != nil {
			return nil, nil, err
		}
		tr.setPhase("")
		if bg != nil {
			cuts = append(cuts, bg.count())
			continue
		}
		// Idle reloads, a few after every round, so that they sample the
		// whole run as the phases do. A reload of any tenant invalidates
		// every tenant's flow-cache entries; the next load round's
		// warm-in refills the cache before its clock starts.
		for i := 0; i < idleReloadsPerRound; i++ {
			d, err := b.reloadOnce()
			if err != nil {
				reloadFails++
				if bookErr == nil {
					bookErr = err
				}
				continue
			}
			reloads = append(reloads, int64(d))
		}
		cuts = append(cuts, len(reloads))
		// Each reload leaves garbage (compiler, reference device);
		// collecting it after every round keeps the peak RSS from
		// depending on when the GC happens to run.
		runtime.GC()
	}
	rec.FlowCacheHit = ratio(lp.cacheHits, lp.cacheHits+lp.cacheMisses)
	if bg != nil {
		bg.stop()
		for _, d := range bg.reloads {
			reloads = append(reloads, int64(d))
		}
		reloadFails = uint64(len(bg.errs))
		if len(bg.errs) > 0 && bookErr == nil {
			bookErr = bg.errs[0]
		}
	}
	rec.ReloadsAttempted = uint64(b.reloads)
	rec.ReloadsFailed = reloadFails

	// Traced extras on the live engine: quiesce round trips, scrapes,
	// flow installs and the load client, where the workload itself
	// did not exercise them.
	if tr != nil {
		if err := b.quiesceProbe(200); err != nil {
			return nil, nil, err
		}
		if bg == nil {
			for i := 0; i < 50; i++ {
				b.collect()
			}
		}
		if o.workload != "flows-zipf" {
			if err := b.flowProbe(); err != nil {
				return nil, nil, err
			}
		}
		if b.client == nil {
			if err := b.sendProbe(200 * time.Millisecond); err != nil {
				return nil, nil, err
			}
		}
	}
	closeBooks(b)
	rec.Calibrate[1] = calibrate()

	rec.LoadMpps = lp.mpps // in round order
	e2e := endToEnd(lp, pp, reloads, cuts, setups)
	rec.EndToEnd = e2e
	rec.Load = phaseRec(lp)
	rec.Probe = phaseRec(pp)
	rec.ProbeWindows = len(pp.rtt)
	rec.BeyondP99 = max(len(pp.rtt)-int(0.99*float64(len(pp.rtt)))-1, 0)
	res := &result{
		Attempted: rec.FramesAttempted + rec.ReloadsAttempted,
		Failed:    rec.FramesFailed + rec.ReloadsFailed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && bookErr == nil
	if bookErr != nil {
		rec.Error = bookErr.Error()
	}
	if !o.trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		return rec, res, nil
	}

	var weights map[uint16]float64
	if b.egress {
		weights = egressWeights
	}
	rp, err := b.replayLayers(b.pipe, max(int(framesPerBatch(lp)+0.5), 1), weights)
	if err != nil {
		return nil, nil, err
	}
	compileMs, loadMs, err := b.controlLayers(20)
	if err != nil {
		return nil, nil, err
	}
	pl := map[string]float64{
		"engine.submit_ns_per_frame":      perFrame(tr.submitNs, tr.submitFrames),
		"engine.delivery_us_p50":          float64(median(tr.delivery)) / 1e3,
		"engine.worker_busy_ns_per_frame": busyPerFrame(lp),
		"engine.frames_per_batch":         framesPerBatch(lp),
		"engine.pool_hit_ratio":           poolHit(lp),
		"engine.quiesce_us":               float64(median(tr.quiesce)) / 1e3,
		"engine.reload_commands":          meanInt(tr.reloadCmds),
		"engine.reload_attempts":          meanInt(tr.reloadAtt),
		"core.pipeline_ns_per_frame":      rp.pipeline,
		"reconfig.classify_ns_per_frame":  rp.classify,
		"parser.parse_ns_per_frame":       rp.parse,
		"parser.deparse_ns_per_frame":     rp.deparse,
		"stage.match_action_ns_per_frame": rp.matchAction,
		"stage.flowcache_hit_ratio":       rec.FlowCacheHit,
		"tables.cuckoo_lookup_ns":         rp.cuckoo,
		"tables.flow_install_ns_per_flow": perFrame(tr.installNs, tr.installed),
		"sched.egress_ns_per_frame":       rp.egress,
		"compiler.compile_ms":             compileMs,
		"ctrlplane.load_ms":               loadMs,
		"obs.collect_us":                  float64(median(tr.collects)) / 1e3,
		"ingress.send_ns_per_frame":       perFrame(tr.sendNs, tr.sendFrames),
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{Value: pl[m.name], Unit: m.unit}
	}
	if o.spans != "" {
		path := fmt.Sprintf("%s/%s-seed%d.csv", o.spans, o.workload, o.seed)
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		rec.Spans = path
	}
	return rec, res, nil
}

type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"max_mpps", "Mpps"},
	{"cpu_ns_per_frame", "ns"},
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"reload_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"engine.submit_ns_per_frame", "ns"},
	{"engine.delivery_us_p50", "us"},
	{"engine.worker_busy_ns_per_frame", "ns"},
	{"engine.frames_per_batch", "frames"},
	{"engine.pool_hit_ratio", "ratio"},
	{"engine.quiesce_us", "us"},
	{"engine.reload_commands", "count"},
	{"engine.reload_attempts", "count"},
	{"core.pipeline_ns_per_frame", "ns"},
	{"reconfig.classify_ns_per_frame", "ns"},
	{"parser.parse_ns_per_frame", "ns"},
	{"parser.deparse_ns_per_frame", "ns"},
	{"stage.match_action_ns_per_frame", "ns"},
	{"stage.flowcache_hit_ratio", "ratio"},
	{"tables.cuckoo_lookup_ns", "ns"},
	{"tables.flow_install_ns_per_flow", "ns"},
	{"sched.egress_ns_per_frame", "ns"},
	{"compiler.compile_ms", "ms"},
	{"ctrlplane.load_ms", "ms"},
	{"obs.collect_us", "us"},
	{"ingress.send_ns_per_frame", "ns"},
}

// endToEnd computes the end-to-end metrics. The host's speed drifts
// from one second to the next, so each timing is taken over short
// stretches of the run, and the figure is the worse quartile across
// them: the rate the load phase reached in three slices out of four
// (and the CPU per frame it stayed within), the probe windows' median
// round trip that three slices out of four stayed within, and the
// median reload time that three rounds out of four stayed within.
// rtt_p99_us is over every probe window of the run, so that it has
// thousands of windows beyond it.
func endToEnd(lp, pp *phase, reloads []int64, cuts []int, setups []int64) map[string]float64 {
	rtt := slices.Clone(pp.rtt)
	slices.Sort(rtt)
	var perRound []float64
	from := 0
	for _, to := range cuts {
		if to > from {
			perRound = append(perRound, float64(median(reloads[from:to])))
		}
		from = to
	}
	return map[string]float64{
		"max_mpps":         quartile(lp.sliceMpps, 1),
		"cpu_ns_per_frame": quartile(lp.sliceCPU, 3),
		"rtt_p50_us":       quartile(pp.p50, 3) / 1e3,
		"rtt_p99_us":       float64(quantile(rtt, 0.99)) / 1e3,
		"reload_ms_p50":    quartile(perRound, 3) / 1e6,
		"setup_s":          float64(median(setups)) / 1e9,
		"peak_rss_mb":      peakRSSMB(),
	}
}

// quartile returns the q-th quartile (1 lower, 2 median, 3 upper) of
// v by nearest rank, or 0 when v is empty.
func quartile(v []float64, q int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(q*len(s)/4, len(s)-1)]
}

func phaseRec(p *phase) phaseRecord {
	return phaseRecord{Frames: p.frames, Seconds: p.elapsed.Seconds(), GCs: p.gcs, Allocs: p.allocs}
}

func perFrame(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// Load-phase deltas of the engine's own telemetry.
func busyPerFrame(p *phase) float64 { return perFrame(int64(p.busy), int64(p.wframes)) }

func framesPerBatch(p *phase) float64 { return ratio(p.wframes, p.batches) }

func poolHit(p *phase) float64 { return ratio(p.poolHits, p.poolHits+p.poolMisses) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
