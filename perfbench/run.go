package main

// Workload set-up and the timed phases: the load phase (saturating,
// lossless), the probe phase (closed loop, one window in flight) and
// the reloads.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/ingress"
	"repro/internal/obs"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

const (
	batchSize           = 32  // engine batch and load-phase submit batch
	probeWindow         = 32  // frames in flight in the probe phase (in-process)
	udpWindow           = 128 // frames in flight in the socket load phase
	udpBatch            = 32  // datagrams per SendBatch in the socket load phase
	udpProbe            = 8   // frames in flight in the socket probe phase
	udpReadBuf          = 4 << 20
	reloadPeriod        = 20 * time.Millisecond  // reload-under-load: one reload per period, a stress rate (README)
	scrapePeriod        = 100 * time.Millisecond // reload-under-load: one Collect per period, a stress rate (README)
	idleReloadsPerRound = 8                      // reloads after each round (workloads without live reloads)
	waitTimeout         = 5 * time.Second        // a window not back by then is lost
)

var workloads = []string{"tenants-cam", "flows-zipf", "reload-under-load", "udp-ingress"}

// egressWeights are reload-under-load's §3.5 egress weights.
var egressWeights = map[uint16]float64{tenantCalc: 1, tenantFirewall: 2, tenantKV: 4}

// tenantProgs maps the CAM tenants to their Table 3 programs.
var tenantProgs = map[uint16]string{
	tenantCalc:     "CALC",
	tenantFirewall: "Firewall",
	tenantKV:       "NetCache",
	tenantLB:       "Load Balancing",
}

// bench is one set-up workload: a device, its engine, the inputs and
// the oracle, plus the generator's position in the input cycle.
type bench struct {
	name    string
	dev     *menshen.Device
	eng     *menshen.Engine
	pipe    *core.Pipeline // the worker's pipeline replica
	in      *inputs
	chk     *oracle
	egress  bool
	tenants []uint16 // loaded modules, load order

	pos      int       // next position in in.seq
	sub      [8]uint64 // frames submitted per tenant
	drops    [8]uint64 // expected module drops among them
	reachCum uint64    // frames expected to have reached OnBatch
	tenantAt []uint16  // per seq position
	tr       *tracer   // nil in untraced runs

	// Reload target: a Load Balancing tenant, alternating between two
	// table sizes, and the reference device that replays each reload.
	reloadTenant uint16
	reloadSrc    [2]string
	reloads      int
	ref          *menshen.Device

	// Socket state (udp-ingress).
	src    ingress.Source
	client *trafficgen.LoadClient
	stop   context.CancelFunc
	served chan error

	exporter *obs.Exporter
}

// setup builds a workload from scratch up to its first timed frame.
func setup(name string, seed uint64, tr *tracer) (*bench, error) {
	if err := checkRuleText(); err != nil {
		return nil, err
	}
	b := &bench{name: name, tr: tr, reloadTenant: tenantLB}
	var flowPorts []uint8
	switch name {
	case "tenants-cam":
		b.tenants = []uint16{tenantCalc, tenantFirewall, tenantKV, tenantLB}
		b.in = camInputs(seed, b.tenants, 0, true)
	case "reload-under-load":
		b.tenants = []uint16{tenantCalc, tenantFirewall, tenantKV, tenantLB}
		b.in = camInputs(seed, b.tenants[:3], 0, false)
		b.egress = true
	case "udp-ingress":
		b.tenants = []uint16{tenantCalc, tenantFirewall, tenantKV, tenantLB}
		b.in = camInputs(seed, b.tenants, 4, true)
	case "flows-zipf":
		// Tenant 1 carries the flows; tenant 2 is an idle co-tenant that
		// the reloads target, so they leave the flow table alone.
		b.tenants = []uint16{1, 2}
		b.reloadTenant = 2
		b.in, flowPorts = zipfInputs(seed, 1)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	if len(b.in.seq)%batchSize != 0 {
		return nil, fmt.Errorf("input cycle of %d frames is not a whole number of batches", len(b.in.seq))
	}
	b.tenantAt = make([]uint16, len(b.in.seq))
	for i, fr := range b.in.seq {
		b.tenantAt[i] = b.in.expectOf(fr).tenant
	}
	b.chk = newOracle(b.in.exp)

	var err error
	if b.dev, err = loadDevice(b.tenants, b.progOf); err != nil {
		return nil, err
	}
	// The reload reference: a second device given the same loads and
	// the same reloads, through the device's own control plane.
	if b.ref, err = loadDevice(b.tenants, b.progOf); err != nil {
		return nil, err
	}
	lb, _ := p4progs.ByName("Load Balancing")
	b.reloadSrc = [2]string{lb.WithSize(8), lb.WithSize(lb.DefaultSize)}

	cfg := menshen.EngineConfig{Workers: 1, BatchSize: batchSize, OnBatch: b.chk.onBatch}
	if b.egress {
		cfg.EgressWeights = egressWeights
	}
	if b.eng, err = b.dev.NewEngine(cfg); err != nil {
		return nil, err
	}
	if b.pipe, err = b.eng.ShardPipeline(0); err != nil {
		return nil, err
	}
	b.exporter = obs.NewExporter(obs.Source{StatsInto: b.eng.StatsInto})
	if name == "flows-zipf" {
		if err := b.installFlows(flowPorts); err != nil {
			return nil, err
		}
	}
	if name == "udp-ingress" {
		if err := b.listen(); err != nil {
			return nil, err
		}
	}
	return b, b.warm()
}

func (b *bench) progOf(t uint16) string {
	if b.name == "flows-zipf" {
		return "Load Balancing"
	}
	return tenantProgs[t]
}

func loadDevice(tenants []uint16, prog func(uint16) string) (*menshen.Device, error) {
	dev := menshen.NewDevice()
	for _, t := range tenants {
		p, err := p4progs.ByName(prog(t))
		if err != nil {
			return nil, err
		}
		if _, err := dev.LoadModule(p.Source(), t); err != nil {
			return nil, fmt.Errorf("loading %s as tenant %d: %w", p.Name, t, err)
		}
	}
	return dev, nil
}

// installFlows puts one exact-match entry per flow into tenant 1's
// match stage, each pointing at the vip action its port names.
func (b *bench) installFlows(ports []uint8) error {
	pipe, cp := b.dev.Pipeline(), b.dev.ControlPlane()
	stg := matchStage(pipe, 1)
	if stg < 0 {
		return errors.New("Load Balancing module has no match stage")
	}
	// The vip action addresses, in rule order (entry i -> port i+1).
	var addrs []uint16
	for _, sp := range lbSport {
		fr := trafficgen.FlowPacket(1, [4]byte{10, 0, 1, 1}, lbVIP, sp, 80, minFrame)
		key, err := cp.FlowKeyForFrame(1, stg, fr)
		if err != nil {
			return err
		}
		addr, ok := pipe.Stages[stg].Match.Lookup(key, 1)
		if !ok {
			return fmt.Errorf("vip rule for sport %d not in stage %d's CAM", sp, stg)
		}
		addrs = append(addrs, uint16(addr))
	}
	const chunk = 1 << 14
	staged := make([]menshen.FlowEntry, 0, chunk)
	flush := func() error {
		t0 := nanotime()
		if _, err := b.eng.InsertFlows(1, stg, staged); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := b.eng.QuiesceCtx(ctx)
		b.tr.flowInstall(t0, nanotime(), len(staged))
		staged = staged[:0]
		return err
	}
	for f := 0; f < zipfFlows; f++ {
		key, err := cp.FlowKeyForFrame(1, stg, trafficgen.FlowScaleFrame(1, f, minFrame))
		if err != nil {
			return err
		}
		staged = append(staged, menshen.FlowEntry{Valid: true, Key: key, Addr: addrs[ports[f]-1]})
		if len(staged) == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(staged) > 0 {
		return flush()
	}
	return nil
}

// listen starts the UDP source feeding the engine and dials the load
// client.
func (b *bench) listen() error {
	src, err := ingress.ListenUDP("127.0.0.1:0", ingress.Config{ReadBuffer: udpReadBuf, MaxFrame: bigFrame})
	if err != nil {
		return err
	}
	b.src = src
	b.eng.RegisterIngress(func(out []menshen.IngressStats) []menshen.IngressStats {
		var st menshen.IngressStats
		src.StatsInto(&st)
		return append(out, st)
	})
	ctx, cancel := context.WithCancel(context.Background())
	b.stop = cancel
	b.served = make(chan error, 1)
	var sink ingress.Sink = b.eng
	if b.tr != nil {
		sink = &timedSink{Engine: b.eng, tr: b.tr}
	}
	go func() { b.served <- src.Serve(ctx, sink) }()
	b.client, err = trafficgen.DialLoad("udp", src.Addr(), ingress.Backoff{})
	return err
}

// warm runs traffic until the pools, the flow cache and the adaptive
// batch size are in their steady state: two load bursts and a stretch
// of probe windows.
func (b *bench) warm() error {
	n := 2 * len(b.in.seq)
	if n < 1<<16 {
		n = 1 << 16
	}
	if err := b.load(&phase{}, 0, n); err != nil {
		return err
	}
	return b.probe(&phase{}, 0, 2000)
}

// next returns the next n frames of the cycle and books them.
func (b *bench) next(n int) [][]byte {
	if b.pos == len(b.in.seq) {
		b.pos = 0
	}
	fr := b.in.seq[b.pos : b.pos+n]
	for i := b.pos; i < b.pos+n; i++ {
		t := b.tenantAt[i]
		b.sub[t]++
		if b.in.expectOf(b.in.seq[i]).drop {
			b.drops[t]++
		}
		if b.in.reach[i] {
			b.reachCum++
		}
	}
	b.pos += n
	return fr
}

// send hands n frames to the engine: SubmitBatch in-process, the load
// client on the socket workload.
func (b *bench) send(n int) error {
	fr := b.next(n)
	t0 := nanotime()
	var got int
	var err error
	if b.client != nil {
		got, err = b.client.SendBatch(fr)
		b.tr.send(t0, nanotime(), n)
	} else {
		got, err = b.eng.SubmitBatch(fr)
		b.tr.submit(t0, nanotime(), n)
	}
	if err == nil && got != n {
		err = fmt.Errorf("%d of %d frames accepted", got, n)
	}
	return err
}

// phase accumulates what one kind of timed phase measured over the
// rounds of a run. The load and probe phases alternate in rounds, so
// both sample the whole run. Within a round each phase is cut into
// slices of sliceNs, and the end-to-end figures are quartiles over the
// slices of the run (see endToEnd).
type phase struct {
	frames  uint64
	elapsed time.Duration
	cpu     time.Duration
	gcs     uint32
	allocs  uint64
	rtt     []int32 // probe: per-window round trip, ns

	mpps      []float64 // load: per round, for the record
	sliceMpps []float64 // load: per slice
	sliceCPU  []float64 // load: per slice, CPU ns per frame
	p50       []float64 // probe: per slice, the windows' median round trip in ns
	scratch   []int32   // probe: sort buffer for p50

	// Load: engine telemetry deltas summed over the rounds.
	busy                   time.Duration
	wframes, batches       uint64
	poolHits, poolMisses   uint64
	cacheHits, cacheMisses uint64
}

// round brackets one round of a phase: runtime, CPU and engine
// counters before, folded into p by end.
type round struct {
	p      *phase
	b      *bench
	t0     int64
	cpu0   time.Duration
	m0     memCounts
	st0    menshen.EngineStats
	h0, m1 uint64
	sent0  uint64
}

func (b *bench) begin(p *phase) *round {
	r := &round{p: p, b: b, st0: b.eng.Stats(), sent0: b.sent(), m0: memNow(), cpu0: cpuNow()}
	r.h0, r.m1 = b.pipe.FlowCacheStats()
	r.t0 = nanotime()
	return r
}

// end folds the round into its phase.
func (r *round) end() {
	el := time.Duration(nanotime() - r.t0)
	p, b := r.p, r.b
	cpu := cpuNow() - r.cpu0
	m := memNow()
	st := b.eng.Stats()
	h, ms := b.pipe.FlowCacheStats()
	p.frames += b.sent() - r.sent0
	p.elapsed += el
	p.cpu += cpu
	p.gcs += m.NumGC - r.m0.NumGC
	p.allocs += m.Mallocs - r.m0.Mallocs
	w0, w1 := r.st0.Workers[0], st.Workers[0]
	p.busy += w1.Busy - w0.Busy
	p.wframes += w1.Frames - w0.Frames
	p.batches += w1.Batches - w0.Batches
	p.poolHits += st.PoolHits - r.st0.PoolHits
	p.poolMisses += st.PoolMisses - r.st0.PoolMisses
	p.cacheHits += h - r.h0
	p.cacheMisses += ms - r.m1
}

// load saturates the engine for d (or for n frames when d is 0) and
// waits until every frame has come back. A timed round starts its clock
// once warmIn frames are in, so the rate and CPU per frame it records
// are the saturated engine's, not its ramp from idle.
func (b *bench) load(p *phase, d time.Duration, n int) error {
	r := b.begin(p)
	var t0, deadline int64
	var w0 uint64
	var sl slice
	for k := 0; ; k++ {
		if b.client != nil {
			// Keep at most udpWindow frames between the client and
			// OnBatch, well below the socket's receive buffer.
			if b.reachCum > udpWindow-udpBatch {
				if _, ok := b.chk.prog.wait(b.reachCum-(udpWindow-udpBatch), waitTimeout); !ok {
					return errors.New("socket load window not returned")
				}
			}
			if err := b.send(udpBatch); err != nil {
				return err
			}
		} else if err := b.send(batchSize); err != nil {
			return err
		}
		if k&63 != 63 {
			continue
		}
		if d == 0 {
			if b.sent()-r.sent0 >= uint64(n) {
				break
			}
		} else if t0 == 0 {
			if b.sent()-r.sent0 >= b.warmIn() {
				// The flow cache is counted from here, once refilled.
				r.h0, r.m1 = b.pipe.FlowCacheStats()
				w0 = b.processed()
				t0 = nanotime()
				deadline = t0 + int64(d)
				sl = slice{t: t0, done: b.chk.prog.done.Load(), cpu: cpuNow()}
			}
		} else {
			now := nanotime()
			if now-sl.t >= sliceNs {
				sl = p.slice(sl, now, b.chk.prog.done.Load())
			}
			if now >= deadline {
				frames := float64(b.processed() - w0)
				p.mpps = append(p.mpps, frames/float64(now-t0)*1e3)
				break
			}
		}
	}
	// Every frame sent has been processed once every frame due at
	// OnBatch got there.
	if _, ok := b.chk.prog.wait(b.reachCum, waitTimeout); !ok {
		return fmt.Errorf("load phase: %d frames never reached OnBatch", b.reachCum-b.chk.prog.done.Load())
	}
	r.end()
	return nil
}

// sliceNs is the length of a slice: the load phase's rate and CPU per
// frame, and the probe windows' median round trip, are taken over each
// slice of a round.
const sliceNs = int64(20 * time.Millisecond)

// slice is the start of one load slice.
type slice struct {
	t    int64
	done uint64 // frames delivered to OnBatch
	cpu  time.Duration
}

// slice closes the load slice begun at s and begins the next: frames
// delivered per second and process CPU per frame delivered.
func (p *phase) slice(s slice, now int64, done uint64) slice {
	cpu := cpuNow()
	if n := float64(done - s.done); n > 0 {
		p.sliceMpps = append(p.sliceMpps, n/float64(now-s.t)*1e3)
		p.sliceCPU = append(p.sliceCPU, float64(cpu-s.cpu)/n)
	}
	return slice{t: now, done: done, cpu: cpu}
}

// loadWarmIn is how many frames a timed load round sends at least
// before its clock starts.
const loadWarmIn = 8192

// warmIn is how many frames a timed load round sends before its clock
// starts: a whole input cycle, at least loadWarmIn. On flows-zipf the
// cycle refills the flow cache that the idle reloads between rounds
// invalidate.
func (b *bench) warmIn() uint64 { return uint64(max(loadWarmIn, len(b.in.seq))) }

// processed is how many frames the worker has run through the pipeline.
func (b *bench) processed() uint64 { return b.eng.Stats().Workers[0].Frames }

func (b *bench) sent() uint64 {
	var s uint64
	for _, v := range b.sub {
		s += v
	}
	return s
}

// probe runs the closed loop: one window in flight, the next sent when
// the last frame of the previous one reached OnBatch. It runs for d
// (or n windows when d is 0), appending each window's round trip. A
// timed round first runs probeWarmIn windows that it does not record:
// the first windows after a load round pay for its drain and for the
// switch to one P, which is not the probe's steady state.
func (b *bench) probe(p *phase, d time.Duration, n int) error {
	w := probeWindow
	if b.client != nil {
		w = udpProbe
	}
	// One window in flight leaves nothing to run in parallel. On one P
	// the hand-offs between client, RX loop and worker are goroutine
	// switches, not thread wake-ups whose latency is the host's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if d > 0 {
		for k := 0; k < probeWarmIn; k++ {
			if _, err := b.window(w, -1); err != nil {
				return err
			}
		}
	}
	r := b.begin(p)
	cut := []int{len(p.rtt)} // window index at each slice boundary
	sliceT := r.t0
	deadline := r.t0 + int64(d)
	for k := 0; ; k++ {
		// The deadline is checked every 16 windows, so that a round
		// sends a whole number of load batches and the input cycle
		// stays aligned to them.
		if d > 0 && k&15 == 0 {
			if now := nanotime(); now >= deadline {
				break
			} else if now-sliceT >= sliceNs {
				cut, sliceT = append(cut, len(p.rtt)), now
			}
		}
		if d == 0 && k == n {
			break
		}
		rtt, err := b.window(w, len(p.rtt))
		if err != nil {
			return err
		}
		p.rtt = append(p.rtt, int32(min(rtt, math.MaxInt32)))
	}
	r.end()
	if d > 0 {
		// The last slice is cut short by the deadline; it counts only if
		// it ran at least half a slice.
		if nanotime()-sliceT >= sliceNs/2 {
			cut = append(cut, len(p.rtt))
		}
		for i := 1; i < len(cut); i++ {
			if cut[i] > cut[i-1] {
				p.scratch = append(p.scratch[:0], p.rtt[cut[i-1]:cut[i]]...)
				slices.Sort(p.scratch)
				p.p50 = append(p.p50, float64(quantile(p.scratch, 0.50)))
			}
		}
	}
	return nil
}

// probeWarmIn is how many windows a timed probe round runs before it
// records any; a multiple of 16, as the deadline check is.
const probeWarmIn = 256

// window sends one window of w frames and waits until its last frame
// has reached OnBatch. It returns the round trip; id is the window's
// trace id (-1 for a warm-in window).
func (b *bench) window(w, id int) (int64, error) {
	start := nanotime()
	b.tr.openWindow(start, id)
	if err := b.send(w); err != nil {
		return 0, err
	}
	ret := nanotime()
	end, ok := b.chk.prog.wait(b.reachCum, waitTimeout)
	if !ok {
		return 0, fmt.Errorf("probe window: %d frames never reached OnBatch", b.reachCum-b.chk.prog.done.Load())
	}
	b.tr.closeWindow(ret, end)
	return end - start, nil
}

// reloadOnce reloads the target tenant with the next source variant
// and checks the outcome: verified, and every shard's checksum equal to
// the fresh device's.
func (b *bench) reloadOnce() (time.Duration, error) {
	v := b.reloads % 2
	b.reloads++
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	t0 := nanotime()
	_, _, rep, err := b.eng.LoadModuleVerified(ctx, b.reloadSrc[v], b.reloadTenant, menshen.VerifyOpts{})
	t1 := nanotime()
	b.tr.reload(t0, t1, rep)
	if err != nil {
		return 0, err
	}
	if _, err := b.ref.UpdateModule(b.reloadSrc[v], b.reloadTenant); err != nil {
		return 0, err
	}
	return time.Duration(t1 - t0), checkReload(b.eng, rep, b.reloadTenant, b.ref.Pipeline().ModuleChecksum(b.reloadTenant))
}

// checkReload checks a reload's outcome: verified, and every shard's
// checksum of the tenant equal to the reference's.
func checkReload(eng shards, rep menshen.VerifyReport, tenant uint16, want uint64) error {
	if !rep.Verified {
		return fmt.Errorf("reload not verified: %+v", rep)
	}
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			return err
		}
		if got := pipe.ModuleChecksum(tenant); got != want {
			return fmt.Errorf("reload: shard %d checksum %#x, reference %#x", w, got, want)
		}
	}
	return nil
}

// shards is the part of the engine checkReload reads.
type shards interface {
	Workers() int
	ShardPipeline(int) (*core.Pipeline, error)
}

// background runs the reload-under-load control goroutines: a reload
// every reloadPeriod and a metrics scrape every scrapePeriod, until
// stop is called. Results are collected on stop.
type background struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	reloads []time.Duration
	errs    []error
}

func (b *bench) startBackground() *background {
	bg := &background{quit: make(chan struct{})}
	tick := func(period time.Duration, f func()) {
		bg.wg.Add(1)
		go func() {
			defer bg.wg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-bg.quit:
					return
				case <-t.C:
					f()
				}
			}
		}()
	}
	tick(reloadPeriod, func() {
		d, err := b.reloadOnce()
		bg.mu.Lock()
		if err != nil {
			bg.errs = append(bg.errs, err)
		} else {
			bg.reloads = append(bg.reloads, d)
		}
		bg.mu.Unlock()
	})
	tick(scrapePeriod, func() { b.collect() })
	return bg
}

// count is how many reloads have succeeded so far.
func (bg *background) count() int {
	bg.mu.Lock()
	defer bg.mu.Unlock()
	return len(bg.reloads)
}

func (bg *background) stop() {
	close(bg.quit)
	bg.wg.Wait()
}

// collect renders one /metrics document.
func (b *bench) collect() {
	t0 := nanotime()
	_ = b.exporter.Collect(io.Discard)
	b.tr.collect(t0, nanotime())
}

// books returns the per-tenant ledger of everything submitted.
func (b *bench) books() map[uint16]ledger {
	out := make(map[uint16]ledger)
	for t, n := range b.sub {
		if n > 0 {
			out[uint16(t)] = ledger{submitted: n, drops: b.drops[t]}
		}
	}
	return out
}

// close stops the socket side and the engine, and closes the books:
// it returns the frames unaccounted for and the first error.
func (b *bench) close() (missing uint64, err error) {
	if b.client != nil {
		_ = b.client.Close()
	}
	if b.eng != nil {
		b.eng.Drain()
		st := b.eng.Stats()
		missing, err = b.chk.conserve(b.books(), st, b.egress)
		if b.src != nil && err == nil {
			err = checkIngress(st, b.client.Sent(), b.sent())
		}
		if b.stop != nil {
			b.stop()
			_ = b.src.Close()
			<-b.served
		}
		if cerr := b.eng.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && b.chk.bad > 0 {
		err = errors.New(b.chk.firstBad)
	}
	return missing, err
}

// checkIngress closes the socket books: client-sent = received =
// submitted, nothing dropped on the way.
func checkIngress(st menshen.EngineStats, clientSent, frames uint64) error {
	if len(st.Ingress) != 1 {
		return fmt.Errorf("%d ingress sources registered", len(st.Ingress))
	}
	in := st.Ingress[0]
	if clientSent != frames || in.Received != frames || in.Submitted != frames ||
		in.SubmitRejected+in.ShortDropped+in.OversizeDropped != 0 {
		return fmt.Errorf("socket books: client sent %d of %d, received %d, submitted %d, rejected %d, short %d, oversize %d",
			clientSent, frames, in.Received, in.Submitted, in.SubmitRejected, in.ShortDropped, in.OversizeDropped)
	}
	return nil
}

// timedSink wraps the engine as the socket source's sink in traced
// runs, timing each owned submit.
type timedSink struct {
	*menshen.Engine
	tr *tracer
}

func (s *timedSink) SubmitOwned(f []byte) (bool, error) {
	t0 := nanotime()
	ok, err := s.Engine.SubmitOwned(f)
	s.tr.submit(t0, nanotime(), 1)
	return ok, err
}

// udpSink is a drained loopback socket for timing the load client on
// in-process workloads.
func udpSink() (addr string, closeFn func(), err error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	return conn.LocalAddr().String(), func() { _ = conn.Close(); <-done }, nil
}

func median(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func quantile[T int32 | int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
