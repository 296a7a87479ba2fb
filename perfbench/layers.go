package main

// The traced run: spans at the benchmark's calls into each layer, and
// single-goroutine replays of the workload's own frames against the
// engine's pipeline replica once the engine has stopped.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	menshen "repro"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/ingress"
	"repro/internal/netdev"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/sysmod"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// Span names, one per call boundary.
const (
	spWindow uint8 = iota
	spSubmit
	spSend
	spDelivery
	spReload
	spQuiesce
	spCollect
	spFlowInstall
	spReplay
)

var spanNames = [...]string{"probe.window", "engine.submit", "ingress.send", "engine.delivery",
	"engine.reload", "engine.quiesce", "obs.collect", "tables.flow_install", "replay"}

const maxSpans = 1 << 18

type span struct {
	start, end     int64
	parent, window int32
	name           uint8
	label          string // replays: the layer replayed
}

// tracer keeps spans in memory (written out when the run ends) and the
// per-layer aggregates. A nil *tracer records nothing, so untraced runs
// pay one nil check per call. Spans come from several goroutines (the
// socket RX loop, the reload and scrape tickers), so every method holds
// mu.
type tracer struct {
	mu    sync.Mutex
	spans []span
	lost  int
	cur   int32 // open probe window span, -1 when none
	win   int32
	phase string // "load" or "probe" while those phases are timed

	submitNs, submitFrames int64
	sendNs, sendFrames     int64
	delivery               []int64
	reloadCmds, reloadAtt  []int
	quiesce, collects      []int64
	installNs, installed   int64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, maxSpans), cur: -1, win: -1}
}

// rec appends a span under the open probe window, if any; mu is held.
func (t *tracer) rec(name uint8, start, end int64, label string) int32 {
	return t.recUnder(name, start, end, label, t.cur, t.win)
}

// recUnder appends a span with the given parent and window; mu is held.
func (t *tracer) recUnder(name uint8, start, end int64, label string, parent, window int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.lost++
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, window: window, name: name, label: label})
	return int32(len(t.spans) - 1)
}

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// submit records a SubmitBatch or, on the socket, a SubmitOwned from
// the RX loop; in a probe window it is the window's child.
func (t *tracer) submit(start, end int64, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec(spSubmit, start, end, "")
	if t.phase == "load" {
		t.submitNs += end - start
		t.submitFrames += int64(n)
	}
}

func (t *tracer) send(start, end int64, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec(spSend, start, end, "")
	if t.phase == "load" {
		t.sendNs += end - start
		t.sendFrames += int64(n)
	}
}

// openWindow starts a probe window's span; the submit or send inside
// it becomes its child. k is -1 for a warm-in window, which is traced
// but not measured.
func (t *tracer) openWindow(start int64, k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.win = int32(k)
	t.cur = t.recUnder(spWindow, start, 0, "", -1, t.win)
}

// closeWindow ends the window at the last OnBatch and records the
// delivery span (hand-off return to last OnBatch).
func (t *tracer) closeWindow(ret, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur >= 0 {
		t.spans[t.cur].end = end
	}
	t.rec(spDelivery, ret, end, "")
	if t.phase == "probe" && t.win >= 0 {
		t.delivery = append(t.delivery, end-ret)
	}
	t.cur, t.win = -1, -1
}

// reload records a live reload. Reloads run on their own goroutine in
// reload-under-load, so they belong to no probe window.
func (t *tracer) reload(start, end int64, rep menshen.VerifyReport) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recUnder(spReload, start, end, "", -1, -1)
	t.reloadCmds = append(t.reloadCmds, rep.Commands)
	t.reloadAtt = append(t.reloadAtt, rep.Attempts)
}

func (t *tracer) quiesced(start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recUnder(spQuiesce, start, end, "", -1, -1)
	t.quiesce = append(t.quiesce, end-start)
}

// collect records a scrape; like reloads, scrapes belong to no window.
func (t *tracer) collect(start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recUnder(spCollect, start, end, "", -1, -1)
	t.collects = append(t.collects, end-start)
}

func (t *tracer) flowInstall(start, end int64, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recUnder(spFlowInstall, start, end, "", -1, -1)
	t.installNs += end - start
	t.installed += int64(n)
}

// replay records one replay pass of a layer.
func (t *tracer) replay(start, end int64, label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recUnder(spReplay, start, end, label, -1, -1)
}

// write dumps the spans as CSV: name,label,start_ns,end_ns,parent,window.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,label,start_ns,end_ns,parent,window")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", spanNames[s.name], s.label, s.start, s.end, s.parent, s.window)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// quiesceProbe times n QuiesceCtx round trips.
func (b *bench) quiesceProbe(n int) error {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	for i := 0; i < n; i++ {
		t0 := nanotime()
		if err := b.eng.QuiesceCtx(ctx); err != nil {
			return err
		}
		b.tr.quiesced(t0, nanotime())
	}
	return nil
}

// matchStage is the module's tenant stage with the most CAM entries.
func matchStage(pipe *core.Pipeline, mod uint16) int {
	best, bestN := -1, 0
	for i, st := range pipe.Stages {
		if n := st.Match.ValidCount(int(mod)); n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// flowProbe times InsertFlows+QuiesceCtx on a CAM workload: each
// distinct match key of the workload's frames that resolves in its
// tenant's CAM is installed as an exact-match flow to the same action,
// then removed again.
func (b *bench) flowProbe() error {
	pipe, cp := b.dev.Pipeline(), b.dev.ControlPlane()
	type tk struct {
		t   uint16
		key tables.Key
	}
	seen := make(map[tk]bool)
	byTenant := make(map[uint16][]menshen.FlowEntry)
	for _, fr := range b.in.seq {
		t := b.in.expectOf(fr).tenant
		stg := matchStage(pipe, t)
		key, err := cp.FlowKeyForFrame(t, stg, fr)
		if err != nil {
			return err
		}
		if seen[tk{t, key}] {
			continue
		}
		seen[tk{t, key}] = true
		if addr, ok := pipe.Stages[stg].Match.Lookup(key, t); ok {
			byTenant[t] = append(byTenant[t], menshen.FlowEntry{Valid: true, Key: key, Addr: uint16(addr)})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	for t, flows := range byTenant {
		stg := matchStage(pipe, t)
		t0 := nanotime()
		if _, err := b.eng.InsertFlows(t, stg, flows); err != nil {
			return err
		}
		if err := b.eng.QuiesceCtx(ctx); err != nil {
			return err
		}
		b.tr.flowInstall(t0, nanotime(), len(flows))
		for i := range flows {
			flows[i].Valid = false
		}
		if _, err := b.eng.InsertFlows(t, stg, flows); err != nil {
			return err
		}
		if err := b.eng.QuiesceCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// sendProbe times the load client on an in-process workload: the
// workload's frames sent to a drained loopback socket for d.
func (b *bench) sendProbe(d time.Duration) error {
	addr, stop, err := udpSink()
	if err != nil {
		return err
	}
	defer stop()
	c, err := trafficgen.DialLoad("udp", addr, ingress.Backoff{})
	if err != nil {
		return err
	}
	defer c.Close()
	// The client sends as fast as it can, so its sends count as
	// load-phase sends.
	b.tr.setPhase("load")
	defer b.tr.setPhase("")
	deadline := nanotime() + int64(d)
	for pos := 0; nanotime() < deadline; pos = (pos + udpBatch) % len(b.in.seq) {
		t0 := nanotime()
		if _, err := c.SendBatch(b.in.seq[pos : pos+udpBatch]); err != nil {
			return err
		}
		b.tr.send(t0, nanotime(), udpBatch)
	}
	return nil
}

// replayed holds the per-frame cost of each replayed layer.
type replayed struct {
	pipeline, classify, parse, matchAction, deparse, cuckoo, egress float64
}

// replayMin is the least time each replay runs for.
const replayMin = 150 * time.Millisecond

// replayLayers replays the workload's frames through the layers of a
// stopped engine's pipeline replica, one goroutine, timing each layer
// on its own. batch is the engine's batch size under load.
func (b *bench) replayLayers(pipe *core.Pipeline, batch int, weights map[uint16]float64) (replayed, error) {
	var r replayed
	frames := make([][]byte, len(b.in.seq))
	for i, fr := range b.in.seq {
		frames[i] = append([]byte(nil), fr...)
	}
	repeat := func(label string, pass func() (ns int64, n int)) float64 {
		var per []float64
		t0 := nanotime()
		for len(per) < 3 || nanotime()-t0 < int64(replayMin) {
			s := nanotime()
			ns, n := pass()
			b.tr.replay(s, nanotime(), label)
			per = append(per, float64(ns)/float64(n))
		}
		return med(per)
	}

	// Whole pipeline at the engine's batch size.
	res := make([]core.BatchResult, batch)
	var perr error
	r.pipeline = repeat("core.pipeline", func() (int64, int) {
		t0 := nanotime()
		for i := 0; i+batch <= len(frames); i += batch {
			if err := pipe.ProcessBatchInPlace(frames[i:i+batch], 0, res); err != nil {
				perr = err
			}
		}
		return nanotime() - t0, len(frames) / batch * batch
	})
	if perr != nil {
		return r, perr
	}

	// The layers one at a time, in pipeline order, over chunks of
	// frames: classify, parse, match+action over the stages, deparse.
	type modView struct {
		parse, deparse parser.Program
		views          []stage.View
	}
	fc := stage.NewFlowCache(0) // the engine's default size
	gen := pipe.ConfigGen()
	mods := make(map[uint16]*modView)
	for _, t := range b.tenants {
		pe, ok1 := pipe.Parser.EntryRef(int(t))
		de, ok2 := pipe.Deparser.EntryRef(int(t))
		if !ok1 || !ok2 {
			return r, fmt.Errorf("tenant %d has no parser/deparser entry", t)
		}
		mv := &modView{parse: pe.Compile(), deparse: de.Compile()}
		for s, st := range pipe.Stages {
			v := st.ViewFor(int(t))
			v.AttachFlowCache(fc, gen, uint8(s))
			mv.views = append(mv.views, v)
		}
		mods[t] = mv
	}
	const chunk = 4096
	phvs := make([]phv.PHV, chunk)
	cls := make([]reconfig.ClassifyResult, chunk)
	var tCls, tParse, tMA, tDep, n int64
	layerPass := func() {
		for lo := 0; lo < len(frames); lo += chunk {
			part := frames[lo:min(lo+chunk, len(frames))]
			t0 := nanotime()
			var scope reconfig.ClassifyScope
			for i := 0; i < len(part); i += batch {
				pipe.Filter.BeginBatch(&scope)
				for j := i; j < min(i+batch, len(part)); j++ {
					cls[j] = pipe.Filter.ClassifyBatched(part[j], pipe.Options.NumParsers, &scope)
				}
				pipe.Filter.CommitBatch(&scope)
			}
			t1 := nanotime()
			for i, fr := range part {
				mv := mods[cls[i].ModuleID]
				if err := mv.parse.Parse(fr, &phvs[i]); err != nil {
					perr = err
				}
			}
			t2 := nanotime()
			for i := range part {
				v := &phvs[i]
				v.ModuleID = cls[i].ModuleID
				v.SetIngress(0)
				v.SetBufferTag(cls[i].BufferTag)
				mv := mods[cls[i].ModuleID]
				for s, st := range pipe.Stages {
					if _, err := st.ProcessView(&mv.views[s], v); err != nil {
						perr = err
					}
					if v.Discarded() {
						break
					}
				}
			}
			t3 := nanotime()
			for i, fr := range part {
				if !phvs[i].Discarded() {
					mv := mods[cls[i].ModuleID]
					mv.deparse.Deparse(fr, &phvs[i])
				}
			}
			t4 := nanotime()
			tCls += t1 - t0
			tParse += t2 - t1
			tMA += t3 - t2
			tDep += t4 - t3
			n += int64(len(part))
		}
	}
	var cs, ps, ms, ds []float64
	t0 := nanotime()
	for len(cs) < 3 || nanotime()-t0 < int64(replayMin) {
		tCls, tParse, tMA, tDep, n = 0, 0, 0, 0, 0
		s := nanotime()
		layerPass()
		b.tr.replay(s, nanotime(), "layers")
		cs = append(cs, float64(tCls)/float64(n))
		ps = append(ps, float64(tParse)/float64(n))
		ms = append(ms, float64(tMA)/float64(n))
		ds = append(ds, float64(tDep)/float64(n))
	}
	if perr != nil {
		return r, perr
	}
	r.classify, r.parse, r.matchAction, r.deparse = med(cs), med(ps), med(ms), med(ds)

	// Cuckoo probes over each tenant's key sequence, engine-batch sized.
	cp := b.dev.ControlPlane()
	keys := make(map[uint16][]tables.KeyWords)
	for _, fr := range b.in.seq {
		t := b.in.expectOf(fr).tenant
		key, err := cp.FlowKeyForFrame(t, matchStage(pipe, t), fr)
		if err != nil {
			return r, err
		}
		keys[t] = append(keys[t], key.Words())
	}
	out := make([]int32, batch)
	r.cuckoo = repeat("tables.cuckoo", func() (int64, int) {
		var ns int64
		total := 0
		for t, kws := range keys {
			hash := pipe.Stages[matchStage(pipe, t)].Hash
			t0 := nanotime()
			for i := 0; i+batch <= len(kws); i += batch {
				hash.LookupWordsBatch(t, kws[i:i+batch], out)
			}
			ns += nanotime() - t0
			total += len(kws) / batch * batch
		}
		return ns, total
	})

	// Egress queue: push one engine batch of forwarded frames, pop it.
	q := sched.NewEgressQueue(4 * batch)
	for t, w := range weights {
		if err := q.SetWeight(t, w); err != nil {
			return r, err
		}
	}
	fwd := make([]int, 0, len(frames))
	for i, fr := range frames {
		if !b.in.expectOf(fr).drop {
			fwd = append(fwd, i)
		}
	}
	r.egress = repeat("sched.egress", func() (int64, int) {
		t0 := nanotime()
		for i := 0; i+batch <= len(fwd); i += batch {
			for _, k := range fwd[i : i+batch] {
				e := b.in.expectOf(frames[k])
				q.Push(e.tenant, e.port, frames[k], 0)
			}
			for range batch {
				q.Pop()
			}
		}
		return nanotime() - t0, len(fwd) / batch * batch
	})
	return r, nil
}

// controlLayers times the control path of a reload on its own:
// compiling the reloaded source, and loading it through the control
// plane into a fresh pipeline (the Fig. 9 path).
func (b *bench) controlLayers(n int) (compileMs, loadMs float64, err error) {
	src := b.reloadSrc[0]
	var cms, lms []int64
	for i := 0; i < n; i++ {
		t0 := nanotime()
		prog, err := compiler.Compile(src, compiler.Options{ModuleID: b.reloadTenant})
		if err != nil {
			return 0, 0, err
		}
		cms = append(cms, nanotime()-t0)
		if err := sysmod.NewConfig().Augment(prog.Config); err != nil {
			return 0, 0, err
		}
		plat := netdev.CorundumOptimized()
		pipe := core.New(core.DefaultGeometry(), plat.Opts)
		pl, err := checker.NewAllocator(checker.CapacityOf(pipe.Geometry), nil).Admit(prog.Config)
		if err != nil {
			return 0, 0, err
		}
		client := ctrlplane.New(pipe)
		t1 := nanotime()
		if _, err := client.LoadModule(prog.Config, pl); err != nil {
			return 0, 0, err
		}
		lms = append(lms, nanotime()-t1)
	}
	return float64(median(cms)) / 1e6, float64(median(lms)) / 1e6, nil
}

func med(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func meanInt(v []int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}
