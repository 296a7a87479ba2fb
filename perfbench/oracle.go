package main

// The oracle: checks every frame the engine delivers against the
// expectations built with the inputs, keeps the NetCache last-write
// map, and closes the per-tenant books at the end of a run.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	menshen "repro"
)

// Offsets of the fields the oracle reads (Eth+VLAN+IP+UDP = 46).
const (
	calcResultOff = 46 + 10
	kvValueOff    = 46 + 4
)

// oracle runs inside OnBatch on the engine's single worker goroutine;
// only its progress counter is read from other goroutines.
type oracle struct {
	exp       []expect
	kv        [64]uint32 // NetCache last-write map (registers start at zero)
	delivered map[uint16]uint64
	dropped   map[uint16]uint64
	bad       uint64 // wrong frames: bad field, wrong port, unexpected fate
	firstBad  string
	prog      progress
}

func newOracle(exp []expect) *oracle {
	return &oracle{
		exp:       exp,
		delivered: make(map[uint16]uint64),
		dropped:   make(map[uint16]uint64),
		prog:      progress{wake: make(chan struct{}, 1)},
	}
}

// onBatch is the engine's OnBatch callback.
func (c *oracle) onBatch(_ int, tenant uint16, res []menshen.EngineResult) {
	for i := range res {
		c.check(tenant, &res[i])
	}
	c.prog.add(uint64(len(res)))
}

func (c *oracle) fail(format string, args ...any) {
	c.bad++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

func (c *oracle) check(tenant uint16, r *menshen.EngineResult) {
	if r.Dropped {
		c.dropped[tenant]++
		if !r.DiscardedByModule || r.Err != nil {
			c.fail("tenant %d: frame dropped outside a module action (verdict %v, err %v)", tenant, r.Verdict, r.Err)
		}
		return
	}
	c.delivered[tenant]++
	if len(r.Data) < tagOff+4 {
		c.fail("tenant %d: %d-byte frame delivered", tenant, len(r.Data))
		return
	}
	t := tagOf(r.Data)
	if int(t) >= len(c.exp) {
		c.fail("tenant %d: unknown frame tag %d", tenant, t)
		return
	}
	e := &c.exp[t]
	switch {
	case e.tenant != tenant:
		c.fail("frame %d of tenant %d delivered as tenant %d", t, e.tenant, tenant)
	case e.drop:
		c.fail("frame %d: forwarded, but a deny rule matches it", t)
	case r.EgressPort != e.port:
		c.fail("frame %d: egress port %d, want %d", t, r.EgressPort, e.port)
	}
	switch e.kind {
	case kindCalc:
		if got := binary.BigEndian.Uint32(r.Data[calcResultOff:]); got != e.result {
			c.fail("frame %d: CALC result %d, want %d", t, got, e.result)
		}
	case kindKVPut:
		c.kv[e.key] = e.value
	case kindKVGet:
		if got := binary.BigEndian.Uint32(r.Data[kvValueOff:]); got != c.kv[e.key] {
			c.fail("frame %d: NetCache GET key %d = %d, last write %d", t, e.key, got, c.kv[e.key])
		}
	}
}

// ledger closes one tenant's books: frames submitted and the share of
// them a module must discard.
type ledger struct {
	submitted uint64
	drops     uint64 // expected module drops among them
}

// conserve checks, per tenant, delivered + dropped == submitted and
// dropped == expected drops, against both the oracle's own counts and
// the engine's telemetry. egress says whether dropped frames bypass
// OnBatch (they do when egress scheduling is on). It returns how many
// frames are unaccounted for or misdirected.
func (c *oracle) conserve(books map[uint16]ledger, st menshen.EngineStats, egress bool) (missing uint64, err error) {
	for t, b := range books {
		dropped := c.dropped[t]
		if egress {
			dropped = st.Tenants[t].PipelineDrops
		}
		got := c.delivered[t] + dropped
		if got != b.submitted {
			missing += absDiff(got, b.submitted)
			err = fmt.Errorf("tenant %d: delivered %d + dropped %d != submitted %d", t, c.delivered[t], dropped, b.submitted)
		}
		if dropped != b.drops {
			missing += absDiff(dropped, b.drops)
			err = fmt.Errorf("tenant %d: %d frames dropped, deny rules account for %d", t, dropped, b.drops)
		}
		ts := st.Tenants[t]
		if ts.PipelineDrops != b.drops || ts.QueueFull != 0 || ts.RateLimited != 0 || ts.EgressDropped != 0 {
			err = fmt.Errorf("tenant %d: engine counts %d pipeline, %d queue, %d rate, %d egress drops; want %d, 0, 0, 0",
				t, ts.PipelineDrops, ts.QueueFull, ts.RateLimited, ts.EgressDropped, b.drops)
			if missing == 0 {
				missing = 1
			}
		}
	}
	return missing, err
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// progress counts frames that reached OnBatch and lets one waiter
// block until a target count, stamping the moment the target was
// crossed on the worker goroutine (so a wait's wake-up latency is not
// part of a measured round trip).
type progress struct {
	done   atomic.Uint64
	target atomic.Uint64 // 0 = nobody waiting
	at     atomic.Int64  // nanotime when the last target was crossed
	wake   chan struct{}
	timer  *time.Timer // waiter's reused timeout
}

func (p *progress) add(n uint64) {
	d := p.done.Add(n)
	if t := p.target.Load(); t != 0 && d >= t && p.target.CompareAndSwap(t, 0) {
		p.at.Store(nanotime())
		p.wake <- struct{}{}
	}
}

// wait blocks until done >= t and returns the crossing time, or false
// after the timeout.
func (p *progress) wait(t uint64, timeout time.Duration) (int64, bool) {
	if p.done.Load() >= t {
		return nanotime(), true
	}
	p.target.Store(t)
	if p.done.Load() >= t && p.target.CompareAndSwap(t, 0) {
		return nanotime(), true
	}
	if p.timer == nil {
		p.timer = time.NewTimer(timeout)
	} else {
		p.timer.Reset(timeout)
	}
	defer p.timer.Stop()
	select {
	case <-p.wake:
		return p.at.Load(), true
	case <-p.timer.C:
		if !p.target.CompareAndSwap(t, 0) {
			<-p.wake // crossed just now
			return p.at.Load(), true
		}
		return 0, false
	}
}

var epoch = time.Now()

// nanotime is a monotonic clock reading in ns.
func nanotime() int64 { return int64(time.Since(epoch)) }
