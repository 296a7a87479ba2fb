package main

// Self-test: every oracle is fed a correct output, which it must
// accept, and a deliberately corrupted one, which it must reject; then
// every workload runs end to end for a moment.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/engine"
)

// oracleCase is one corrupted output and the oracle that must catch it.
type oracleCase struct {
	name string
	// kind of frame to corrupt, and the corruption; nil leaves the
	// correct output alone
	kind    uint8
	corrupt func(r *menshen.EngineResult)
}

var oracleCases = []oracleCase{
	{"flipped CALC result", kindCalc, func(r *menshen.EngineResult) { r.Data[calcResultOff+3] ^= 1 }},
	{"frame on the wrong port", kindLB, func(r *menshen.EngineResult) { r.EgressPort++ }},
	{"stale NetCache GET", kindKVGet, func(r *menshen.EngineResult) { r.Data[kvValueOff] ^= 0x80 }},
	{"denied frame forwarded", kindFirewall, nil},
	{"frame dropped outside a module", kindCalc, func(r *menshen.EngineResult) {
		*r = menshen.EngineResult{ModuleID: r.ModuleID, Dropped: true}
	}},
	{"torn frame tag", kindCalc, func(r *menshen.EngineResult) { r.Data[tagOff+3] ^= 1 }},
}

// correctOutput is what the pipeline should deliver for input frame i.
func correctOutput(in *inputs, i int, kv *[64]uint32) menshen.EngineResult {
	fr := append([]byte(nil), in.seq[i]...)
	e := in.expectOf(fr)
	r := menshen.EngineResult{Data: fr, ModuleID: e.tenant, EgressPort: e.port}
	switch {
	case e.drop:
		return menshen.EngineResult{ModuleID: e.tenant, Dropped: true, DiscardedByModule: true}
	case e.kind == kindCalc:
		binary.BigEndian.PutUint32(fr[calcResultOff:], e.result)
	case e.kind == kindKVPut:
		kv[e.key] = e.value
	case e.kind == kindKVGet:
		binary.BigEndian.PutUint32(fr[kvValueOff:], kv[e.key])
	}
	return r
}

// oracleSelftest checks that the frame oracle accepts a correct run of
// outputs and rejects each corruption, that the books catch a missing
// frame, and that the reload check catches a torn checksum.
func oracleSelftest(w io.Writer) error {
	in := camInputs(7, []uint16{tenantCalc, tenantFirewall, tenantKV, tenantLB}, 0, true)
	replay := func(corrupt *oracleCase) (*oracle, map[uint16]ledger) {
		o := newOracle(in.exp)
		books := map[uint16]ledger{}
		var kv [64]uint32
		done := false
		for i := range in.seq {
			e := in.expectOf(in.seq[i])
			r := correctOutput(in, i, &kv)
			if corrupt != nil && !done && e.kind == corrupt.kind && (corrupt.corrupt != nil || e.drop) {
				if corrupt.corrupt != nil {
					corrupt.corrupt(&r)
				} else {
					r = menshen.EngineResult{Data: append([]byte(nil), in.seq[i]...), ModuleID: e.tenant}
				}
				done = true
			}
			b := books[e.tenant]
			b.submitted++
			if e.drop {
				b.drops++
			}
			books[e.tenant] = b
			o.onBatch(0, e.tenant, []menshen.EngineResult{r})
		}
		return o, books
	}
	stats := func(books map[uint16]ledger) menshen.EngineStats {
		st := menshen.EngineStats{Tenants: map[uint16]engine.TenantStats{}}
		for t, b := range books {
			st.Tenants[t] = engine.TenantStats{PipelineDrops: b.drops}
		}
		return st
	}

	o, books := replay(nil)
	if missing, err := o.conserve(books, stats(books), false); o.bad != 0 || missing != 0 || err != nil {
		return fmt.Errorf("oracle rejected correct outputs: %d bad (%s), %d missing, %v", o.bad, o.firstBad, missing, err)
	}
	fmt.Fprintln(w, "selftest: correct outputs accepted")
	for i := range oracleCases {
		c := &oracleCases[i]
		if o, _ := replay(c); o.bad == 0 {
			return fmt.Errorf("%w: %s", errSelftest, c.name)
		}
		fmt.Fprintf(w, "selftest: rejected %s\n", c.name)
	}
	// A missing frame: one more submitted than came back.
	o, books = replay(nil)
	b := books[tenantKV]
	b.submitted++
	books[tenantKV] = b
	if missing, err := o.conserve(books, stats(books), false); missing != 1 || err == nil {
		return fmt.Errorf("%w: missing frame (missing %d, err %v)", errSelftest, missing, err)
	}
	fmt.Fprintln(w, "selftest: rejected missing frame")

	// A torn reload: a shard whose checksum differs from the reference.
	dev, err := loadDevice([]uint16{tenantLB}, func(uint16) string { return "Load Balancing" })
	if err != nil {
		return err
	}
	sum := dev.Pipeline().ModuleChecksum(tenantLB)
	sh := fakeShards{dev.Pipeline()}
	ok := menshen.VerifyReport{Verified: true}
	if err := checkReload(sh, ok, tenantLB, sum); err != nil {
		return fmt.Errorf("reload check rejected a matching checksum: %w", err)
	}
	if checkReload(sh, ok, tenantLB, sum^1) == nil {
		return fmt.Errorf("%w: torn checksum", errSelftest)
	}
	if checkReload(sh, menshen.VerifyReport{}, tenantLB, sum) == nil {
		return fmt.Errorf("%w: unverified reload", errSelftest)
	}
	fmt.Fprintln(w, "selftest: rejected torn checksum and unverified reload")
	return nil
}

// fakeShards stands one pipeline in for an engine's shards.
type fakeShards struct{ pipe *core.Pipeline }

func (f fakeShards) Workers() int { return 1 }

func (f fakeShards) ShardPipeline(int) (*core.Pipeline, error) { return f.pipe, nil }

// runSelftest runs the oracle self-test, then every workload end to
// end in short mode (one set-up, half a second of traffic), untraced
// and traced, writing no span file.
func runSelftest(w io.Writer) error {
	if err := oracleSelftest(w); err != nil {
		return err
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			rec, res, err := run(options{workload: name, seed: 1, seconds: 0.5, trace: trace, setups: 1})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, rec.Error)
			}
			for _, m := range res.Metrics {
				if m.Value == 0 && !trace {
					return errors.New(name + ": an end-to-end metric reads 0")
				}
			}
			fmt.Fprintf(w, "selftest: %s trace=%v: %d operations, all correct\n", name, trace, res.Attempted)
		}
	}
	return nil
}

var errSelftest = errors.New("oracle accepted a corrupted output")
