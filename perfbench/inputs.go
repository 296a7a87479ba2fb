package main

// Inputs: the tenant mix, the frames each workload sends, and the
// expected output of every frame. Everything here is derived from the
// seed and from the rule tables written in the programs' P4 text, never
// from running the program under test.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/p4progs"
	"repro/internal/packet"
	"repro/internal/trafficgen"
)

// Tenant module IDs of the CAM workloads (one per Table 3 program).
const (
	tenantCalc     uint16 = 1
	tenantFirewall uint16 = 2
	tenantKV       uint16 = 3
	tenantLB       uint16 = 4
)

const (
	minFrame  = 64   // every minimal frame is padded to the Ethernet minimum
	bigFrame  = 1500 // the MTU-sized frames of the socket workload
	tagOff    = 60   // frame tag: a big-endian uint32 in the padding no program touches
	flowsEach = 16   // flows per CAM tenant
	// Frames per tenant in one cycle of the CAM sequence: every flow
	// appears exactly perFlow times, so shares (the Firewall deny share
	// among them) are exact for any seed.
	perFlow = 64
)

// Frame kinds the oracle knows how to check.
const (
	kindCalc uint8 = iota + 1
	kindFirewall
	kindKVGet
	kindKVPut
	kindLB
)

// Rule tables as written in the P4 text of internal/p4progs. The
// oracle takes verdicts and ports from these, and checkRuleText makes
// sure the program text still says the same.
var (
	firewallDeny = []struct {
		src   uint32
		dport uint16
		text  string
	}{
		{0x0a000001, 80, "(0x0a000001, 80)   -> deny;"},
		{0x0a000001, 8080, "(0x0a000001, 8080) -> deny;"},
		{0x0a000002, 443, "(0x0a000002, 443)  -> deny;"},
	}
	// Load Balancing: (vip, sport 1000+i) -> to_port(i+1).
	lbVIP   = packet.IPv4Addr{10, 0, 0, 10}
	lbSport = []uint16{1000, 1001, 1002, 1003}
)

// checkRuleText fails when a program's P4 text no longer carries the
// rule entries the oracle assumes.
func checkRuleText() error {
	want := map[string][]string{"Firewall": nil, "Load Balancing": nil}
	for _, d := range firewallDeny {
		want["Firewall"] = append(want["Firewall"], d.text)
	}
	for i, sp := range lbSport {
		want["Load Balancing"] = append(want["Load Balancing"], fmt.Sprintf("(0x0a00000a, %d) -> to_port(%d);", sp, i+1))
	}
	for name, lines := range want {
		p, err := p4progs.ByName(name)
		if err != nil {
			return err
		}
		for _, l := range lines {
			if !strings.Contains(p.Source(), l) {
				return fmt.Errorf("oracle rule %q not found in the %s program text", l, name)
			}
		}
	}
	return nil
}

// expect is one frame's expected fate and output fields.
type expect struct {
	tenant uint16
	kind   uint8
	drop   bool   // a module action discards it
	port   uint8  // egress port when forwarded
	result uint32 // CALC: the result field
	key    uint16 // NetCache: the key
	value  uint32 // NetCache PUT: the value written
}

// inputs is one workload's traffic: frames in submission order (a
// cycle the generator repeats) and the expectation behind each tag.
type inputs struct {
	seq   [][]byte // one cycle of frames, submission order
	exp   []expect // indexed by the frame's tag
	reach []bool   // per seq position: does the frame reach OnBatch?
}

// prng is a seeded splitmix64 stream: cheap, and independent of the
// generators inside the program under test.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, p.intn(i+1))
	}
}

func tag(frame []byte, t uint32) { binary.BigEndian.PutUint32(frame[tagOff:], t) }

func tagOf(frame []byte) uint32 { return binary.BigEndian.Uint32(frame[tagOff:]) }

// expectOf is the expectation behind an input frame.
func (in *inputs) expectOf(frame []byte) *expect { return &in.exp[tagOf(frame)] }

// camFrame builds one frame of a CAM tenant's flow f and its
// expectation.
func camFrame(r *prng, tenant uint16, f, size int) ([]byte, expect) {
	e := expect{tenant: tenant}
	var fr []byte
	switch tenant {
	case tenantCalc:
		op := uint16(1 + r.intn(3))
		a, b := uint32(r.next()), uint32(r.next())
		fr = trafficgen.CalcPacket(tenant, op, a, b, size)
		setSport(fr, uint16(4000+f))
		e.kind = kindCalc
		switch op {
		case trafficgen.CalcAdd:
			e.result = a + b
		case trafficgen.CalcSub:
			e.result = a - b
		default:
			e.result = a
		}
	case tenantFirewall:
		src := packet.IPv4Addr{10, 0, 0, byte(1 + f/4)}
		dport := []uint16{80, 443, 8080, 22}[f%4]
		fr = trafficgen.FlowPacket(tenant, src, packet.IPv4Addr{10, 9, 9, 9}, 5000, dport, size)
		e.kind = kindFirewall
		for _, d := range firewallDeny {
			if d.src == src.Uint32() && d.dport == dport {
				e.drop = true
			}
		}
	case tenantKV:
		key, val := uint16(r.intn(64)), uint32(r.next())
		op := uint16(trafficgen.KVGet)
		e.kind = kindKVGet
		if r.intn(2) == 0 {
			op, e.kind, e.value = trafficgen.KVPut, kindKVPut, val
		}
		fr = trafficgen.KVPacket(tenant, op, key, val, size)
		setSport(fr, uint16(4000+f))
		e.key = key
	case tenantLB:
		i := f % len(lbSport)
		src := packet.IPv4Addr{10, 0, 4, byte(1 + f/len(lbSport))}
		fr = trafficgen.FlowPacket(tenant, src, lbVIP, lbSport[i], 80, size)
		e.kind, e.port = kindLB, uint8(i+1)
	}
	return fr, e
}

func setSport(frame []byte, sport uint16) {
	binary.BigEndian.PutUint16(frame[packet.OffUDP:], sport)
}

// camInputs builds the CAM mix: the given tenants at equal weight,
// flowsEach flows each, every flow perFlow times per cycle, shuffled
// by the seed. bigEvery > 0 makes every bigEvery-th frame MTU-sized.
// reachAll says whether dropped frames still reach OnBatch (they do
// unless egress scheduling is on).
func camInputs(seed uint64, tenants []uint16, bigEvery int, reachAll bool) *inputs {
	r := &prng{s: seed}
	per := flowsEach * perFlow
	order := make([]uint16, 0, per*len(tenants))
	for _, t := range tenants {
		for i := 0; i < per; i++ {
			order = append(order, t)
		}
	}
	r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	flows := make(map[uint16][]int, len(tenants))
	for _, t := range tenants {
		fl := make([]int, 0, per)
		for f := 0; f < flowsEach; f++ {
			for k := 0; k < perFlow; k++ {
				fl = append(fl, f)
			}
		}
		r.shuffle(len(fl), func(i, j int) { fl[i], fl[j] = fl[j], fl[i] })
		flows[t] = fl
	}
	in := &inputs{}
	next := make(map[uint16]int, len(tenants))
	for i, t := range order {
		size := minFrame
		if bigEvery > 0 && i%bigEvery == bigEvery-1 {
			size = bigFrame
		}
		fr, e := camFrame(r, t, flows[t][next[t]], size)
		next[t]++
		tag(fr, uint32(i))
		in.seq = append(in.seq, fr)
		in.exp = append(in.exp, e)
		in.reach = append(in.reach, reachAll || !e.drop)
	}
	return in
}

// Flow-scale workload geometry.
const (
	zipfFlows = 1_000_000
	zipfSeq   = 1 << 18 // draws per cycle; far above the flow cache's reuse distance
	zipfS     = 1.0     // Zipf exponent over flow rank
)

// zipfInputs draws zipfSeq flows Zipf(zipfS)-distributed over a seeded
// permutation of zipfFlows flows. ports[f] is the port of the action
// the flow's entry points at (entry i of the vip table -> port i+1),
// chosen per flow from the seed.
func zipfInputs(seed uint64, tenant uint16) (in *inputs, ports []uint8) {
	r := &prng{s: seed}
	ports = make([]uint8, zipfFlows)
	for f := range ports {
		ports[f] = uint8(1 + r.intn(len(lbSport)))
	}
	perm := make([]int32, zipfFlows)
	for i := range perm {
		perm[i] = int32(i)
	}
	r.shuffle(zipfFlows, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	cdf := make([]float64, zipfFlows)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	in = &inputs{exp: make([]expect, zipfFlows)}
	for f := range in.exp {
		in.exp[f] = expect{tenant: tenant, kind: kindLB, port: ports[f]}
	}
	buf := make([]byte, zipfSeq*minFrame)
	for i := 0; i < zipfSeq; i++ {
		u := float64(r.next()>>11) / (1 << 53) * sum
		lo, hi := 0, zipfFlows-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		f := int(perm[lo])
		fr := buf[i*minFrame : (i+1)*minFrame : (i+1)*minFrame]
		copy(fr, trafficgen.FlowScaleFrame(tenant, f, minFrame))
		tag(fr, uint32(f))
		in.seq = append(in.seq, fr)
		in.reach = append(in.reach, true)
	}
	return in, ports
}
