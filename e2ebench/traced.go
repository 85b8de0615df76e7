package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ppstream/internal/alloc"
	"ppstream/internal/core"
	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

// perLayer runs the traced phase and derives the per-layer metrics from
// it and from the calls the benchmark makes into alloc and core itself.
func (b *bench) perLayer(p provider, dur time.Duration) (map[string]metric, error) {
	t0 := time.Now()
	tr, err := b.loop(p, 0, dur, true)
	if err != nil {
		return nil, err
	}
	b.spans.add("", "e2ebench.traced", "", t0, tr.elapsed)
	extras := time.Now()
	fmt.Printf("traced phase: %d inferences (%d traced) in %.1fs\n", tr.completed, len(tr.trees), tr.elapsed.Seconds())
	b.trees = tr.trees
	perTree := func(f func(*obs.TraceTree) float64) float64 {
		v := make([]float64, len(tr.trees))
		for i, t := range tr.trees {
			v[i] = f(t)
		}
		return median(v)
	}
	seg := func(label string) float64 {
		return perTree(func(t *obs.TraceTree) float64 { return ms(t.SegmentTotal(label)) })
	}
	m := map[string]metric{
		"protocol.encrypt_ms":       {seg("client-encrypt"), "ms"},
		"protocol.nonlinear_ms":     {seg("client-nonlinear"), "ms"},
		"protocol.kernel_ms":        {seg("server-kernel"), "ms"},
		"protocol.permute_ms":       {seg("server-permute"), "ms"},
		"protocol.server_queue_ms":  {seg("server-queue"), "ms"},
		"stream.wire_ms":            {seg("wire"), "ms"},
		"stream.queue_wait_ms":      {perTree(queueWait), "ms"},
		"stream.bottleneck_busy_ms": {bottleneckBusy(tr.trees), "ms"},
		"stream.wire_kb_per_req":    {perReq(float64(tr.wireBytes)/1024, tr.completed), "KiB"},
		"stream.frames_per_req":     {perReq(float64(tr.frames), tr.completed), "count"},
		"client.cpu_ms_per_req":     {perReq(ms(tr.clientCPU), tr.completed), "ms"},
		"server.cpu_ms_per_req":     {perReq(ms(tr.serverCPU), tr.completed), "ms"},
		"client.rss_mb":             {tr.clientMB, "MiB"},
		"server.rss_mb":             {tr.serverMB, "MiB"},
		"client.alloc_mb_per_req":   {perReq(float64(tr.runtime.allocBytes)/(1<<20), tr.completed), "MiB"},
		"client.gc_cpu_ms_per_req":  {perReq(tr.runtime.gcCPU*1e3, tr.completed), "ms"},
		"obs.trace_overhead_ms":     {traceOverhead(tr.overhead), "ms"},
	}

	// Crypto-op counts: the program's own CostStats. Over TCP they ride
	// on the merged trace's segments; the wire segments carry only the
	// ciphertext bytes that crossed, which the kernel segment repeats,
	// so bytes are taken from the wire and operations from the rest.
	// The engine's pipeline trace carries no counts, so for it a few
	// requests are stepped through the engine's own protocol with a
	// CostMeter, which also splits its linear stages into kernel and
	// permute time.
	var cost obs.CostStats
	var cipher uint64
	requests := len(tr.trees)
	if ep, ok := p.(*engineProvider); ok {
		st, err := b.stepThrough(ep.eng.Protocol, 2)
		if err != nil {
			return nil, err
		}
		cost, cipher, requests = st.cost, st.cipherBytes, st.requests
		m["protocol.kernel_ms"] = metric{perReq(ms(st.kernel), st.requests), "ms"}
		m["protocol.permute_ms"] = metric{perReq(ms(st.permute), st.requests), "ms"}
	} else {
		for _, t := range tr.trees {
			for _, s := range t.Segments {
				switch {
				case s.Cost == nil:
				case s.Party == "wire":
					cipher += s.Cost.CipherBytesIn + s.Cost.CipherBytesOut
				default:
					cost.Add(*s.Cost)
				}
			}
		}
	}
	hitRatio := 0.0
	if pool := cost.PoolHits + cost.PoolMisses; pool > 0 {
		hitRatio = float64(cost.PoolHits) / float64(pool)
	}
	m["paillier.modexps_per_req"] = metric{perReq(float64(cost.ModExps), requests), "count"}
	m["paillier.mulmods_per_req"] = metric{perReq(float64(cost.MulMods), requests), "count"}
	m["paillier.encrypts_per_req"] = metric{perReq(float64(cost.Encrypts), requests), "count"}
	m["paillier.decrypts_per_req"] = metric{perReq(float64(cost.Decrypts), requests), "count"}
	m["paillier.cipher_kb_per_req"] = metric{perReq(float64(cipher)/1024, requests), "KiB"}
	m["paillier.pool_hit_ratio"] = metric{hitRatio, "ratio"}

	// core and alloc: a NewEngine without a stored profile times the
	// offline profiling pass; the ILP is then re-solved on the layers of
	// the engine the workload uses (the serving engine, or for the TCP
	// workloads, which run no ILP plan, the freshly profiled one).
	t0 = time.Now()
	profiled, err := core.NewEngine(b.net, b.key, b.engineOptions(nil))
	if err != nil {
		return nil, fmt.Errorf("profiling engine: %w", err)
	}
	defer profiled.Close()
	b.spans.add("", "e2ebench.profile", "e2ebench.perlayer", t0, time.Since(t0))
	m["core.profile_s"] = metric{time.Since(t0).Seconds(), "s"}
	planned := profiled
	if ep, ok := p.(*engineProvider); ok {
		planned = ep.eng
	}
	var solves []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		plan, err := alloc.Solve(planned.Layers, planned.Servers, alloc.Options{})
		if err != nil {
			return nil, err
		}
		b.spans.add("", "e2ebench.solve", "e2ebench.perlayer", t0, time.Since(t0))
		solves = append(solves, ms(time.Since(t0)))
		if i == 0 {
			fmt.Printf("ILP thread plan: %v\n", plan.Threads)
		}
	}
	m["alloc.solve_ms"] = metric{median(solves), "ms"}
	m["alloc.imbalance"] = metric{alloc.Imbalance(planned.Layers, planned.Plan.Threads), "s"}

	if err := b.crossCheck(p, profiled); err != nil {
		return nil, err
	}
	b.spans.add("", "e2ebench.perlayer", "", extras, time.Since(extras))
	return m, nil
}

// traceOverhead is the mean of the median traced-minus-untraced latency
// difference over pairs where the traced request went first and over
// pairs where it went second. The second request of a pair can queue
// behind the first (a single-thread stage of the engine holds one
// request at a time), which shifts the two orders' differences by the
// same amount in opposite directions; the mean cancels that.
func traceOverhead(byOrder [2][]float64) float64 {
	return (median(byOrder[0]) + median(byOrder[1])) / 2
}

// queueWait sums a request's queue segments: window and server queues
// over TCP, every stage's input queue in the engine.
func queueWait(t *obs.TraceTree) float64 {
	var d time.Duration
	for _, s := range t.Segments {
		if s.Name == "queue" {
			d += s.Dur
		}
	}
	return ms(d)
}

// bottleneckBusy is the median busy time of the busiest stage: segments
// are grouped by label and round (queues and the inferred wire gap are
// not stages), each group's median is taken over the requests, and the
// largest median is returned.
func bottleneckBusy(trees []*obs.TraceTree) float64 {
	groups := map[string][]float64{}
	for _, t := range trees {
		per := map[string]float64{}
		for _, s := range t.Segments {
			if s.Name == "queue" || s.Party == "wire" {
				continue
			}
			per[fmt.Sprintf("%s#%d", s.Label(), s.Round)] += ms(s.Dur)
		}
		for k, v := range per {
			groups[k] = append(groups[k], v)
		}
	}
	best := 0.0
	for _, v := range groups {
		best = math.Max(best, median(v))
	}
	return best
}

// stepStats is what stepping requests through a protocol measured.
type stepStats struct {
	requests        int
	kernel, permute time.Duration
	cost            obs.CostStats
	cipherBytes     uint64
}

// stepReqBase keeps step-through request IDs clear of the serving
// pipeline's sequence numbers.
const stepReqBase = 1 << 40

// stepThrough runs n requests round by round through proto's metered
// calls, counting crypto operations and the ciphertext bytes each
// envelope would put on a wire.
func (b *bench) stepThrough(proto *protocol.Protocol, n int) (*stepStats, error) {
	st := &stepStats{}
	wireBytes := func(env *protocol.Envelope) error {
		w, err := protocol.ToWire(env)
		if err == nil {
			st.cipherBytes += w.CipherBytes()
		}
		return err
	}
	for i := 0; i < n; i++ {
		idx := b.nextInput()
		req := uint64(stepReqBase + i)
		var meter obs.CostMeter
		t0 := time.Now()
		env, err := proto.Data.EncryptMetered(req, b.inputs[idx], &meter)
		if err != nil {
			return nil, err
		}
		for r := 0; r < proto.Rounds() && err == nil; r++ {
			if err = wireBytes(env); err != nil {
				break
			}
			var timing protocol.LinearTiming
			env, timing, err = proto.Model.ProcessLinearMetered(r, env, &meter)
			if err != nil {
				break
			}
			st.kernel += timing.Kernel
			st.permute += timing.Permute
			if err = wireBytes(env); err != nil {
				break
			}
			env, err = proto.Data.ProcessNonLinearMetered(r, env, &meter)
		}
		proto.Model.Forget(req)
		b.spans.add("", "e2ebench.step", "e2ebench.perlayer", t0, time.Since(t0))
		var out *tensor.Dense
		if err == nil {
			out = env.Result
		}
		if !b.record(idx, out, err) {
			continue
		}
		st.requests++
		st.cost.Add(meter.Snapshot())
	}
	return st, nil
}

// crossCheck sends the first crossInputs inputs of the seeded order
// down all three paths — a ppserver session, a core.Engine, and
// protocol.Protocol.Infer — and requires bit-identical outputs: the
// integer arithmetic does not depend on the encryption randomness. Each
// path's inference is checked and counted like any other; a mismatch
// counts as one more failed operation.
func (b *bench) crossCheck(p provider, profiled *core.Engine) error {
	ctx := context.Background()
	tcp, ok := p.(*tcpProvider)
	if !ok {
		var err error
		if tcp, err = startTCP(serverBin(b.build), b.model, b.net, b.key, factor, 1); err != nil {
			return err
		}
		defer tcp.close()
	}
	eng := profiled
	if ep, ok := p.(*engineProvider); ok {
		eng = ep.eng
	} else if err := eng.Serve(ctx); err != nil {
		return err
	}
	proto, err := protocol.Build(b.net, b.key, protocol.Config{Factor: factor})
	if err != nil {
		return err
	}
	paths := []struct {
		name  string
		infer func(x *tensor.Dense) (*tensor.Dense, error)
	}{
		{"ppserver", func(x *tensor.Dense) (*tensor.Dense, error) { return tcp.client.Infer(ctx, x) }},
		{"engine", func(x *tensor.Dense) (*tensor.Dense, error) {
			out, _, err := eng.Submit(ctx, x)
			return out, err
		}},
		{"protocol", func(x *tensor.Dense) (*tensor.Dense, error) { return proto.Infer(stepReqBase+1000, x) }},
	}
	for i := 0; i < crossInputs; i++ {
		idx := b.order[i]
		var ref *tensor.Dense
		for _, path := range paths {
			t0 := time.Now()
			out, err := path.infer(b.inputs[idx])
			b.spans.add("", "e2ebench.cross."+path.name, "e2ebench.perlayer", t0, time.Since(t0))
			if !b.record(idx, out, err) {
				continue
			}
			if ref == nil {
				ref = out
				continue
			}
			if !bitIdentical(ref, out) {
				b.mu.Lock()
				b.attempted++
				b.failed++
				b.mu.Unlock()
				fmt.Fprintf(os.Stderr, "e2ebench: test input %d: %s output differs from %s in its bits\n", idx, path.name, paths[0].name)
			}
		}
	}
	return nil
}

func bitIdentical(a, b *tensor.Dense) bool {
	x, y := a.Data(), b.Data()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// spanLog keeps the benchmark's own spans and the program's traces in
// memory; a traced run writes them out when it ends.
type spanLog struct {
	start time.Time
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one span the benchmark recorded around a call it made.
// Spans of one request carry the program's trace ID.
type spanRecord struct {
	Trace   string `json:"trace,omitempty"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

func (l *spanLog) add(trace, name, parent string, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRecord{Trace: trace, Name: name, Parent: parent,
		StartUS: start.Sub(l.start).Microseconds(), DurUS: d.Microseconds()})
}

// write stores a traced run's spans, one JSON object a line, with the
// program's merged trace trees after them, under
// <build>/traces/<workload>-seed<seed>.jsonl.
func (l *spanLog) write(build, workload string, seed int64, trees []*obs.TraceTree) error {
	dir := filepath.Join(build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	l.mu.Unlock()
	for _, t := range trees {
		if err == nil {
			err = enc.Encode(t)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
