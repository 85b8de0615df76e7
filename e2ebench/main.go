// Command e2ebench is the end-to-end benchmark of two-party inference.
// It drives the program only through its public calls (protocol,
// stream, core, alloc, paillier) and measures one workload per run.
//
//	e2ebench -workload mnist2-tcp -seed 1 -seconds 55 -trace 0 -build .bench_build
//	e2ebench prepare -build .bench_build # train and store the models
//	e2ebench profile -build .bench_build # regenerate the stored stage profile
//
// With -trace 0 a run measures the end-to-end metrics over an untraced
// closed loop. With -trace 1 it runs a shorter untraced loop, then a
// traced loop that reads the program's own spans and crypto-op counts,
// and reports the per-layer metrics. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics. See
// README.md for the workloads, the metrics and the steadiness study.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/core"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

const (
	// model, keyBits and factor are fixed for every workload: MNIST-2
	// (1Conv+2FC), 512-bit Paillier keys and the Exp#1 scaling factor.
	model   = "MNIST-2"
	keyBits = 512
	factor  = 100
	// setupReps is how many times a run sets the model provider up in
	// each of its two batches of set-ups, one before the warm-up and one
	// after the measured phases. A set-up takes a few milliseconds and
	// single ones range over a factor of three, so a batch's median needs
	// many of them to hold still: at 21 the engine's batch medians of one
	// run differed by up to a third, at 101 by a few percent.
	setupReps = 101
	// pairGap is how long the traced loop waits between the two requests
	// of a pair, so that the first is admitted first.
	pairGap = 5 * time.Millisecond
	// crossInputs is how many inputs the traced run sends down all three
	// paths (ppserver, core.Engine, protocol.Protocol.Infer) to compare
	// their outputs bit for bit.
	crossInputs = 1
)

// workload is one benchmark configuration.
type workload struct {
	name string
	// tcp selects a ppserver child and a loopback client session;
	// otherwise an in-process core.Engine serves.
	tcp bool
}

var workloads = []workload{
	{name: "mnist2-tcp", tcp: true},
	{name: "mnist2-engine"},
}

const (
	// inflight is the closed loop's concurrency, capped at nproc: two
	// requests keep both cores of a 2-CPU host busy.
	inflight = 2
	// warmup is how many inferences run before timing starts, so the
	// blinding pools fill and the heap reaches its working size.
	warmup = 2
	// tailPct is the reported tail percentile, the same in every run so
	// that the figure means the same thing. tailPercentile reaches it at
	// 40 inferences, which a 55-second run completes with room to spare
	// (see README.md).
	tailPct = 75
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "prepare":
			exitOn(prepare(os.Args[2:]))
			return
		case "profile":
			exitOn(regenProfile(os.Args[2:]))
			return
		}
	}
	name := flag.String("workload", "", "workload to run: mnist2-tcp or mnist2-engine")
	seed := flag.Int64("seed", 1, "seed for the key and the input order")
	seconds := flag.Int("seconds", 55, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced phase; 0 reports end-to-end metrics")
	build := flag.String("build", ".bench_build", "directory holding the ppserver binary and the prepared models")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 2 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *build)
	exitOn(err)
	line, err := json.Marshal(res)
	exitOn(err)
	fmt.Println(string(line))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: the workload's model, key, inputs in
// seeded order with their plaintext references, and what has been
// attempted so far.
type bench struct {
	w       workload
	build   string
	model   string // path of the trained model
	net     *nn.Network
	key     *paillier.PrivateKey
	inputs  []*tensor.Dense
	expect  []expected
	order   []int
	next    atomic.Int64 // position in order of the next input
	started time.Time
	spans   *spanLog

	trees []*obs.TraceTree // the traced phase's merged traces

	mu        sync.Mutex
	attempted int
	failed    int
	maxErr    float64
}

// newBench loads the trained model, derives the key, and precomputes
// the plaintext reference of every test input, so that nothing but the
// comparison happens inside the measured loop.
func newBench(w workload, seed int64, build string) (*bench, error) {
	started := time.Now()
	path, err := modelPath(build)
	if err != nil {
		return nil, err
	}
	net, err := nn.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading model (run the prepare step first): %w", err)
	}
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	ds, err := spec.Dataset()
	if err != nil {
		return nil, err
	}
	key, err := deriveKey(seed, keyBits)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, build: build, model: path, net: net, key: key, inputs: ds.TestX,
		order: rand.New(rand.NewSource(seed)).Perm(len(ds.TestX)), started: started}
	b.spans = &spanLog{start: b.started}
	for _, x := range ds.TestX {
		e, err := expect(net, x, factor)
		if err != nil {
			return nil, err
		}
		b.expect = append(b.expect, e)
	}
	return b, nil
}

// nextInput returns the next input in the seeded order, cycling.
func (b *bench) nextInput() int {
	i := int(b.next.Add(1) - 1)
	return b.order[i%len(b.order)]
}

// record counts one attempted inference and checks its output.
func (b *bench) record(idx int, out *tensor.Dense, err error) bool {
	if err == nil {
		err = b.expect[idx].check(out)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "e2ebench: inference on test input %d failed: %v\n", idx, err)
		}
		return false
	}
	if e := b.expect[idx].maxError(out); e > b.maxErr {
		b.maxErr = e
	}
	return true
}

// startProvider sets the workload's model provider up and attaches the
// data provider. The engine workload solves its thread plan from the
// stored profile, so every run gets the same plan.
func (b *bench) startProvider() (provider, error) {
	if b.w.tcp {
		return startTCP(serverBin(b.build), b.model, b.net, b.key, factor, workers())
	}
	prof, err := loadProfile()
	if err != nil {
		return nil, err
	}
	return startEngine(b.net, b.key, b.engineOptions(prof))
}

// engineOptions is the paper's PP-Stream configuration: the ILP thread
// plan and tensor partitioning over one model and one data server. A nil
// profile makes NewEngine profile the stages itself.
func (b *bench) engineOptions(prof *stageProfile) core.Options {
	opts := core.Options{
		Factor:          factor,
		Topology:        topology(),
		LoadBalance:     true,
		TensorPartition: true,
		ProfileSample:   b.inputs[b.order[0]],
	}
	if prof != nil {
		opts.ProfiledTimes = prof.Times
		opts.ProfiledEncrypt = prof.Encrypt
	}
	return opts
}

// topology splits nproc cores between the model and the data server,
// but gives each at least two: a server hosts at most two threads per
// core (Eq. 8), and MNIST-2's three linear stages, like its three
// non-linear ones, need a thread each. Below four CPUs the two servers
// therefore hold more cores than the host has; that is also
// core.NewEngine's default topology.
func topology() core.Topology {
	cores := runtime.NumCPU() / 2
	if cores < 2 {
		cores = 2
	}
	return core.Topology{ModelServers: 1, DataServers: 1, CoresPerServer: cores}
}

func workers() int {
	return min(inflight, runtime.NumCPU())
}

// phase is what one closed-loop phase measured.
type phase struct {
	lat       []float64    // ms, correct inferences only
	overhead  [2][]float64 // ms, traced minus untraced latency of each pair; [0] traced first
	trees     []*obs.TraceTree
	completed int
	elapsed   time.Duration
	clientCPU time.Duration
	serverCPU time.Duration
	clientMB  float64
	serverMB  float64
	runtime   runtimeSample // deltas
	wireBytes uint64
	frames    uint64
}

// loop runs the closed loop: workers() goroutines, each sending its next
// request as soon as the previous one returns. With n > 0 it stops after
// n inferences, otherwise workers stop starting new ones after dur; the
// phase ends when the last in-flight inference returns. A traced loop
// (dur only) instead sends each input down two concurrent requests, one
// traced and one not, so that both halves of a pair run on the same host
// at the same time. The second starts pairGap after the first, and the
// traced one goes first in every other pair; the latency differences are
// kept per order.
func (b *bench) loop(p provider, n int, dur time.Duration, traced bool) (*phase, error) {
	cc := connOf(p)
	var bytes0, frames0 uint64
	if cc != nil {
		bytes0, frames0 = cc.totals()
	}
	cli0, srv0, _, _, err := p.usage()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	ph := &phase{}
	var mu sync.Mutex
	var issued atomic.Int64
	ctx := context.Background()
	// call runs one inference and returns its latency in ms, and whether
	// it was correct.
	call := func(idx int, traced bool) (float64, bool) {
		t0 := time.Now()
		out, tree, err := p.infer(ctx, b.inputs[idx], traced)
		lat := time.Since(t0)
		if traced && tree != nil {
			b.spans.add(tree.ID, "e2ebench.infer", "e2ebench.traced", t0, lat)
		}
		if !b.record(idx, out, err) {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		ph.lat = append(ph.lat, ms(lat))
		ph.completed++
		if tree != nil {
			ph.trees = append(ph.trees, tree)
		}
		return ms(lat), true
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	if traced {
		for k := 0; time.Now().Before(deadline); k++ {
			idx := b.nextInput()
			tracedFirst := k%2 == 0
			var lat [2]float64
			var ok [2]bool
			var pair sync.WaitGroup
			for j := range lat {
				if j == 1 {
					time.Sleep(pairGap)
				}
				pair.Add(1)
				go func() {
					defer pair.Done()
					lat[j], ok[j] = call(idx, (j == 0) == tracedFirst)
				}()
			}
			pair.Wait()
			if ok[0] && ok[1] {
				d := lat[1] - lat[0]
				if tracedFirst {
					d = -d
				}
				ph.overhead[k%2] = append(ph.overhead[k%2], d)
			}
		}
	} else {
		for i := 0; i < workers(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if n > 0 {
						if issued.Add(1) > int64(n) {
							return
						}
					} else if !time.Now().Before(deadline) {
						return
					}
					call(b.nextInput(), false)
				}
			}()
		}
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	cli1, srv1, cliMB, srvMB, err := p.usage()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	ph.clientCPU, ph.serverCPU = cli1-cli0, srv1-srv0
	ph.clientMB, ph.serverMB = cliMB, srvMB
	ph.runtime = runtimeSample{allocBytes: rt1.allocBytes - rt0.allocBytes, gcCPU: rt1.gcCPU - rt0.gcCPU}
	if cc != nil {
		bytes1, frames1 := cc.totals()
		ph.wireBytes, ph.frames = bytes1-bytes0, frames1-frames0
	}
	return ph, nil
}

func connOf(p provider) *countingConn {
	if t, ok := p.(*tcpProvider); ok {
		return t.conn
	}
	return nil
}

// run measures one workload.
func run(w workload, seed int64, dur time.Duration, traced bool, build string) (*result, error) {
	b, err := newBench(w, seed, build)
	if err != nil {
		return nil, err
	}
	protocol.RegisterServiceWire()
	fmt.Printf("loaded model, test set, key and references in %.2fs\n", time.Since(b.started).Seconds())
	probeBefore := hostProbe()

	// Set-up: one batch of set-ups before the warm-up, whose last
	// provider serves the run, and one after the measured phases.
	before, p, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	if ep, ok := p.(*engineProvider); ok {
		fmt.Printf("ILP thread plan from the stored profile: %v\n", ep.eng.Plan.Threads)
	}

	if _, err := b.loop(p, warmup, 0, false); err != nil {
		return nil, err
	}
	untracedDur := dur
	if traced {
		untracedDur = dur / 2
	}
	ph, err := b.loop(p, 0, untracedDur, false)
	if err != nil {
		return nil, err
	}
	var layers map[string]metric
	if traced {
		if layers, err = b.perLayer(p, dur/2); err != nil {
			return nil, err
		}
	}
	probeAfter := hostProbe()
	err = p.close()
	p = nil
	if err != nil {
		return nil, err
	}
	after, last, err := b.setUp()
	if err != nil {
		return nil, err
	}
	if err := last.close(); err != nil {
		return nil, err
	}

	metrics := b.endToEnd(ph, before, after)
	if traced {
		printMetrics("end-to-end (untraced phase)", metrics)
		metrics = layers
	}
	printMetrics(map[bool]string{false: "end-to-end", true: "per-layer (traced phase)"}[traced], metrics)
	fmt.Printf("host probe: %.1f us/modexp before, %.1f us/modexp after\n",
		float64(probeBefore)/1e3, float64(probeAfter)/1e3)
	fmt.Printf("outputs: largest element error %.4g against the float forward pass\n", b.maxErr)
	if traced {
		if err := b.spans.write(b.build, w.name, seed, b.trees); err != nil {
			return nil, err
		}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// setUp starts the model provider setupReps times, closing each before
// the next starts, and returns the set-up times in seconds with the last
// provider still open.
func (b *bench) setUp() ([]float64, provider, error) {
	var setups []float64
	var p provider
	for i := 0; i < setupReps; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = b.startProvider(); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		b.spans.add("", "e2ebench.setup", "", t0, d)
		setups = append(setups, d.Seconds())
	}
	return setups, p, nil
}

// endToEnd derives the end-to-end metrics from the untraced phase and
// the two batches of set-ups. setup_s is the mean of the batches'
// medians: the host's speed can differ by a third between the two ends
// of a run, and a batch of set-ups lasts well under a second.
func (b *bench) endToEnd(ph *phase, before, after []float64) map[string]metric {
	n := len(ph.lat)
	if tp := tailPercentile(n); tp < tailPct {
		fmt.Fprintf(os.Stderr, "e2ebench: %d inferences support p%d at most, below the reported p%d; lengthen the run\n", n, tp, tailPct)
	}
	lat := append([]float64(nil), ph.lat...)
	fmt.Printf("set-up: median %.3f ms over %d before the warm-up, %.3f ms over %d after the measured phases\n",
		median(before)*1e3, len(before), median(after)*1e3, len(after))
	fmt.Printf("untraced phase: %d inferences in %.1fs, tail percentile p%d\n", n, ph.elapsed.Seconds(), tailPct)
	return map[string]metric{
		"setup_s":         {(median(before) + median(after)) / 2, "s"},
		"throughput_rps":  {float64(ph.completed) / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {percentile(lat, tailPct), "ms"},
		"cpu_ms_per_req":  {perReq(ms(ph.clientCPU+ph.serverCPU), ph.completed), "ms"},
		"rss_mb":          {ph.clientMB + ph.serverMB, "MiB"},
	}
}

// printMetrics prints one metric per line, sorted by name.
func printMetrics(title string, m map[string]metric) {
	fmt.Println(title + ":")
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
