package main

import (
	"bufio"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads the user+system CPU a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis. utime and stime are fields
	// 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runtimeSample holds this process's cumulative heap allocation and GC
// CPU, read from runtime/metrics.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	return r
}

// hostProbe times a fixed loop of stdlib modular exponentiations at the
// size a 512-bit Paillier key uses (a 512-bit exponent mod a 1024-bit
// n²) and returns the time per operation. It is printed before and after
// each workload so a shift in the figures can be told apart as host
// drift (both move) or program change (only the workload moves).
func hostProbe() time.Duration {
	const ops = 300
	rng := rand.New(rand.NewSource(1))
	mod := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 1024))
	mod.SetBit(mod, 1023, 1).SetBit(mod, 0, 1)
	base := new(big.Int).Rand(rng, mod)
	exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 512))
	z := new(big.Int)
	start := time.Now()
	for i := 0; i < ops; i++ {
		z.Exp(base, exp, mod)
		base.Add(base, big.NewInt(1))
	}
	return time.Since(start) / ops
}
